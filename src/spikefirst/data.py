"""Dataset ingestion, normalization and input encoding.

MNIST is parsed from the big-endian IDX binaries (image magic 0x00000803,
label magic 0x00000801) and scaled to [0, 1].  CIFAR-10 is parsed from the
3073-byte binary batch records (label byte + 1024 R + 1024 G + 1024 B),
scaled to [0, 1] and then standardized per channel with statistics from the
training split.

Inputs are fed to the network with direct encoding: the normalized image is
applied as a constant synaptic drive at every timestep.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, FormatError, ParameterError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073


@dataclass
class Dataset:
    images: np.ndarray          # (N, C, H, W) float64
    labels: np.ndarray          # (N,) int64
    split: str = "train"
    name: str = "mnist"

    def __len__(self):
        return len(self.labels)

    def subset(self, indices) -> "Dataset":
        return Dataset(images=self.images[indices], labels=self.labels[indices],
                       split=self.split, name=self.name)


def _read_exact(f, n: int, what: str) -> bytes:
    # n can come from the file's own header: it is checked against the bytes
    # left before reading, so a corrupt count cannot ask for a huge buffer
    left = os.fstat(f.fileno()).st_size - f.tell()
    if not 0 <= n <= left:
        raise FormatError(f"cannot read {what}: needs {n} bytes, file has {left} left")
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def load_mnist_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse an MNIST IDX image/label file pair into a normalized dataset."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">4i", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x} in {images_path}")
        if (rows, cols) != (28, 28):
            raise FormatError(f"expected 28x28 images, got {rows}x{cols}")
        raw = _read_exact(f, count * rows * cols, "image data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols)

    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(">2i", _read_exact(f, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x} in {labels_path}")
        lraw = _read_exact(f, lcount, "label data")
    labels = np.frombuffer(lraw, dtype=np.uint8)

    if count != lcount:
        raise ConsistencyError(f"image count {count} != label count {lcount}")
    if labels.size and labels.max() > 9:
        raise FormatError(f"label byte {labels.max()} out of range 0..9")
    return Dataset(images=pixels.astype(np.float64) / 255.0,
                   labels=labels.astype(np.int64), split=split, name="mnist")


def _cifar_stats(stats):
    """Validate caller-given per-channel ``(mean, std)`` statistics."""
    try:
        mean, std = (np.asarray(a, dtype=np.float64) for a in stats)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"stats must be a (mean, std) pair of arrays: {exc}") from exc
    if mean.shape != (3,) or std.shape != (3,):
        raise ParameterError(f"stats must hold 3 channel values each, got shapes "
                             f"{mean.shape} and {std.shape}")
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
        raise ParameterError(f"stats need a finite mean and a finite positive std, "
                             f"got mean {mean} and std {std}")
    return mean, std


def load_cifar10_bin(paths, split: str = "train", stats=None):
    """Parse CIFAR-10 binary batches into a standardized dataset.

    Returns ``(dataset, stats)`` where ``stats = (mean, std)`` per channel.
    Pass the training split's stats when loading the test split so both use
    the same normalization.
    """
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    paths = list(paths)
    if not paths:
        raise ParameterError("no CIFAR-10 batch files given")
    if stats is not None:
        mean, std = _cifar_stats(stats)
    chunks = []
    labels = []
    for path in paths:
        with open(path, "rb") as f:
            raw = f.read()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
            raise FormatError(f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD}")
        rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels.append(rec[:, 0])
        chunks.append(rec[:, 1:].reshape(-1, 3, 32, 32))
    labels = np.concatenate(labels)
    if labels.max() > 9:
        raise FormatError(f"label byte {labels.max()} out of range 0..9")
    pixels = np.concatenate(chunks)
    images = pixels.astype(np.float64) / 255.0
    if stats is None:
        # a constant channel has zero std and would standardize to NaN
        constant = pixels.min(axis=(0, 2, 3)) == pixels.max(axis=(0, 2, 3))
        if constant.any():
            raise FormatError(f"channel {int(constant.argmax())} is constant over all "
                              f"{len(labels)} images: cannot standardize")
        mean = images.mean(axis=(0, 2, 3))
        std = images.std(axis=(0, 2, 3))
        stats = (mean, std)
    images = (images - mean[None, :, None, None]) / std[None, :, None, None]
    return Dataset(images=images, labels=labels.astype(np.int64),
                   split=split, name="cifar10"), stats


def encode_direct(image, horizon: int) -> np.ndarray:
    """Constant-current encoding: the image repeated at every timestep.

    Accepts a single image (C, H, W) -> (T, C, H, W) or a batch
    (N, C, H, W) -> (T, N, C, H, W).  Returns a broadcast view; copy before
    mutating.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    pixels = np.asarray(image)
    return np.broadcast_to(pixels, (horizon,) + pixels.shape)
