"""Dataset ingestion, normalization, augmentation and input encoding.

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
from scipy import ndimage

from .errors import ConsistencyError, FormatError
from .rng import RngStream, rng_uniform

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 3073


@dataclass
class LabeledImage:
    pixels: np.ndarray          # (C, H, W), normalized
    label: int


@dataclass
class Dataset:
    images: np.ndarray          # (N, C, H, W) float64
    labels: np.ndarray          # (N,) int64
    split: str = "train"
    name: str = "mnist"

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i) -> LabeledImage:
        return LabeledImage(pixels=self.images[i], label=int(self.labels[i]))

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


def save_mnist_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Re-serialize a parsed MNIST dataset to IDX bytes (exact round trip)."""
    n, _, rows, cols = dataset.images.shape
    pixels = np.rint(dataset.images * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4i", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2i", IDX_LABELS_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def load_cifar10_bin(paths, split: str = "train", stats=None):
    """Parse CIFAR-10 binary batches into a standardized dataset.

    Returns ``(dataset, stats)`` where ``stats = (mean, std)`` per channel.
    Pass the training split's stats when loading the test split so both use
    the same normalization.
    """
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
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
    images = np.concatenate(chunks).astype(np.float64) / 255.0
    if stats is None:
        mean = images.mean(axis=(0, 2, 3))
        std = images.std(axis=(0, 2, 3))
        stats = (mean, std)
    mean, std = stats
    images = (images - mean[None, :, None, None]) / std[None, :, None, None]
    return Dataset(images=images, labels=labels.astype(np.int64),
                   split=split, name="cifar10"), stats


@dataclass
class AugmentConfig:
    """CIFAR augmentation switches; heavier transforms default off."""

    flip: bool = True
    rotate: bool = True
    crop: bool = True
    rotate_degrees: float = 15.0
    crop_pad: int = 4
    # optional extras, off by default
    shear: bool = False
    shear_degrees: float = 10.0
    scale_jitter: bool = False
    scale_range: tuple = (0.8, 1.2)
    color_jitter: bool = False
    color_factor: float = 0.2

    @classmethod
    def disabled(cls) -> "AugmentConfig":
        return cls(flip=False, rotate=False, crop=False)


def _rotate(pixels: np.ndarray, angle: float) -> np.ndarray:
    out = np.empty_like(pixels)
    for c in range(pixels.shape[0]):
        out[c] = ndimage.rotate(pixels[c], angle, reshape=False, order=1,
                                mode="constant", cval=0.0)
    return out


def _affine(pixels: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    h, w = pixels.shape[1:]
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    offset = center - matrix @ center
    out = np.empty_like(pixels)
    for c in range(pixels.shape[0]):
        out[c] = ndimage.affine_transform(pixels[c], matrix, offset=offset,
                                          order=1, mode="constant", cval=0.0)
    return out


def augment(image: LabeledImage, config: AugmentConfig, stream: RngStream) -> LabeledImage:
    """Apply flip / rotation / pad-and-crop (in that order); label unchanged.

    Deterministic given the stream state; draws are consumed in a fixed order
    regardless of which transforms are enabled.
    """
    px = image.pixels
    draws = rng_uniform(stream, (7,))
    if config.flip and draws[0] < 0.5:
        px = px[:, :, ::-1].copy()
    if config.rotate:
        angle = (draws[1] * 2.0 - 1.0) * config.rotate_degrees
        px = _rotate(px, angle)
    if config.shear:
        shear = np.deg2rad((draws[4] * 2.0 - 1.0) * config.shear_degrees)
        px = _affine(px, np.array([[1.0, np.tan(shear)], [0.0, 1.0]]))
    if config.scale_jitter:
        lo, hi = config.scale_range
        s = lo + draws[5] * (hi - lo)
        px = _affine(px, np.array([[1.0 / s, 0.0], [0.0, 1.0 / s]]))
    if config.color_jitter:
        f = config.color_factor
        px = px * (1.0 + (draws[6] * 2.0 - 1.0) * f)
    if config.crop:
        pad = config.crop_pad
        h, w = px.shape[1:]
        padded = np.pad(px, ((0, 0), (pad, pad), (pad, pad)))
        oy = int(draws[2] * (2 * pad + 1))
        ox = int(draws[3] * (2 * pad + 1))
        px = padded[:, oy : oy + h, ox : ox + w]
    return LabeledImage(pixels=np.ascontiguousarray(px), label=image.label)


def encode_direct(image, horizon: int) -> np.ndarray:
    """Constant-current encoding: the image repeated at every timestep.

    Accepts a single image (C, H, W) -> (T, C, H, W) or a batch
    (N, C, H, W) -> (T, N, C, H, W).  Returns a broadcast view; copy before
    mutating.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    pixels = image.pixels if isinstance(image, LabeledImage) else np.asarray(image)
    return np.broadcast_to(pixels, (horizon,) + pixels.shape)
