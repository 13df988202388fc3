"""Versioned binary checkpoint container.

Layout: 8-byte magic, uint32 version, a sequence of length-prefixed named
sections, and a trailing CRC32 of everything before it.  This is format
version 3: sections hold the network spec as JSON (``network.serialize_spec``,
whose model kind is the one statement of the neuron model and the coding),
scalar metadata as JSON, and the parameter / optimizer tensors.  Files of any
other version, such as version 1 with its key=value spec or version 2 with a
coding, a surrogate width and a neuron model per layer in its spec, raise
CheckpointError.  The container is self-describing and byte-deterministic, so
identical training runs produce identical files.  A loaded file holds
exactly one weight ``layer{i}.w`` of the spec's shape per linear or conv
layer, and optimizer moments only for those weights, at the same shapes;
its ``epoch`` and ``adam_step`` are integers >= 0, its ``seed`` an integer
and its ``best_accuracy`` a number in [0, 1].
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ParameterError
from .network import NetworkSpec, parse_spec, serialize_spec, weight_shape

MAGIC = b"SPIKEFST"
VERSION = 3


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a training run exactly."""

    spec: NetworkSpec
    params: dict
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    adam_step: int = 0
    epoch: int = 0
    seed: int = 0
    best_accuracy: float = 0.0


def _pack_arrays(arrays: dict) -> bytes:
    out = [struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
        nb = name.encode()
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes())
    return b"".join(out)


class _Reader:
    """Bounds-checked cursor over a byte buffer; overruns raise CheckpointError."""

    def __init__(self, buf: bytes, what: str, off: int = 0):
        self.buf, self.off, self.what = buf, off, what

    def left(self) -> int:
        return len(self.buf) - self.off

    def take(self, n: int) -> bytes:
        if n > self.left():
            raise CheckpointError(f"{self.what}: needs {n} bytes, {self.left()} left")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.what}: name is not UTF-8") from exc


def _unpack_arrays(buf: bytes, what: str) -> dict:
    r = _Reader(buf, what)
    arrays = {}
    (count,) = r.unpack("<I")
    for _ in range(count):
        name = r.name()
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        data = r.take(math.prod(shape) * 8)
        try:
            arrays[name] = np.frombuffer(data, dtype=np.float64).reshape(shape).copy()
        except ValueError as exc:    # an empty shape whose other dims overflow
            raise CheckpointError(f"{what}: array {name!r} has shape {shape}") from exc
    if r.left():
        raise CheckpointError(f"{what}: {r.left()} trailing bytes")
    return arrays


def _is_number(value, types) -> bool:
    """Whether ``value``, read from JSON, is of ``types`` and not a bool."""
    return isinstance(value, types) and not isinstance(value, bool)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` to a temporary file beside ``path``, then move it over
    ``path``: a save that fails or is killed partway leaves the old file."""
    meta = {
        "adam_step": ckpt.adam_step,
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "best_accuracy": ckpt.best_accuracy,
    }
    sections = [
        ("spec", serialize_spec(ckpt.spec).encode()),
        ("meta", json.dumps(meta, sort_keys=True).encode()),
        ("params", _pack_arrays(ckpt.params)),
        ("adam_m", _pack_arrays(ckpt.adam_m)),
        ("adam_v", _pack_arrays(ckpt.adam_v)),
    ]
    body = [MAGIC, struct.pack("<I", VERSION)]
    for name, payload in sections:
        nb = name.encode()
        body.append(struct.pack("<H", len(nb)))
        body.append(nb)
        body.append(struct.pack("<Q", len(payload)))
        body.append(payload)
    blob = b"".join(body)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.write(struct.pack("<I", zlib.crc32(blob)))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: checksum mismatch (corrupt or truncated)")
    (version,) = struct.unpack_from("<I", body, 8)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    r = _Reader(body, f"{path}: sections", off=12)
    sections = {}
    while r.left():
        name = r.name()
        (plen,) = r.unpack("<Q")
        sections[name] = r.take(plen)
    try:
        spec_text, meta_text = sections["spec"], sections["meta"]
        params, adam_m, adam_v = [_unpack_arrays(sections[name], f"{path}: {name}")
                                  for name in ("params", "adam_m", "adam_v")]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing section {exc}") from exc
    try:
        spec = parse_spec(spec_text)
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError,
            ParameterError) as exc:
        raise CheckpointError(f"{path}: malformed network spec: {exc!r}") from exc
    weights = {f"layer{i}.w": weight_shape(layer) for i, layer in spec.weighted_layers()}
    if params.keys() != weights.keys():
        raise CheckpointError(f"{path}: params hold {sorted(params)}, "
                              f"the spec's weights are {sorted(weights)}")
    for section, arrays in (("params", params), ("adam_m", adam_m), ("adam_v", adam_v)):
        for name, arr in arrays.items():
            if arr.shape != weights.get(name):
                raise CheckpointError(f"{path}: {section} array {name!r} has shape "
                                      f"{arr.shape}; the spec's weights are {weights}")
    try:
        meta = json.loads(meta_text.decode())
        adam_step, epoch, seed, best = (meta[key] for key in
                                        ("adam_step", "epoch", "seed", "best_accuracy"))
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: malformed metadata: {exc!r}") from exc
    for name, value in (("adam_step", adam_step), ("epoch", epoch)):
        if not _is_number(value, int) or value < 0:
            raise CheckpointError(f"{path}: {name} must be an integer >= 0, got {value!r}")
    if not _is_number(seed, int):
        raise CheckpointError(f"{path}: seed must be an integer, got {seed!r}")
    # NaN fails the range test
    if not _is_number(best, (int, float)) or not 0.0 <= best <= 1.0:
        raise CheckpointError(f"{path}: best_accuracy must be a number in [0, 1], "
                              f"got {best!r}")
    return Checkpoint(spec=spec, params=params, adam_m=adam_m, adam_v=adam_v,
                      adam_step=adam_step, epoch=epoch, seed=seed,
                      best_accuracy=float(best))
