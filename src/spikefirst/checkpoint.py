"""Versioned binary checkpoint container.

Layout: 8-byte magic, uint32 version, a sequence of length-prefixed named
sections, and a trailing CRC32 of everything before it.  Sections hold the
serialized network spec, scalar metadata, and the parameter / optimizer
tensors.  The container is self-describing and byte-deterministic, so
identical training runs produce identical files.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError
from .network import NetworkSpec, parse_spec, serialize_spec

MAGIC = b"SPIKEFST"
VERSION = 1


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
    train_config: dict = field(default_factory=dict)
    format_version: int = VERSION


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


def _unpack_arrays(buf: bytes) -> dict:
    arrays = {}
    (count,), off = struct.unpack_from("<I", buf), 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off : off + nlen].decode()
        off += nlen
        (ndim,) = struct.unpack_from("<B", buf, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}I", buf, off)
        off += 4 * ndim
        size = int(np.prod(shape)) * 8
        arrays[name] = np.frombuffer(buf[off : off + size], dtype=np.float64).reshape(shape).copy()
        off += size
    return arrays


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    meta = {
        "adam_step": ckpt.adam_step,
        "epoch": ckpt.epoch,
        "seed": ckpt.seed,
        "best_accuracy": ckpt.best_accuracy,
        "train_config": ckpt.train_config,
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
    with open(path, "wb") as f:
        f.write(blob)
        f.write(struct.pack("<I", zlib.crc32(blob)))


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
    off = 12
    sections = {}
    while off < len(body):
        (nlen,) = struct.unpack_from("<H", body, off)
        off += 2
        name = body[off : off + nlen].decode()
        off += nlen
        (plen,) = struct.unpack_from("<Q", body, off)
        off += 8
        if off + plen > len(body):
            raise CheckpointError(f"{path}: section {name!r} overruns file")
        sections[name] = body[off : off + plen]
        off += plen
    try:
        spec_text = sections["spec"]
        meta = json.loads(sections["meta"].decode())
        params = _unpack_arrays(sections["params"])
        adam_m = _unpack_arrays(sections["adam_m"])
        adam_v = _unpack_arrays(sections["adam_v"])
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing section {exc}") from exc
    try:
        spec = parse_spec(spec_text.decode())
    except (ValueError, SyntaxError, TypeError, KeyError) as exc:
        raise CheckpointError(f"{path}: malformed network spec: {exc!r}") from exc
    return Checkpoint(spec=spec, params=params, adam_m=adam_m, adam_v=adam_v,
                      adam_step=int(meta["adam_step"]), epoch=int(meta["epoch"]),
                      seed=int(meta["seed"]),
                      best_accuracy=float(meta["best_accuracy"]),
                      train_config=meta.get("train_config", {}),
                      format_version=version)
