"""Binary checkpoint container: round trips and corruption detection."""

import struct

import numpy as np
import pytest

from spikefirst.checkpoint import (MAGIC, Checkpoint, load_checkpoint,
                                   save_checkpoint)
from spikefirst.errors import CheckpointError
from spikefirst.network import build, init_params, serialize_spec
from spikefirst.rng import RngStream


@pytest.fixture
def ckpt():
    spec = build("mlp2", "D-F-BPTT", {"hidden": 8, "horizon": 6})
    params = init_params(spec, RngStream(1, 1))
    return Checkpoint(spec=spec, params=params,
                      adam_m={k: np.zeros_like(v) for k, v in params.items()},
                      adam_v={k: np.ones_like(v) for k, v in params.items()},
                      adam_step=17, epoch=3, seed=42, best_accuracy=0.97,
                      train_config={"lr": 1e-3, "epochs": 10})


def test_round_trip(ckpt, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.spec == ckpt.spec
    assert back.adam_step == 17 and back.epoch == 3 and back.seed == 42
    assert back.best_accuracy == 0.97
    assert back.train_config == ckpt.train_config
    for name in ckpt.params:
        assert np.array_equal(back.params[name], ckpt.params[name])
        assert np.array_equal(back.adam_m[name], ckpt.adam_m[name])
        assert np.array_equal(back.adam_v[name], ckpt.adam_v[name])


def test_save_is_byte_deterministic(ckpt, tmp_path):
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(ckpt, a)
    save_checkpoint(ckpt, b)
    assert a.read_bytes() == b.read_bytes()


def test_file_starts_with_magic(ckpt, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    assert path.read_bytes()[:8] == MAGIC


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOTASNNC" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_rejects_truncated_file(ckpt, tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(ckpt, path)
    path.write_bytes(path.read_bytes()[:-40])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_rejects_bitflip(ckpt, tmp_path):
    path = tmp_path / "f.ckpt"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_rejects_unknown_version(ckpt, tmp_path):
    import zlib
    path = tmp_path / "v.ckpt"
    save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes()[:-4])
    raw[8:12] = struct.pack("<I", 99)
    raw += struct.pack("<I", zlib.crc32(bytes(raw)))   # keep the CRC valid
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_empty_optimizer_state(tmp_path):
    spec = build("mlp2", "D-R-BPTT", {"hidden": 4, "horizon": 3})
    ckpt = Checkpoint(spec=spec, params=init_params(spec, RngStream(0, 1)))
    path = tmp_path / "e.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.adam_m == {} and back.adam_v == {}


@pytest.mark.parametrize("where", ["layer", "header"])
def test_spec_with_code_is_rejected_not_run(ckpt, tmp_path, monkeypatch, where):
    # a crafted but CRC-valid checkpoint: its spec text holds an expression
    # that would create a file if it were evaluated
    marker = tmp_path / "ran"
    payload = f"__import__('os').system('touch {marker}')"
    text = serialize_spec(ckpt.spec)
    if where == "layer":
        text = text.replace("kind='linear'", f"kind={payload}", 1)
    else:
        text = text.replace(f"alpha={ckpt.spec.alpha!r}", f"alpha={payload}")
    assert payload in text
    monkeypatch.setattr("spikefirst.checkpoint.serialize_spec", lambda spec: text)
    path = tmp_path / "evil.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert not marker.exists()
