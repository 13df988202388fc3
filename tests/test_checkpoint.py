"""Binary checkpoint container: round trips and corruption detection."""

import struct
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefirst.checkpoint import (MAGIC, Checkpoint, load_checkpoint,
                                   save_checkpoint)
from spikefirst.errors import CheckpointError
from spikefirst.network import build, init_params, serialize_spec
from spikefirst.rng import RngStream
from spikefirst.tuner import apply_candidate


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


def read_sections(raw: bytes) -> list:
    """(name, payload) pairs of a checkpoint file, in file order."""
    body, off, out = raw[:-4], 12, []
    while off < len(body):
        (n,) = struct.unpack_from("<H", body, off)
        name = body[off + 2 : off + 2 + n].decode()
        off += 2 + n
        (plen,) = struct.unpack_from("<Q", body, off)
        out.append((name, body[off + 8 : off + 8 + plen]))
        off += 8 + plen
    return out


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def rewrite_section(path, section, edit):
    """Replace one section's payload by ``edit(payload)``, keeping the CRC valid."""
    body = path.read_bytes()[:12]
    for name, payload in read_sections(path.read_bytes()):
        if name == section:
            payload = edit(payload)
        body += struct.pack("<H", len(name)) + name.encode()
        body += struct.pack("<Q", len(payload)) + payload
    path.write_bytes(with_crc(body))


def test_round_trip_of_overridden_spec(tmp_path):
    # the tuner sets thresholds from numpy values; the spec must still load back
    spec = build("mlp2", "D-F-BPTT", {"hidden": 4})
    tuned = apply_candidate(Checkpoint(spec=spec, params=init_params(spec, RngStream(0, 1))),
                            np.array([1.2, 0.9]))
    path = tmp_path / "o.ckpt"
    save_checkpoint(tuned, path)
    back = load_checkpoint(path)
    assert back.spec == tuned.spec
    assert [l.v_th for l in back.spec.layers] == [1.2, 0.9]


def test_rejects_out_of_range_neuron_parameter(ckpt, tmp_path):
    path = tmp_path / "k.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "spec", lambda p: p.replace(b"k=1.0", b"k=0.0", 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [b"1if 1 else 0", b"'\\e'"])
def test_spec_value_that_only_warns_is_rejected(ckpt, tmp_path, value):
    # ast.literal_eval parses these after a parser warning; the warning itself
    # takes the CheckpointError path and never reaches the caller
    path = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "spec", lambda p: p.replace(b"k=1.0", b"k=" + value, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    assert [str(w.message) for w in caught] == []


def _set(payload, at, fmt, value):
    out = bytearray(payload)
    struct.pack_into(fmt, out, at, value)
    return bytes(out)


# params payload: count u32 | name length u16 | "layer0.w" | ndim u8 | shape u32 x2
@pytest.mark.parametrize("edit", [
    lambda p: _set(p, 0, "<I", 5),                 # more arrays than stored
    lambda p: _set(p, 4, "<H", 0xFFFF),            # name runs past the end
    lambda p: _set(p, 6, "<B", 0xFF),              # name is not UTF-8
    lambda p: _set(p, 14, "<B", 0xFF),             # more dims than stored
    lambda p: _set(p, 15, "<I", 0xFFFFFFFF),       # shape larger than the data
    lambda p: p[:14] + struct.pack("<B3I", 3, 0, 2**32 - 1, 2**32 - 1) + p[27:],
    lambda p: p + b"\0",                           # trailing bytes
], ids=["count", "name-length", "name-utf8", "ndim", "shape", "empty-overflowing-shape",
        "trailing"])
def test_rejects_malformed_array_section(ckpt, tmp_path, edit):
    path = tmp_path / "a.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "params", edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("meta", [b"{not json", b"\xff", b"[]", b'{"epoch": 1}',
                                  b'{"adam_step": "x", "epoch": 1, "seed": 0, '
                                  b'"best_accuracy": 0.5}'])
def test_rejects_malformed_meta(ckpt, tmp_path, meta):
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "meta", lambda p: meta)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    spec = build("mlp2", "S-F-BPTT", {"hidden": 2, "horizon": 4})
    params = {"layer0.w": np.arange(6.0).reshape(2, 3), "layer1.w": np.ones((10, 2))}
    path = tmp_path_factory.mktemp("fuzz") / "s.ckpt"
    save_checkpoint(Checkpoint(spec=spec, params=params, adam_m=params, seed=3,
                               train_config={"lr": 0.01}), path)
    return path


@given(edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)),
                      min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_fuzzed_payload_raises_only_checkpoint_error(small_ckpt, edits):
    # bytes after the version changed, CRC recomputed: loading either
    # succeeds or raises CheckpointError, never another exception
    body = bytearray(small_ckpt.read_bytes()[:-4])
    for pos, value in edits:
        body[12 + pos % (len(body) - 12)] = value
    path = small_ckpt.with_name("fuzzed.ckpt")
    path.write_bytes(with_crc(bytes(body)))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
