"""Binary checkpoint container: round trips and corruption detection."""

import itertools
import json
import struct
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefirst import checkpoint
from spikefirst.checkpoint import (MAGIC, Checkpoint, load_checkpoint,
                                   save_checkpoint)
from spikefirst.errors import CheckpointError
from spikefirst.network import ARCHS, KIND_MODELS, build, init_params
from spikefirst.rng import RngStream
from spikefirst.tuner import apply_candidate

from test_network import small_spec


@pytest.fixture
def ckpt():
    spec = build("mlp2", "D-F-BPTT", {"hidden": 8, "horizon": 6})
    params = init_params(spec, RngStream(1, 1))
    return Checkpoint(spec=spec, params=params,
                      adam_m={k: np.zeros_like(v) for k, v in params.items()},
                      adam_v={k: np.ones_like(v) for k, v in params.items()},
                      adam_step=17, epoch=3, seed=42, best_accuracy=0.97)


def test_round_trip(ckpt, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.spec == ckpt.spec
    assert back.adam_step == 17 and back.epoch == 3 and back.seed == 42
    assert back.best_accuracy == 0.97
    for name in ckpt.params:
        assert np.array_equal(back.params[name], ckpt.params[name])
        assert np.array_equal(back.adam_m[name], ckpt.adam_m[name])
        assert np.array_equal(back.adam_v[name], ckpt.adam_v[name])


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("kind", sorted(KIND_MODELS))
def test_every_built_spec_round_trips(tmp_path, monkeypatch, arch, kind):
    spec = small_spec(arch, kind)
    # the spec is under test, not its weights (vgg15's fill 120 MB): each
    # weight is stored as one value
    monkeypatch.setattr(checkpoint, "weight_shape", lambda layer: (1,))
    params = {f"layer{i}.w": np.zeros(1) for i, _ in spec.weighted_layers()}
    path = tmp_path / "s.ckpt"
    save_checkpoint(Checkpoint(spec=spec, params=params), path)
    assert checkpoint.VERSION == 3
    assert struct.unpack_from("<I", path.read_bytes(), 8) == (3,)
    # the model kind is the one statement of the neuron model and the coding
    stored = json.loads(dict(read_sections(path.read_bytes()))["spec"])
    assert sorted(stored) == ["arch", "horizon", "layers", "model_kind"]
    assert not any("neuron" in layer for layer in stored["layers"])
    back = load_checkpoint(path).spec
    assert back == spec
    assert (back.neuron, back.coding) == KIND_MODELS[kind]


def test_save_is_byte_deterministic(ckpt, tmp_path):
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(ckpt, a)
    save_checkpoint(ckpt, b)
    assert a.read_bytes() == b.read_bytes()


def test_failed_save_keeps_the_old_file(ckpt, tmp_path, monkeypatch):
    # a save that dies partway (here: the disk fills after half the bytes)
    # must leave the previous checkpoint loadable and no temporary file
    path = tmp_path / "c.ckpt"
    save_checkpoint(ckpt, path)
    before = path.read_bytes()

    class HalfWritten:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: HalfWritten(open(*a, **k)),
                        raising=False)
    changed = replace(ckpt, epoch=ckpt.epoch + 1)
    with pytest.raises(OSError):
        save_checkpoint(changed, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]
    monkeypatch.undo()
    save_checkpoint(changed, path)
    assert load_checkpoint(path).epoch == ckpt.epoch + 1
    assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]


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
    # version 1 held a key=value spec, version 2 a coding, a surrogate width
    # and a neuron model per layer in its JSON spec
    for version in (99, 1, 2):
        raw = bytearray(path.read_bytes()[:-4])
        raw[8:12] = struct.pack("<I", version)
        raw += struct.pack("<I", zlib.crc32(bytes(raw)))   # keep the CRC valid
        edited = tmp_path / f"v{version}.ckpt"
        edited.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(edited)


def test_empty_optimizer_state(tmp_path):
    spec = build("mlp2", "D-R-BPTT", {"hidden": 4, "horizon": 3})
    ckpt = Checkpoint(spec=spec, params=init_params(spec, RngStream(0, 1)))
    path = tmp_path / "e.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.adam_m == {} and back.adam_v == {}


@pytest.mark.parametrize("section,edit", [
    ("params", lambda a: a.pop("layer1.w")),
    ("params", lambda a: a.update({"layer0.w": np.zeros((5, 784))})),
    ("params", lambda a: a.update({"bogus": np.zeros(3)})),
    ("adam_m", lambda a: a.update({"bogus": np.zeros(3)})),
    ("adam_v", lambda a: a.update({"layer1.w": np.zeros((8, 10))})),
], ids=["missing", "misshapen", "extra", "moment-of-no-weight", "misshapen-moment"])
def test_rejects_weights_that_do_not_fit_the_spec(ckpt, tmp_path, section, edit):
    edit(getattr(ckpt, section))
    path = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


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


_CODE = "__import__('os').system('touch {marker}')"


@pytest.mark.parametrize("old,new", [
    ('"kind": "linear"', '"kind": {code}'),
    ('"horizon": 6', '"horizon": {code}'),
    ('"horizon": 6', '"horizon": "{code}"'),
], ids=["layer", "header", "json-string"])
def test_spec_with_code_is_rejected_not_run(ckpt, tmp_path, old, new):
    # a crafted but CRC-valid checkpoint: its spec holds an expression, as raw
    # text or as a JSON string, that would create a file if it were evaluated
    marker = tmp_path / "ran"
    path = tmp_path / "evil.ckpt"
    save_checkpoint(ckpt, path)
    new = new.format(code=_CODE.format(marker=marker))

    def edit(payload):
        assert old.encode() in payload
        return payload.replace(old.encode(), new.encode(), 1)

    rewrite_section(path, "spec", edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert not marker.exists()


def test_round_trip_of_overridden_spec(tmp_path):
    # the tuner sets thresholds or scales from numpy values, and a spec may
    # hold numpy counts; the spec must still load back
    spec = build("mlp2", "D-F-BPTT", {"hidden": 4})
    tuned = apply_candidate(Checkpoint(spec=spec, params=init_params(spec, RngStream(0, 1))),
                            np.array([1.2, 0.9]))
    path = tmp_path / "o.ckpt"
    save_checkpoint(tuned, path)
    back = load_checkpoint(path)
    assert back.spec == tuned.spec
    assert [l.v_th for l in back.spec.layers] == [1.2, 0.9]
    for arch, kind in itertools.product(["mlp2", "lenet5"], ["D-F-BPTT", "S-F-BPTT", "D-R-BPTT"]):
        spec = small_spec(arch, kind)
        layers = list(spec.layers)
        layers[-1] = replace(layers[-1], out_features=np.int64(10))
        spec = replace(spec, layers=layers, horizon=np.int64(3))
        vector = np.linspace(0.5, 1.5, len(spec.neuron_layers()))
        tuned = apply_candidate(Checkpoint(spec=spec, params=init_params(spec, RngStream(0, 1))),
                                vector)
        save_checkpoint(tuned, path)
        back = load_checkpoint(path)
        assert back.spec == tuned.spec
        key = "k" if kind.startswith("S") else "v_th"
        assert [getattr(l, key) for l in back.spec.neuron_layers()] == list(vector)
        assert type(back.spec.horizon) is int and type(back.spec.layers[-1].out_features) is int


def test_rejects_out_of_range_neuron_parameter(ckpt, tmp_path):
    path = tmp_path / "k.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "spec", lambda p: p.replace(b'"k": 1.0', b'"k": 0.0', 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# A layer field of a CRC-valid lenet5 checkpoint that run_network cannot use:
# it failed there with ValueError, ZeroDivisionError, KeyError or ShapeError.
# A layer holds no neuron model since format 3, so "neuron" is an unknown field.
_BAD_LENET5_FIELDS = [(1, "pool_mode", "foo"), (1, "window", 0), (1, "kind", "foo"),
                      (0, "neuron", "bogus"), (0, "stride", 0), (6, "out_features", 0),
                      (0, "kernel", 3.0)]


def save_lenet5_with(path, index, field, value):
    """A lenet5 checkpoint whose layer ``index`` has ``field`` set to ``value``
    in its spec's JSON, past LayerSpec's own checks."""
    spec = build("lenet5", "D-F-BPTT", {"horizon": 3})
    save_checkpoint(Checkpoint(spec=spec, params=init_params(spec, RngStream(1, 1))), path)
    rewrite_section(path, "spec",
                    _edit_json(lambda s: s["layers"][index].update({field: value})))


@pytest.mark.parametrize("index,field,value", _BAD_LENET5_FIELDS,
                         ids=[f"layer{i}.{f}={v!r}" for i, f, v in _BAD_LENET5_FIELDS])
def test_rejects_layer_field_its_kind_cannot_use(tmp_path, index, field, value):
    path = tmp_path / "bad.ckpt"
    save_lenet5_with(path, index, field, value)
    with pytest.raises(CheckpointError, match="malformed network spec"):
        load_checkpoint(path)


def test_rejects_empty_output_layer_whose_weights_fit(tmp_path):
    # an (0, hidden) weight fits out_features=0; run_network would then take
    # an argmax over an empty axis
    spec = build("mlp2", "D-F-BPTT", {"hidden": 4})
    params = init_params(spec, RngStream(1, 1))
    spec.layers[1].out_features = 0              # past LayerSpec's own checks
    params["layer1.w"] = np.zeros((0, 4))
    path = tmp_path / "empty.ckpt"
    save_checkpoint(Checkpoint(spec=spec, params=params), path)
    with pytest.raises(CheckpointError, match="malformed network spec"):
        load_checkpoint(path)


# A header field of a CRC-valid mlp2 checkpoint that run_network ran as if
# nothing were wrong (horizon 0: rejected there with exit 2) or failed on
# (a horizon that is not an integer).  Since format 3 the model kind is the
# one statement of the neuron model and the coding, and the surrogate width
# is a constant: a "coding" or "alpha" key, or a layer's "neuron" key, is an
# unknown field.
_BAD_SPEC_FIELDS = [(None, "coding", "foo"), (None, "model_kind", "X"), (None, "arch", "foo"),
                    (None, "horizon", 0), (None, "horizon", 2.5), (None, "horizon", True),
                    (None, "horizon", "20"), (None, "alpha", -1.0), (None, "alpha", 0.0),
                    (1, "neuron", "none")]


@pytest.mark.parametrize("index,field,value", _BAD_SPEC_FIELDS,
                         ids=[f"{'spec' if i is None else f'layer{i}'}.{f}={v!r}"
                              for i, f, v in _BAD_SPEC_FIELDS])
def test_rejects_spec_field_the_network_cannot_use(ckpt, tmp_path, index, field, value):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, path)
    # past NetworkSpec's own checks
    rewrite_section(path, "spec", _edit_json(
        lambda s: (s if index is None else s["layers"][index]).update({field: value})))
    with pytest.raises(CheckpointError, match="malformed network spec"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [b"1if 1 else 0", b"'\\e'", b'"\\e"'])
def test_spec_value_that_only_warns_is_rejected(ckpt, tmp_path, value):
    # Python's own parser reads the first two only with a warning, and the
    # last is a JSON string with an invalid escape: all take the
    # CheckpointError path, and no warning reaches the caller
    path = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "spec", lambda p: p.replace(b'"k": 1.0', b'"k": ' + value, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("depth", [3000, 100000], ids=["recursion", "parser-stack"])
def test_rejects_deeply_nested_spec_value(ckpt, tmp_path, depth):
    # both depths pass the recursion limit: json raises RecursionError
    path = tmp_path / "n.ckpt"
    save_checkpoint(ckpt, path)
    value = b"[" * depth + b"]" * depth
    rewrite_section(path, "spec", lambda p: p.replace(b'"k": 1.0', b'"k": ' + value, 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _edit_json(edit):
    """A payload edit that applies ``edit`` to the decoded JSON object."""
    def rewrite(payload):
        spec = json.loads(payload)
        edit(spec)
        return json.dumps(spec).encode()
    return rewrite


@pytest.mark.parametrize("edit", [
    _edit_json(lambda s: s.update(bogus=1)),
    _edit_json(lambda s: s["layers"][0].update(bogus=1)),
    _edit_json(lambda s: s.pop("layers")),
    _edit_json(lambda s: s["layers"][0].pop("kind")),
    _edit_json(lambda s: s.update(layers={"0": s["layers"][0]})),
    _edit_json(lambda s: s["layers"].append([])),
    lambda p: b"[" + p + b"]",
    lambda p: b'"mlp2"',
    lambda p: b"null",
    lambda p: p.replace(b'"v_th": 1.0', b'"v_th": NaN', 1),
    lambda p: p.replace(b'"v_th": 1.0', b'"v_th": Infinity', 1),
    lambda p: p.replace(b'"v_th": 1.0', b'"v_th": -Infinity', 1),
], ids=["unknown-key", "unknown-layer-key", "no-layers", "layer-without-kind",
        "layers-object", "layer-not-object", "top-level-list", "top-level-string",
        "top-level-null", "v_th-NaN", "v_th-Infinity", "v_th-minus-Infinity"])
def test_rejects_malformed_json_spec(ckpt, tmp_path, edit):
    path = tmp_path / "j.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "spec", edit)
    with pytest.raises(CheckpointError, match="malformed network spec"):
        load_checkpoint(path)


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
                                  b'"best_accuracy": 0.5}',
                                  pytest.param(b"[" * 100000, id="deeply-nested")])
def test_rejects_malformed_meta(ckpt, tmp_path, meta):
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "meta", lambda p: meta)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# Meta scalars of CRC-valid files that a run cannot use: a negative adam_step
# divides by zero in Adam's bias correction on resume, and epoch 2.9 would be
# read as 2.
_BAD_META = [("adam_step", -1), ("adam_step", 3.0), ("adam_step", False), ("epoch", -3),
             ("epoch", "2"), ("epoch", 2.9), ("epoch", True), ("seed", "42"), ("seed", 4.2),
             ("seed", None), ("best_accuracy", float("nan")), ("best_accuracy", float("inf")),
             ("best_accuracy", -1.0), ("best_accuracy", 1.5), ("best_accuracy", "0.9"),
             ("best_accuracy", True)]


@pytest.mark.parametrize("key,value", _BAD_META, ids=[f"{k}={v!r}" for k, v in _BAD_META])
def test_rejects_meta_scalar_out_of_range(ckpt, tmp_path, key, value):
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    rewrite_section(path, "meta", _edit_json(lambda m: m.update({key: value})))
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


def test_meta_scalars_at_their_bounds_load(ckpt, tmp_path):
    path = tmp_path / "m.ckpt"
    for adam_step, epoch, seed, best in ((0, 0, -5, 0), (2**40, 7, 2**70, 1)):
        save_checkpoint(replace(ckpt, adam_step=adam_step, epoch=epoch, seed=seed,
                                best_accuracy=best), path)
        back = load_checkpoint(path)
        assert (back.adam_step, back.epoch, back.seed) == (adam_step, epoch, seed)
        assert back.best_accuracy == best and type(back.best_accuracy) is float


@pytest.fixture(scope="module")
def small_ckpt(tmp_path_factory):
    # 3 input features keep the file small, so most edits land in its structure
    spec = build("mlp2", "S-F-BPTT", {"hidden": 2, "horizon": 4})
    spec.layers[0] = replace(spec.layers[0], in_features=3)
    params = {"layer0.w": np.arange(6.0).reshape(2, 3), "layer1.w": np.ones((10, 2))}
    path = tmp_path_factory.mktemp("fuzz") / "s.ckpt"
    save_checkpoint(Checkpoint(spec=spec, params=params, adam_m=params, seed=3), path)
    # unedited, the file loads: the fuzzed loads start from a valid checkpoint
    assert load_checkpoint(path).spec == spec
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
