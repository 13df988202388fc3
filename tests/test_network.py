"""Architecture construction, the unrolled forward pass, spec round trips."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

import spikefirst as sf
from spikefirst.checkpoint import Checkpoint
from spikefirst.errors import ParameterError, ShapeError
from spikefirst.network import (DEFAULT_HIDDEN, LayerSpec, build, init_params, layer_shapes,
                                normalize_model_kind, parse_spec, serialize_spec,
                                synaptic_drive, weight_shape)
from spikefirst.neurons import LayerState, det_lif_step
from spikefirst.rng import RngStream
from spikefirst.tuner import apply_candidate


def test_normalize_model_kind():
    assert normalize_model_kind("d-f-bptt") == "D-F-BPTT"
    assert normalize_model_kind("S_F_BPTT") == "S-F-BPTT"
    for bad in ("X-BPTT", 5, None):
        with pytest.raises(ParameterError, match="model kind"):
            normalize_model_kind(bad)


def test_build_mlp2_defaults():
    spec = build("mlp2", "D-F-BPTT")
    assert [l.kind for l in spec.layers] == ["linear", "linear"]
    assert spec.layers[0].in_features == 784
    assert spec.layers[0].out_features == 800
    assert spec.layers[1].out_features == 10
    assert spec.coding == "first-to-spike"
    assert spec.horizon == 20
    assert spec.neuron == "det" and all(l.leak == 0.9 for l in spec.layers)


def test_build_stochastic_leak_default():
    spec = build("mlp2", "S-F-BPTT")
    assert spec.neuron == "stoch" and all(l.leak == 0.7 for l in spec.layers)


def test_build_rate_coding():
    spec = build("mlp2", "D-R-BPTT")
    assert spec.coding == "rate"
    assert spec.horizon == 15


def test_build_lenet5_stack():
    spec = build("lenet5", "D-F-BPTT")
    kinds = [l.kind for l in spec.layers]
    assert kinds == ["conv", "pool", "conv", "pool", "linear", "linear", "linear"]
    assert spec.layers[0].pad == 2
    assert spec.layers[4].in_features == 400
    assert [l.out_features for l in spec.layers[4:]] == [120, 84, 10]


def test_build_vgg15_stack():
    spec = build("vgg15", "D-F-BPTT")
    convs = [l for l in spec.layers if l.kind == "conv"]
    linears = [l for l in spec.layers if l.kind == "linear"]
    pools = [l for l in spec.layers if l.kind == "pool"]
    assert len(convs) == 13 and len(linears) == 2 and len(pools) == 5
    assert all(p.pool_mode == "max" for p in pools)


def test_build_overrides():
    spec = build("mlp2", "D-F-BPTT", {"hidden": 64, "horizon": 7, "leak": 0.5})
    assert spec.layers[0].out_features == 64
    assert spec.horizon == 7
    assert [l.leak for l in spec.layers] == [0.5, 0.5]
    # per-layer thresholds come from the tuner, as numpy values
    tuned = apply_candidate(Checkpoint(spec=spec, params={}), np.array([1.5, 0.8]))
    assert [l.v_th for l in tuned.spec.layers] == [1.5, 0.8]
    assert all(type(l.v_th) is float for l in tuned.spec.layers)
    assert [l.leak for l in tuned.spec.layers] == [0.5, 0.5]


def test_build_rejects_bad_overrides():
    with pytest.raises(ParameterError):
        build("mlp2", "D-F-BPTT", {"v_th": [1.0, 1.0]})   # the tuner sets thresholds
    with pytest.raises(ParameterError):
        build("mlp2", "D-F-BPTT", {"nonsense": 1})
    with pytest.raises(ParameterError, match="alpha"):
        build("mlp2", "D-F-BPTT", {"alpha": 2.0})          # the surrogate width is fixed
    with pytest.raises(ParameterError):
        build("mlp7", "D-F-BPTT")
    with pytest.raises(ParameterError, match="model kind"):
        build("mlp2", 5)
    # a fraction was truncated to a smaller network, and a string raised a
    # bare ValueError
    for bad in ({"hidden": 2.7}, {"horizon": 3.9}, {"hidden": True}, {"horizon": np.float64(4)},
                {"hidden": "x"}, {"horizon": "x"}, {"leak": "x"}, {"leak": None}):
        with pytest.raises(ParameterError, match=next(iter(bad))):
            build("mlp2", "D-F-BPTT", bad)


def test_build_takes_hidden_only_where_it_sets_a_width():
    # lenet5 and vgg15 have fixed widths: their hidden was dropped
    for arch in ("lenet5", "vgg15"):
        for hidden in (3, 0):
            with pytest.raises(ParameterError, match="hidden"):
                build(arch, "D-F-BPTT", {"hidden": hidden})
        assert build(arch, "D-F-BPTT", {"hidden": DEFAULT_HIDDEN}) == build(arch, "D-F-BPTT")
    for hidden in (0, -5):
        with pytest.raises(ParameterError, match="hidden must be an integer >= 1"):
            build("mlp2", "D-F-BPTT", {"hidden": hidden})


@pytest.mark.parametrize("field,value", [
    ("coding", "foo"), ("model_kind", "X"), ("model_kind", "d-f-bptt"), ("arch", "foo"),
    ("horizon", 0), ("horizon", 2.5), ("horizon", True), ("horizon", "20"), ("alpha", -1.0),
    ("alpha", 0.0), ("alpha", float("nan")), ("alpha", float("inf")),
])
def test_network_spec_rejects_bad_header_field(field, value):
    spec = build("mlp2", "D-F-BPTT", {"hidden": 4})
    # the model kind states the coding and the surrogate width is a constant:
    # a spec takes neither, whatever the value
    error = TypeError if field in ("coding", "alpha") else ParameterError
    with pytest.raises(error, match=field.replace("_", " ")):
        replace(spec, **{field: value})


def _header(**fields):
    """An edit of a spec's JSON that sets header fields."""
    return lambda spec: spec.update(fields)


def _layer(i, **fields):
    """An edit of a spec's JSON that sets fields of layer ``i``."""
    return lambda spec: spec["layers"][i].update(fields)


_CONV = asdict(LayerSpec(kind="conv", in_channels=1, out_channels=1, kernel=1))
_POOL = asdict(LayerSpec(kind="pool", window=2))
_UNKNOWN = "unexpected keyword argument '{}'"

# Specs the network cannot run as stored: (id, arch, model kind, edit, error).
# Each edit applies to the JSON of small_spec(arch, kind).
# The model kind is the one statement of the neuron model and the coding, so
# a spec that states another one holds an unknown field.
UNUSABLE_SPECS = [
    ("S-F-with-det-neurons", "mlp2", "S-F-BPTT", _layer(0, neuron="det"),
     _UNKNOWN.format("neuron")),
    ("D-F-with-stoch-output", "mlp2", "D-F-BPTT", _layer(1, neuron="stoch"),
     _UNKNOWN.format("neuron")),
    ("D-F-with-stoch-hidden", "lenet5", "D-F-BPTT", _layer(2, neuron="stoch"),
     _UNKNOWN.format("neuron")),
    ("D-R-with-stoch-neurons", "mlp2", "D-R-BPTT", _layer(0, neuron="stoch"),
     _UNKNOWN.format("neuron")),
    ("D-F-with-rate", "mlp2", "D-F-BPTT", _header(coding="rate"), _UNKNOWN.format("coding")),
    ("D-R-with-first-to-spike", "mlp2", "D-R-BPTT", _header(coding="first-to-spike"),
     _UNKNOWN.format("coding")),
    ("S-F-with-rate", "mlp2", "S-F-BPTT", _header(coding="rate"), _UNKNOWN.format("coding")),
    ("no-layers", "mlp2", "D-F-BPTT", _header(layers=[]), "at least one layer"),
    ("pool-first", "lenet5", "D-F-BPTT", lambda s: s["layers"].pop(0),
     "layer 0 is a pool layer"),
    ("pool-last", "lenet5", "D-F-BPTT", lambda s: s["layers"].append(_POOL),
     "the last layer is a pool layer"),
    # every loss and prediction reads an (N, n_out) output
    ("conv-last", "lenet5", "D-F-BPTT", lambda s: s.update(layers=s["layers"][:3]),
     "the last layer is a conv layer"),
    ("linear-features", "mlp2", "D-F-BPTT", _layer(1, in_features=5),
     "linear layer 1 takes 5 features, layer 0 gives 4"),
    ("conv-channels", "lenet5", "D-F-BPTT", _layer(2, in_channels=5),
     "conv layer 2 takes 5 channels, 6 reach it"),
    ("conv-after-linear", "mlp2", "D-F-BPTT", lambda s: s["layers"].append(_CONV),
     "conv layer 2 follows a linear layer"),
    ("pool-after-linear", "lenet5", "D-F-BPTT", lambda s: s["layers"].insert(5, _POOL),
     "pool layer 5 follows a linear layer"),
    ("v_th-bool", "mlp2", "D-F-BPTT", _layer(0, v_th=True), "v_th must be an int or a float"),
    ("k-string", "mlp2", "S-F-BPTT", _layer(1, k="1.0"), "k must be an int or a float"),
    ("leak-null", "mlp2", "D-F-BPTT", _layer(0, leak=None), "leak must be an int or a float"),
    # a field its kind does not read keeps its default
    ("linear-kernel", "mlp2", "D-F-BPTT", _layer(0, kernel=7),
     "a linear layer does not read kernel"),
    ("linear-pool-mode", "mlp2", "D-F-BPTT", _layer(1, pool_mode="max"),
     "a linear layer does not read pool_mode"),
    ("conv-out-features", "lenet5", "D-F-BPTT", _layer(0, out_features=6),
     "a conv layer does not read out_features"),
    ("pool-v_th", "lenet5", "D-F-BPTT", _layer(1, v_th=5.0), "a pool layer does not read v_th"),
    ("pool-leak", "lenet5", "S-F-BPTT", _layer(3, leak=0.1), "a pool layer does not read leak"),
    # the surrogate width is a constant of the backward pass
    ("alpha-string", "mlp2", "D-F-BPTT", _header(alpha="2.0"), _UNKNOWN.format("alpha")),
]


def small_spec(arch, kind):
    """build(arch, kind) at horizon 3, and 4 wide on mlp2, the one arch whose
    width ``hidden`` sets."""
    return build(arch, kind, {"horizon": 3, **({"hidden": 4} if arch == "mlp2" else {})})


def unusable_spec(arch, kind, edit):
    """The JSON text of small_spec(arch, kind) after ``edit``."""
    fields = json.loads(serialize_spec(small_spec(arch, kind)))
    edit(fields)
    return json.dumps(fields)


@pytest.mark.parametrize("arch,kind,edit,error", [c[1:] for c in UNUSABLE_SPECS],
                         ids=[c[0] for c in UNUSABLE_SPECS])
def test_parse_spec_rejects_a_spec_the_network_cannot_run(arch, kind, edit, error):
    # parse_spec raises TypeError for an unknown field, ParameterError for a bad value
    with pytest.raises((ParameterError, TypeError), match=error):
        parse_spec(unusable_spec(arch, kind, edit))


def test_network_spec_takes_numpy_numbers():
    # the tuner and numpy arithmetic hand over numpy scalars
    layer = LayerSpec(kind="linear", in_features=np.int64(2), out_features=2,
                      v_th=np.float32(0.5), k=np.int32(2), leak=np.float64(0.25))
    assert (layer.v_th, layer.k, layer.leak) == (0.5, 2.0, 0.25)
    assert all(type(x) is float for x in (layer.v_th, layer.k, layer.leak))
    spec = sf.NetworkSpec(layers=[layer], horizon=np.int64(3), model_kind="D-F-BPTT",
                          arch="mlp2")
    assert type(spec.horizon) is int and spec.horizon == 3


def test_weight_shape():
    spec = build("lenet5", "D-F-BPTT")
    assert weight_shape(spec.layers[0]) == (6, 1, 5, 5)
    assert weight_shape(spec.layers[4]) == (120, 400)
    with pytest.raises(ShapeError):
        weight_shape(spec.layers[1])


@pytest.mark.parametrize("arch,input_shape", [
    ("mlp2", (1, 28, 28)), ("lenet5", (1, 28, 28)), ("vgg15", (3, 32, 32)),
])
def test_layer_shapes_match_one_step(arch, input_shape):
    spec = build(arch, "D-F-BPTT", {"hidden": 16} if arch == "mlp2" else {})
    # the shapes do not depend on the weights
    params = {f"layer{i}.w": np.zeros(weight_shape(l)) for i, l in spec.weighted_layers()}
    x = np.random.default_rng(0).uniform(size=(2,) + input_shape)
    outs = sf.step(spec, params, synaptic_drive(spec.layers[0], params["layer0.w"], x),
                   {}, None)
    # a layer's output is its spikes, or a pool layer's pooled map
    got = [out.shape[1:] for _, out, _ in outs]
    assert layer_shapes(spec, input_shape[1:]) == got


@pytest.mark.parametrize("kind", ["D-F-BPTT", "S-F-BPTT"])
def test_step_returns_the_states_own_buffers(kind):
    # step advances every neuron layer in place: its outputs are the states'
    # buffers, which the next step overwrites instead of allocating new ones
    spec = build("lenet5", kind, {"horizon": 2})
    params = init_params(spec, RngStream(0, 1))
    x = np.random.default_rng(0).uniform(size=(3, 1, 28, 28))
    drive0 = synaptic_drive(spec.layers[0], params["layer0.w"], x)
    streams = [RngStream(1, i) for i in range(len(spec.neuron_layers()))]
    states = {}
    rows = np.arange(3)
    sf.step(spec, params, drive0, states, streams, rows)
    buffers = {i: (s.v, s.fired_prev) for i, s in states.items()}
    outs = sf.step(spec, params, drive0, states, streams, rows)
    assert sorted(states) == [i for i, _ in spec.weighted_layers()]
    for i, (v, fired_prev) in buffers.items():
        assert states[i].v is v and states[i].fired_prev is fired_prev
        out_v, out_spikes, _ = outs[i]
        assert np.shares_memory(out_v, v) and np.shares_memory(out_spikes, fired_prev)
    # a pool layer has no state: its output is a new pooled map
    for i, layer in enumerate(spec.layers):
        if layer.kind == "pool":
            out_v, pooled, out_probs = outs[i]
            assert out_v is None and out_probs is None
            assert not any(np.shares_memory(pooled, a) for a in buffers[i - 1])


def test_init_params_deterministic_and_scaled():
    spec = build("mlp2", "D-F-BPTT", {"hidden": 32})
    p1 = init_params(spec, RngStream(5, 1))
    p2 = init_params(spec, RngStream(5, 1))
    assert set(p1) == {"layer0.w", "layer1.w"}
    for name in p1:
        assert np.array_equal(p1[name], p2[name])
    bound = 1.0 / np.sqrt(784)
    assert np.abs(p1["layer0.w"]).max() <= bound
    assert np.abs(p1["layer0.w"]).max() > 0.5 * bound    # actually fills the range


def test_forward_matches_stepwise_neuron_module():
    # the unrolled forward must agree with manual layer-by-layer stepping
    horizon, n = 4, 3
    spec = build("mlp2", "D-F-BPTT", {"hidden": 5, "horizon": horizon})
    spec.layers[0].in_features = 6
    rng = np.random.default_rng(3)
    params = {"layer0.w": rng.normal(size=(5, 6)), "layer1.w": rng.normal(size=(10, 5))}
    x = rng.uniform(0, 1, size=(n, 6))

    records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))

    s0 = LayerState(v=np.zeros((n, 5)))
    s1 = LayerState(v=np.zeros((n, 10)))
    for t in range(horizon):
        spk0 = det_lif_step(s0, spec.layers[0], x @ params["layer0.w"].T)
        spk1 = det_lif_step(s1, spec.layers[1], spk0 @ params["layer1.w"].T)
        assert np.array_equal(records[0][t], spk0)
        assert np.array_equal(records[1][t], spk1)
    # layer 1 reads layer 0's spikes, which only layer 0 tapes
    assert tape.traces[0].spikes is records[0] and tape.traces[1].inputs is None


def test_forward_horizon_mismatch():
    spec = build("mlp2", "D-F-BPTT", {"hidden": 4, "horizon": 5})
    spec.layers[0].in_features = 3
    params = {"layer0.w": np.zeros((4, 3)), "layer1.w": np.zeros((10, 4))}
    with pytest.raises(ShapeError):
        sf.forward(spec, params, np.zeros((3, 2, 3)))


def test_forward_stochastic_requires_streams():
    spec = build("mlp2", "S-F-BPTT", {"hidden": 4, "horizon": 2})
    spec.layers[0].in_features = 3
    params = {"layer0.w": np.zeros((4, 3)), "layer1.w": np.zeros((10, 4))}
    with pytest.raises(ShapeError, match="streams"):
        sf.forward(spec, params, sf.encode_direct(np.zeros((1, 3)), 2))


def test_forward_rejects_materialised_input():
    # layer 0's drive is computed once from a direct-encoded input; a dense
    # (T, N, ...) copy is not one, even when every step holds the same values
    spec = build("mlp2", "D-F-BPTT", {"hidden": 4, "horizon": 3})
    spec.layers[0].in_features = 3
    params = {"layer0.w": np.zeros((4, 3)), "layer1.w": np.zeros((10, 4))}
    x = np.ones((2, 3))
    with pytest.raises(ShapeError, match="direct-encoded"):
        sf.forward(spec, params, np.ascontiguousarray(sf.encode_direct(x, 3)))
    spec.horizon = 1
    with pytest.raises(ShapeError, match="direct-encoded"):
        sf.forward(spec, params, np.stack([x]))
    records, tape = sf.forward(spec, params, sf.encode_direct(x, 1))
    assert tape.traces[0].inputs.shape == (2, 3) and records[-1].shape == (1, 2, 10)


def test_forward_stochastic_reproducible():
    spec = build("mlp2", "S-F-BPTT", {"hidden": 6, "horizon": 3})
    spec.layers[0].in_features = 4
    rng = np.random.default_rng(4)
    params = {"layer0.w": rng.normal(size=(6, 4)), "layer1.w": rng.normal(size=(10, 6))}
    x = rng.uniform(size=(2, 4))
    enc = sf.encode_direct(x, 3)
    rec_a, _ = sf.forward(spec, params, enc, [RngStream(1, 0), RngStream(1, 1)])
    rec_b, _ = sf.forward(spec, params, enc, [RngStream(1, 0), RngStream(1, 1)])
    for a, b in zip(rec_a, rec_b):
        assert np.array_equal(a, b)


def test_forward_lenet_shapes():
    spec = build("lenet5", "D-F-BPTT", {"horizon": 2})
    params = init_params(spec, RngStream(0, 0))
    x = np.random.default_rng(5).uniform(size=(2, 1, 28, 28))
    records, tape = sf.forward(spec, params, sf.encode_direct(x, 2))
    shapes = [r.shape for r in records]
    assert shapes == [(2, 2, 6, 28, 28), (2, 2, 16, 10, 10),
                      (2, 2, 120), (2, 2, 84), (2, 2, 10)]
    # each layer's output is taped once, on the layer that makes it, and
    # read by the next layer as its input; a pool layer's is its own
    # float32 buffer, which holds a 2x2 average of spikes, k/4, exactly
    tr = tape.traces
    assert all(t.inputs is None for t in tr[1:])
    for i in (1, 3):
        assert tr[i].spikes.dtype == np.float32 and tr[i].spikes.shape[:2] == (2, 2)
        assert not np.shares_memory(tr[i].spikes, tr[i - 1].spikes)
        for t in range(2):
            pooled = sf.pool2d(tr[i - 1].spikes[t], 2)
            assert tr[i].spikes[t].astype(np.float64).tobytes() == pooled.tobytes()


_ROUND_TRIP_CASES = [(arch, kind, tuned) for tuned in (False, True)
                     for arch in ("mlp2", "lenet5", "vgg15")
                     for kind in ("D-F-BPTT", "S-F-BPTT", "D-R-BPTT")]


@pytest.mark.parametrize("arch,kind,tuned", _ROUND_TRIP_CASES,
                         ids=[f"{a}-{k}{'-tuned' if t else ''}" for a, k, t in _ROUND_TRIP_CASES])
def test_spec_serialization_round_trip(arch, kind, tuned):
    spec = build(arch, kind, {"horizon": 9})
    spec.layers[0].v_th = 1.25
    if tuned:
        # thresholds or scales from numpy floats, as the DE tuner sets them
        vector = np.linspace(0.3, 3.0, len(spec.neuron_layers()))
        spec = apply_candidate(Checkpoint(spec=spec, params={}), vector).spec
    text = serialize_spec(spec)
    assert serialize_spec(spec) == text          # two saves are byte-identical
    back = parse_spec(text)
    assert back == spec
    assert parse_spec(text.encode()) == spec
    assert serialize_spec(back) == text


# One field a layer of that kind reads, set to a value the simulator cannot use,
# or a neuron model, which no layer takes: the spec's model kind states it.
_BAD_LAYER_FIELDS = [
    ({"kind": "foo"}, "kind"),
    ({"kind": "linear", "neuron": "bogus"}, "neuron"),
    ({"kind": "linear", "in_features": -1}, "in_features"),
    ({"kind": "linear", "in_features": 2, "out_features": 2.0}, "out_features"),
    ({"kind": "linear", "in_features": 2, "out_features": 0}, "out_features"),
    ({"kind": "conv", "in_channels": 1, "out_channels": 2, "kernel": 3, "stride": 0},
     "stride"),
    ({"kind": "conv", "in_channels": 1, "out_channels": 2, "kernel": 0}, "kernel"),
    ({"kind": "conv", "in_channels": 0, "out_channels": 2, "kernel": 3}, "in_channels"),
    ({"kind": "conv", "in_channels": 1, "out_channels": 2, "kernel": 3, "pad": -1}, "pad"),
    ({"kind": "pool", "window": 0}, "window"),
    ({"kind": "pool", "window": True}, "window"),
    ({"kind": "pool", "window": 2, "pool_mode": "foo"}, "pool mode"),
    ({"kind": "pool", "window": 2, "neuron": "det"}, "neuron"),
    # a field the kind does not read
    ({"kind": "linear", "in_features": 2, "out_features": 2, "stride": 2}, "stride"),
    ({"kind": "conv", "in_channels": 1, "out_channels": 2, "kernel": 3, "window": 2},
     "window"),
    ({"kind": "pool", "window": 2, "k": 2.0}, "k"),
    ({"kind": "pool", "window": 2, "pad": True}, "pad"),
]


@pytest.mark.parametrize("fields,what", _BAD_LAYER_FIELDS,
                         ids=[f"{what}={fields[what.replace(' ', '_')]!r}"
                              for fields, what in _BAD_LAYER_FIELDS])
def test_layer_spec_rejects_fields_its_kind_cannot_use(fields, what):
    with pytest.raises(TypeError if what == "neuron" else ParameterError, match=what):
        LayerSpec(**fields)

