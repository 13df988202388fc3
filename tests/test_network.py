"""Architecture construction, the unrolled forward pass, spec round trips."""

import numpy as np
import pytest

import spikefirst as sf
from spikefirst.checkpoint import Checkpoint
from spikefirst.errors import ShapeError
from spikefirst.network import (build, init_params, normalize_model_kind,
                                parse_spec, serialize_spec, weight_shape)
from spikefirst.neurons import LayerState, det_lif_step
from spikefirst.rng import RngStream
from spikefirst.tuner import apply_candidate


def test_normalize_model_kind():
    assert normalize_model_kind("d-f-bptt") == "D-F-BPTT"
    assert normalize_model_kind("S_F_BPTT") == "S-F-BPTT"
    with pytest.raises(ValueError):
        normalize_model_kind("X-BPTT")


def test_build_mlp2_defaults():
    spec = build("mlp2", "D-F-BPTT")
    assert [l.kind for l in spec.layers] == ["linear", "linear"]
    assert spec.layers[0].in_features == 784
    assert spec.layers[0].out_features == 800
    assert spec.layers[1].out_features == 10
    assert spec.coding == "first-to-spike"
    assert spec.horizon == 20
    assert all(l.neuron == "det" and l.leak == 0.9 for l in spec.layers)


def test_build_stochastic_leak_default():
    spec = build("mlp2", "S-F-BPTT")
    assert all(l.neuron == "stoch" and l.leak == 0.7 for l in spec.layers)


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
    spec = build("mlp2", "D-F-BPTT", {"hidden": 64, "horizon": 7, "leak": 0.5,
                                      "alpha": 3.0})
    assert spec.layers[0].out_features == 64
    assert spec.horizon == 7 and spec.alpha == 3.0
    assert [l.leak for l in spec.layers] == [0.5, 0.5]
    # per-layer thresholds come from the tuner, as numpy values
    tuned = apply_candidate(Checkpoint(spec=spec, params={}), np.array([1.5, 0.8]))
    assert [l.v_th for l in tuned.spec.layers] == [1.5, 0.8]
    assert all(type(l.v_th) is float for l in tuned.spec.layers)
    assert [l.leak for l in tuned.spec.layers] == [0.5, 0.5]


def test_build_rejects_bad_overrides():
    with pytest.raises(ValueError):
        build("mlp2", "D-F-BPTT", {"v_th": [1.0, 1.0]})   # the tuner sets thresholds
    with pytest.raises(ValueError):
        build("mlp2", "D-F-BPTT", {"nonsense": 1})
    with pytest.raises(ValueError):
        build("mlp7", "D-F-BPTT")


def test_weight_shape():
    spec = build("lenet5", "D-F-BPTT")
    assert weight_shape(spec.layers[0]) == (6, 1, 5, 5)
    assert weight_shape(spec.layers[4]) == (120, 400)
    with pytest.raises(ShapeError):
        weight_shape(spec.layers[1])


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
        s0, spk0 = det_lif_step(s0, spec.layers[0], x @ params["layer0.w"].T)
        s1, spk1 = det_lif_step(s1, spec.layers[1], spk0 @ params["layer1.w"].T)
        assert np.array_equal(records[0][t], spk0)
        assert np.array_equal(records[1][t], spk1)
    assert tape.traces[1].inputs is records[0]


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
    # a neuron layer's spike train is taped once and read as the next
    # layer's input; a pool layer's output is the next layer's own buffer
    tr = tape.traces
    for i in (1, 3, 5, 6):
        assert tr[i].inputs is tr[i - 1].spikes
    for i in (2, 4):
        assert tr[i - 1].spikes is None
        assert tr[i].inputs.shape[:2] == (2, 2)
        assert not np.shares_memory(tr[i].inputs, tr[i - 2].spikes)


@pytest.mark.parametrize("arch,kind", [("mlp2", "D-F-BPTT"), ("mlp2", "S-F-BPTT"),
                                       ("lenet5", "D-R-BPTT")])
def test_spec_serialization_round_trip(arch, kind):
    spec = build(arch, kind, {"horizon": 9, "alpha": 2.5})
    spec.layers[0].v_th = 1.25
    back = parse_spec(serialize_spec(spec))
    assert back == spec
