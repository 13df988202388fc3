"""Backward-pass estimators and end-to-end gradients against finite differences.

The hard threshold and the Bernoulli draw are not differentiable, so the
end-to-end oracles differentiate a relaxed forward model that (a) agrees with
the recorded forward pass at the evaluation point and (b) has the estimators'
rules as its exact derivatives: spikes become smoothed/probability values plus
a frozen offset, and deterministic resets are frozen at their recorded values.
"""

import tracemalloc

import numpy as np
import pytest

import spikefirst as sf
from spikefirst.bptt import (arctan_surrogate_grad, sign_estimator_backward,
                             smoothed_spike, straight_through_backward)
from spikefirst.coding import fts_ce_loss_batch, ml_loss_batch, rate_ce_loss_batch
from spikefirst.errors import StateError
from spikefirst.network import LayerSpec
from spikefirst.neurons import first_spike_times, sigmoid
from spikefirst.rng import RngStream
from spikefirst.tensor import conv2d, pool2d


def test_surrogate_hand_values():
    # (1/pi) / (1 + (pi * v * alpha / 2)^2) at alpha = 2
    assert arctan_surrogate_grad(np.array(0.0)) == pytest.approx(1 / np.pi)
    assert arctan_surrogate_grad(np.array(1.0)) == pytest.approx(
        (1 / np.pi) / (1 + np.pi**2), abs=1e-12)
    assert arctan_surrogate_grad(np.array(1.0)) == pytest.approx(0.029284, abs=1e-5)


def test_surrogate_symmetric_peaked_at_zero():
    v = np.linspace(-4, 4, 81)
    g = arctan_surrogate_grad(v)
    assert np.allclose(g, g[::-1])
    assert g.argmax() == 40


def test_surrogate_is_derivative_of_smoothed_spike():
    v = np.linspace(-3, 3, 61)
    eps = 1e-6
    fd = (smoothed_spike(v + eps) - smoothed_spike(v - eps)) / (2 * eps)
    assert np.allclose(fd, arctan_surrogate_grad(v), atol=1e-9)


def test_surrogate_alpha_sharpens():
    g1 = arctan_surrogate_grad(np.array(0.5), alpha=1.0)
    g4 = arctan_surrogate_grad(np.array(0.5), alpha=4.0)
    assert g4 < g1                       # larger alpha, narrower bump


def test_sign_estimator_routes_negated_gradient():
    grad_times = np.array([0.4, -0.2, 0.1])
    first = np.array([2.0, 1.0, 3.0])
    out = sign_estimator_backward(grad_times, first, horizon=3)
    assert out.shape == (3, 3)
    expect = np.zeros((3, 3))
    expect[1, 0] = -0.4
    expect[0, 1] = 0.2
    expect[2, 2] = -0.1
    assert np.array_equal(out, expect)


def test_sign_estimator_silent_neuron_routed_to_last_step():
    out = sign_estimator_backward(np.array([0.5]), np.array([5.0]), horizon=4)
    assert out[3, 0] == -0.5
    assert out[:3].sum() == 0.0


def test_sign_estimator_batched():
    grad = np.array([[0.1, 0.2], [0.3, 0.4]])
    first = np.array([[1.0, 2.0], [2.0, 3.0]])
    out = sign_estimator_backward(grad, first, horizon=2)
    assert out.shape == (2, 2, 2)
    assert out[0, 0, 0] == -0.1 and out[1, 0, 1] == -0.2
    assert out[1, 1, 0] == -0.3 and out[1, 1, 1] == -0.4  # silent -> t = T


def test_straight_through_identity():
    g = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(straight_through_backward(g), g)


def test_backward_requires_complete_tape():
    from spikefirst.bptt import Tape
    with pytest.raises(StateError):
        sf.backward(Tape(horizon=2), None)


def _two_layer_spec(model_kind, nin, nh, nout, horizon, **neuron_kw):
    spec = sf.build("mlp2", model_kind, {"hidden": nh, "horizon": horizon})
    neuron = "stoch" if model_kind.startswith("S") else "det"
    spec.layers[0] = LayerSpec(kind="linear", in_features=nin, out_features=nh,
                               neuron=neuron, **neuron_kw)
    spec.layers[1] = LayerSpec(kind="linear", in_features=nh, out_features=nout,
                               neuron=neuron, **neuron_kw)
    return spec


def _fd_check(params, grads, loss_fn, eps=1e-6, tol=1e-5):
    for name in params:
        w = params[name]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            lp = loss_fn()
            w[idx] = orig - eps
            lm = loss_fn()
            w[idx] = orig
            fd = (lp - lm) / (2 * eps)
            g = grads[name][idx]
            assert abs(fd - g) <= tol * max(1.0, abs(fd)), (name, idx, fd, g)


def test_deterministic_end_to_end_gradient():
    horizon, nin, nh, nout, n = 5, 6, 8, 3, 2
    rng = np.random.default_rng(7)
    spec = _two_layer_spec("D-R-BPTT", nin, nh, nout, horizon, leak=0.9, v_th=1.0)
    params = {"layer0.w": rng.normal(size=(nh, nin)) * 0.8,
              "layer1.w": rng.normal(size=(nout, nh)) * 0.8}
    x = rng.uniform(0, 1, size=(n, nin))
    labels = np.array([1, 2])

    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    counts = tape.traces[-1].spikes.sum(axis=0)
    grads = sf.backward(tape, rate_ce_loss_batch(counts, labels))

    tr0, tr1 = tape.traces
    reset0 = (np.concatenate([np.zeros((1, n, nh)), tr0.v[:-1]]) >= 1.0).astype(float)
    reset1 = (np.concatenate([np.zeros((1, n, nout)), tr1.v[:-1]]) >= 1.0).astype(float)
    off0 = tr0.spikes - smoothed_spike(tr0.v - 1.0)
    off1 = tr1.spikes - smoothed_spike(tr1.v - 1.0)

    def relaxed_loss():
        w0, w1 = params["layer0.w"], params["layer1.w"]
        v0 = np.zeros((n, nh))
        v1 = np.zeros((n, nout))
        c = np.zeros((n, nout))
        for t in range(horizon):
            v0 = 0.9 * v0 + x @ w0.T - reset0[t]
            s0 = smoothed_spike(v0 - 1.0) + off0[t]
            v1 = 0.9 * v1 + s0 @ w1.T - reset1[t]
            c = c + smoothed_spike(v1 - 1.0) + off1[t]
        return rate_ce_loss_batch(c, labels).value

    _fd_check(params, grads, relaxed_loss)


@pytest.mark.parametrize("materialise", [False, True])
def test_deterministic_conv_pool_end_to_end_gradient(materialise):
    # conv -> average pool -> linear.  The broadcast input takes the hoisted
    # layer-0 path (drive gradient summed over time, one conv2d_backward);
    # a materialised copy takes the per-step path.
    horizon, n, nout = 5, 2, 3
    spec = sf.NetworkSpec(layers=[
        LayerSpec(kind="conv", in_channels=1, out_channels=2, kernel=3, pad=1,
                  neuron="det", leak=0.9, v_th=1.0),
        LayerSpec(kind="pool", window=2, pool_mode="average"),
        LayerSpec(kind="linear", in_features=8, out_features=nout,
                  neuron="det", leak=0.9, v_th=1.0),
    ], coding="rate", horizon=horizon, model_kind="D-R-BPTT", arch="lenet5")
    rng = np.random.default_rng(9)
    params = {"layer0.w": rng.normal(size=(2, 1, 3, 3)) * 0.8,
              "layer2.w": rng.normal(size=(nout, 8)) * 1.5}
    x = rng.uniform(0, 1, size=(n, 1, 4, 4))
    labels = np.array([0, 2])

    encoded = sf.encode_direct(x, horizon)
    if materialise:
        encoded = np.ascontiguousarray(encoded)
    _, tape = sf.forward(spec, params, encoded)
    assert tape.traces[0].time_constant is not materialise
    counts = tape.traces[-1].spikes.sum(axis=0)
    grads = sf.backward(tape, rate_ce_loss_batch(counts, labels))

    tr0, tr2 = tape.traces[0], tape.traces[2]
    reset0 = (np.concatenate([np.zeros((1,) + tr0.v.shape[1:]), tr0.v[:-1]]) >= 1.0)
    reset2 = (np.concatenate([np.zeros((1, n, nout)), tr2.v[:-1]]) >= 1.0)
    off0 = tr0.spikes - smoothed_spike(tr0.v - 1.0)
    off2 = tr2.spikes - smoothed_spike(tr2.v - 1.0)
    assert 0 < tr0.spikes.mean() < 1 and 0 < tr2.spikes.mean() < 1

    def relaxed_loss():
        w0, w2 = params["layer0.w"], params["layer2.w"]
        v0 = np.zeros(tr0.v.shape[1:])
        v2 = np.zeros((n, nout))
        c = np.zeros((n, nout))
        for t in range(horizon):
            v0 = 0.9 * v0 + conv2d(x, w0, 1, 1) - reset0[t]
            s0 = smoothed_spike(v0 - 1.0) + off0[t]
            v2 = 0.9 * v2 + pool2d(s0, 2).reshape(n, -1) @ w2.T - reset2[t]
            c = c + smoothed_spike(v2 - 1.0) + off2[t]
        return rate_ce_loss_batch(c, labels).value

    _fd_check(params, grads, relaxed_loss)


def test_stochastic_end_to_end_gradient():
    horizon, nin, nh, nout, n = 4, 6, 8, 3, 2
    rng = np.random.default_rng(42)
    spec = _two_layer_spec("S-F-BPTT", nin, nh, nout, horizon, leak=0.7)
    spec.layers[0].k = 1.3
    spec.layers[1].k = 0.8
    params = {"layer0.w": rng.normal(size=(nh, nin)) * 0.5,
              "layer1.w": rng.normal(size=(nout, nh)) * 0.5}
    x = rng.uniform(0, 1, size=(n, nin))
    labels = np.array([0, 2])

    streams = [RngStream(5, 11), RngStream(5, 12)]
    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon), streams)
    loss = ml_loss_batch(np.moveaxis(tape.traces[-1].probs, 0, 1), labels)
    grads = sf.backward(tape, loss)

    off0 = tape.traces[0].spikes - tape.traces[0].probs  # frozen noise offsets

    def relaxed_loss():
        w0, w1 = params["layer0.w"], params["layer1.w"]
        v0 = np.zeros((n, nh))
        v1 = np.zeros((n, nout))
        pouts = []
        for t in range(horizon):
            v0 = (0.7 * v0 + x @ w0.T) / 1.3
            out0 = sigmoid(v0) + off0[t]
            v1 = (0.7 * v1 + out0 @ w1.T) / 0.8
            pouts.append(sigmoid(v1))
        return ml_loss_batch(np.stack(pouts, axis=1), labels).value

    _fd_check(params, grads, relaxed_loss)


def test_stochastic_end_to_end_gradient_fused_logits():
    # the trainer's path: loss gradient enters at the output membrane
    # potential instead of the probability table; must agree with finite
    # differences of the same relaxed forward model
    from spikefirst.coding import ml_loss_logits_batch
    horizon, nin, nh, nout, n = 4, 6, 8, 3, 2
    rng = np.random.default_rng(43)
    spec = _two_layer_spec("S-F-BPTT", nin, nh, nout, horizon, leak=0.7)
    spec.layers[0].k = 1.3
    spec.layers[1].k = 0.8
    params = {"layer0.w": rng.normal(size=(nh, nin)) * 0.5,
              "layer1.w": rng.normal(size=(nout, nh)) * 0.5}
    x = rng.uniform(0, 1, size=(n, nin))
    labels = np.array([0, 2])

    streams = [RngStream(6, 11), RngStream(6, 12)]
    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon), streams)
    loss = ml_loss_logits_batch(np.moveaxis(tape.traces[-1].v, 0, 1), labels)
    grads = sf.backward(tape, loss)

    off0 = tape.traces[0].spikes - tape.traces[0].probs  # frozen noise offsets

    def relaxed_loss():
        w0, w1 = params["layer0.w"], params["layer1.w"]
        v0 = np.zeros((n, nh))
        v1 = np.zeros((n, nout))
        vouts = []
        for t in range(horizon):
            v0 = (0.7 * v0 + x @ w0.T) / 1.3
            out0 = sigmoid(v0) + off0[t]
            v1 = (0.7 * v1 + out0 @ w1.T) / 0.8
            vouts.append(v1)
        return ml_loss_logits_batch(np.stack(vouts, axis=1), labels).value

    _fd_check(params, grads, relaxed_loss)


def test_fts_backward_only_touches_first_spike_steps():
    # the sign estimator must leave every non-first-spike timestep of the
    # output layer without direct loss gradient
    horizon, nin, nh, nout = 4, 5, 6, 3
    rng = np.random.default_rng(1)
    spec = _two_layer_spec("D-F-BPTT", nin, nh, nout, horizon, leak=0.9, v_th=1.0)
    params = {"layer0.w": rng.normal(size=(nh, nin)),
              "layer1.w": rng.normal(size=(nout, nh))}
    x = rng.uniform(0, 1, size=(2, nin))
    from spikefirst.coding import fts_ce_loss_batch
    from spikefirst.neurons import first_spike_times

    records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    times = first_spike_times(records[-1])
    loss = fts_ce_loss_batch(times, np.array([0, 1]))
    grads = sf.backward(tape, loss)
    assert set(grads) == {"layer0.w", "layer1.w"}
    assert all(np.isfinite(g).all() for g in grads.values())


def test_backward_conv_pool_network_shapes():
    # a small conv->pool->linear stack: gradients must match weight shapes
    rng = np.random.default_rng(2)
    horizon = 3
    spec = sf.build("lenet5", "D-F-BPTT", {"horizon": horizon})
    params = sf.init_params(spec, RngStream(0, 1))
    x = rng.uniform(0, 1, size=(2, 1, 28, 28))
    records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    counts = records[-1].sum(axis=0)
    grads = sf.backward(tape, rate_ce_loss_batch(counts, np.array([3, 7])))
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert np.isfinite(g).all()


@pytest.mark.parametrize("arch,overrides,n", [("mlp2", {"hidden": 800}, 64),
                                              ("lenet5", {}, 16)])
def test_backward_peak_memory_is_bounded_by_membrane_tape(arch, overrides, n):
    # the per-step loops make no whole-horizon temporaries: besides the
    # (T, N, ...) drive and spike gradients, backward allocates little
    horizon = 20
    spec = sf.build(arch, "D-F-BPTT", {"horizon": horizon, **overrides})
    params = {k: 4.0 * w for k, w in sf.init_params(spec, RngStream(0, 1)).items()}
    x = np.random.default_rng(3).uniform(0, 1, size=(n, 1, 28, 28))
    records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    loss = fts_ce_loss_batch(first_spike_times(records[-1]), np.arange(n) % 10)
    largest_v = max(tr.v.nbytes for tr in tape.traces if tr.v is not None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sf.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * largest_v, f"backward peak {peak / largest_v:.2f}x the largest v tape"
