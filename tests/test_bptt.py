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
from spikefirst.bptt import arctan_surrogate_grad, sign_estimator_backward
from spikefirst.coding import (LossValue, fts_ce_loss_batch, ml_loss_logits_batch,
                               rate_ce_loss_batch)
from spikefirst.errors import StateError
from spikefirst.network import LayerSpec
from spikefirst.neurons import first_spike_times, sigmoid
from spikefirst.rng import RngStream
from spikefirst.tensor import conv2d, pool2d

from oracles import smoothed_spike


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


def test_deterministic_conv_pool_end_to_end_gradient():
    # conv -> average pool -> linear.  Layer 0's drive gradient is summed over
    # time and turned into its weight gradient by one conv2d_backward.
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

    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    assert tape.traces[0].inputs.shape == x.shape
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


def test_stochastic_end_to_end_gradient_fused_logits():
    # the trainer's path: the loss gradient enters at the output membrane
    # potential; hidden spikes are their probabilities plus frozen noise
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


def _sf_conv_spec(horizon):
    # conv -> conv -> max pool -> linear, all stochastic: the VGG pattern
    return sf.NetworkSpec(layers=[
        LayerSpec(kind="conv", in_channels=1, out_channels=2, kernel=3, pad=1,
                  neuron="stoch", leak=0.7, k=1.3),
        LayerSpec(kind="conv", in_channels=2, out_channels=2, kernel=3, pad=1,
                  neuron="stoch", leak=0.7, k=0.9),
        LayerSpec(kind="pool", window=2, pool_mode="max"),
        LayerSpec(kind="linear", in_features=8, out_features=3,
                  neuron="stoch", leak=0.7, k=0.8),
    ], coding="first-to-spike", horizon=horizon, model_kind="S-F-BPTT", arch="vgg15")


def _windows(a):
    # (..., C, H, W) -> (..., C, H/2, W/2, 4): each 2x2 window, row-major, as
    # pool2d_backward orders it
    *lead, c, h, w = a.shape
    a = a.reshape(*lead, c, h // 2, 2, w // 2, 2)
    return np.moveaxis(a, -3, -2).reshape(*lead, c, h // 2, w // 2, 4)


def test_stochastic_conv_max_pool_end_to_end_gradient():
    # stochastic conv backward on uint8 spike inputs and max-pool backward.
    # The relaxed model freezes the noise offsets (spikes - probs) and the
    # max-pool routing, the first-occurrence argmax of the taped spikes.
    horizon, n, nout = 4, 2, 3
    spec = _sf_conv_spec(horizon)
    rng = np.random.default_rng(12)
    params = {"layer0.w": rng.normal(size=(2, 1, 3, 3)) * 0.8,
              "layer1.w": rng.normal(size=(2, 2, 3, 3)) * 0.8,
              "layer3.w": rng.normal(size=(nout, 8)) * 0.8}
    x = rng.uniform(0, 1, size=(n, 1, 4, 4))
    labels = np.array([1, 2])

    streams = [RngStream(8, 20 + i) for i in range(3)]
    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon), streams)
    loss = ml_loss_logits_batch(np.moveaxis(tape.traces[-1].v, 0, 1), labels)
    grads = sf.backward(tape, loss)

    tr0, tr1 = tape.traces[0], tape.traces[1]
    assert tr1.inputs.dtype == np.uint8
    off0 = tr0.spikes - tr0.probs        # frozen noise offsets
    off1 = tr1.spikes - tr1.probs
    route = _windows(tr1.spikes).argmax(axis=-1)[..., None]   # frozen routing
    assert 0 < tr0.spikes.mean() < 1 and 0 < tr1.spikes.mean() < 1
    assert (route > 0).any()

    def relaxed_loss():
        w0, w1, w3 = params["layer0.w"], params["layer1.w"], params["layer3.w"]
        v0 = np.zeros(tr0.spikes.shape[1:])
        v1 = np.zeros(tr1.spikes.shape[1:])
        v3 = np.zeros((n, nout))
        vouts = []
        for t in range(horizon):
            v0 = (0.7 * v0 + conv2d(x, w0, 1, 1)) / 1.3
            s0 = sigmoid(v0) + off0[t]
            v1 = (0.7 * v1 + conv2d(s0, w1, 1, 1)) / 0.9
            s1 = sigmoid(v1) + off1[t]
            pooled = np.take_along_axis(_windows(s1), route[t], axis=-1)
            v3 = (0.7 * v3 + pooled.reshape(n, -1) @ w3.T) / 0.8
            vouts.append(v3)
        return ml_loss_logits_batch(np.stack(vouts, axis=1), labels).value

    assert relaxed_loss() == pytest.approx(loss.value, rel=1e-12)
    _fd_check(params, grads, relaxed_loss)


def test_stochastic_output_layer_takes_only_fused_loss():
    horizon, n = 3, 2
    spec = _two_layer_spec("S-F-BPTT", 6, 8, 3, horizon, leak=0.7)
    rng = np.random.default_rng(5)
    params = {"layer0.w": rng.normal(size=(8, 6)), "layer1.w": rng.normal(size=(3, 8))}
    streams = [RngStream(1, 0), RngStream(1, 1)]
    records, tape = sf.forward(spec, params, sf.encode_direct(rng.uniform(size=(n, 6)), horizon),
                               streams)
    labels = np.array([0, 1])
    # "ml" is the probability-table form of the ML loss (oracles.ml_loss)
    for loss in (LossValue(0.0, np.full((n, horizon, 3), 0.5), kind="ml"),
                 fts_ce_loss_batch(first_spike_times(records[-1]), labels),
                 rate_ce_loss_batch(records[-1].sum(axis=0), labels)):
        with pytest.raises(StateError, match="ml-v"):
            sf.backward(tape, loss)


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


def _backward_peak(model_kind, arch, overrides, n, horizon=20):
    """``tracemalloc`` peak of one ``backward`` (D-F or S-F) and the largest
    taped ``v``, in bytes."""
    spec = sf.build(arch, model_kind, {"horizon": horizon, **overrides})
    params = sf.init_params(spec, RngStream(0, 1))
    x = np.random.default_rng(3).uniform(0, 1, size=(n, 1, 28, 28))
    labels = np.arange(n) % 10
    if model_kind.startswith("S"):
        streams = [RngStream(0, 10 + i) for i in range(len(spec.neuron_layers()))]
        _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon), streams)
        loss = ml_loss_logits_batch(np.moveaxis(tape.traces[-1].v, 0, 1), labels)
    else:
        params = {k: 4.0 * w for k, w in params.items()}
        records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
        loss = fts_ce_loss_batch(first_spike_times(records[-1]), labels)
    largest_v = max(tr.v.nbytes for tr in tape.traces if tr.v is not None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sf.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, largest_v


def _df_backward_peak_ratio(arch, overrides, n):
    """Peak memory of one D-F ``backward`` over the largest taped ``v``."""
    peak, largest_v = _backward_peak("D-F-BPTT", arch, overrides, n)
    return peak / largest_v


_DF_NETS = [("mlp2", {"hidden": 800}, 64), ("lenet5", {}, 16)]


@pytest.mark.parametrize("arch,overrides,n", _DF_NETS)
def test_backward_peak_memory_is_bounded_by_membrane_tape(arch, overrides, n):
    # the per-step loops make no whole-horizon temporaries
    ratio = _df_backward_peak_ratio(arch, overrides, n)
    assert ratio <= 4, f"backward peak {ratio:.2f}x the largest v tape"


@pytest.mark.parametrize("arch,overrides,n", _DF_NETS)
def test_in_place_backward_peak_memory(arch, overrides, n):
    # backward allocates no (T, N, ...) gradient buffer, so its peak stays
    # well below the membrane tape it reads
    ratio = _df_backward_peak_ratio(arch, overrides, n)
    assert ratio <= 2.2, f"backward peak {ratio:.2f}x the largest v tape"


@pytest.mark.parametrize("model_kind,arch,overrides,n",
                         [("D-F-BPTT",) + net for net in _DF_NETS]
                         + [("S-F-BPTT", "mlp2", {"hidden": 800}, 64)])
def test_backward_peak_memory_does_not_grow_with_horizon(model_kind, arch, overrides, n):
    # the time-major sweep passes one step's (N, ...) gradient from layer to
    # layer and keeps one (N, ...) carry per neuron layer: only the small
    # (T, N, n_out) loss gradient grows with T
    short, _ = _backward_peak(model_kind, arch, overrides, n, horizon=10)
    long, _ = _backward_peak(model_kind, arch, overrides, n, horizon=40)
    assert long <= 1.1 * short, (f"backward peak {short / 2**20:.2f} MiB at T=10, "
                                 f"{long / 2**20:.2f} MiB at T=40")


def _taped_net(kind, n=3):
    """A small network of ``kind`` (D-F, D-R, S-F or S-F conv) run on ``n``
    samples, its tape and loss."""
    rng = np.random.default_rng(21)
    horizon = 4
    labels = np.arange(n) % 3
    streams = None if kind.startswith("D") else [RngStream(4, 30 + i) for i in range(3)]
    if kind == "S-F conv":
        spec = _sf_conv_spec(horizon)
        params = {"layer0.w": rng.normal(size=(2, 1, 3, 3)),
                  "layer1.w": rng.normal(size=(2, 2, 3, 3)),
                  "layer3.w": rng.normal(size=(3, 8))}
        x = rng.uniform(size=(n, 1, 4, 4))
    else:
        spec = _two_layer_spec(kind + "-BPTT", 6, 8, 3, horizon,
                               leak=0.7 if kind == "S-F" else 0.9)
        params = {"layer0.w": rng.normal(size=(8, 6)) * 1.5,
                  "layer1.w": rng.normal(size=(3, 8)) * 1.5}
        x = rng.uniform(size=(n, 6))
    records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon), streams)
    if spec.model_kind.startswith("S"):
        loss = ml_loss_logits_batch(np.moveaxis(tape.traces[-1].v, 0, 1), labels)
    elif kind == "D-R":
        loss = rate_ce_loss_batch(records[-1].sum(axis=0), labels)
    else:
        loss = fts_ce_loss_batch(first_spike_times(records[-1]), labels)
    return records, tape, loss


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind,loss_kind", [("D-F", "fts"), ("D-R", "rate"),
                                            ("S-F", "ml-v"), ("S-F conv", "ml-v")])
def test_backward_writes_nothing_it_is_given(kind, loss_kind, n):
    # the reverse sweep adds into gradient buffers in place, so it must own
    # them: the time-major ml-v gradient it reads is a view of loss.grad
    _, tape, loss = _taped_net(kind, n)
    assert loss.kind == loss_kind
    given = [("loss.grad", loss.grad)] + [
        (f"layer{i}.{name}", getattr(tr, name)) for i, tr in enumerate(tape.traces)
        for name in ("inputs", "weight", "v", "spikes", "probs")
        if getattr(tr, name) is not None]
    before = [a.tobytes() for _, a in given]
    sf.backward(tape, loss)
    for (name, a), b in zip(given, before):
        assert a.tobytes() == b, f"backward wrote into {name}"


@pytest.mark.parametrize("kind", ["D-F", "S-F", "S-F conv"])
def test_tape_records_only_what_backward_reads(kind):
    records, tape, _ = _taped_net(kind)
    traces = tape.traces
    last = len(traces) - 1
    neuron = [tr for tr in traces if tr.layer.neuron != "none"]
    assert len(records) == len(neuron)
    assert all(r is tr.spikes for r, tr in zip(records, neuron))
    for i, tr in enumerate(traces):
        if i > 0 and traces[i - 1].layer.neuron != "none":
            assert tr.inputs is traces[i - 1].spikes         # shared, uint8
        else:
            assert tr.inputs.dtype == np.float64             # image or pooled input
        if tr.layer.neuron == "none":
            assert tr.v is None and tr.spikes is None and tr.probs is None
            continue
        assert tr.spikes.dtype == np.uint8
        assert set(np.unique(tr.spikes)) <= {0, 1}
        # backward reads probs of hidden stochastic layers, v of the rest
        hidden_stoch = tr.layer.neuron == "stoch" and i < last
        kept = tr.probs if hidden_stoch else tr.v
        assert (tr.v is None) == hidden_stoch and (tr.probs is None) != hidden_stoch
        assert kept.dtype == np.float64 and kept.shape == tr.spikes.shape


@pytest.mark.parametrize("kind", ["D-F", "S-F", "S-F conv"])
def test_uint8_spike_tape_gives_bit_identical_gradients(kind):
    _, tape, loss = _taped_net(kind)
    taped = [None if tr.spikes is None else tr.spikes.copy() for tr in tape.traces]
    grads = sf.backward(tape, loss)
    # backward reads a cast copy of a spike step, never writes into the tape
    for tr, before in zip(tape.traces, taped):
        assert before is None or np.array_equal(tr.spikes, before)
    for i, tr in enumerate(tape.traces):
        if tr.spikes is not None:
            tr.spikes = tr.spikes.astype(np.float64)
        if i > 0 and tape.traces[i - 1].spikes is not None:
            tr.inputs = tape.traces[i - 1].spikes
    wide = sf.backward(tape, loss)
    assert set(grads) == set(wide)
    for name in grads:
        assert np.array_equal(grads[name], wide[name]), name


def _sf_forward_backward_peak_ratio():
    """Peak memory of S-F mlp2 forward + loss + backward over one
    (T, N, hidden) float64 buffer."""
    horizon, n, hidden = 20, 64, 800
    spec = sf.build("mlp2", "S-F-BPTT", {"hidden": hidden, "horizon": horizon})
    params = sf.init_params(spec, RngStream(0, 1))
    x = np.random.default_rng(3).uniform(0, 1, size=(n, 1, 28, 28))
    encoded = sf.encode_direct(x, horizon)
    streams = [RngStream(0, 10), RngStream(0, 11)]
    unit = horizon * n * hidden * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, tape = sf.forward(spec, params, encoded, streams)
        loss = ml_loss_logits_batch(np.moveaxis(tape.traces[-1].v, 0, 1), np.arange(n) % 10)
        sf.backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / unit


def test_stochastic_forward_backward_peak_memory_is_bounded():
    # S-F mlp2 tapes uint8 spikes, the hidden layer's probs and the output
    # layer's v: forward + loss + backward stay within five (T, N, hidden)
    # float64 buffers
    ratio = _sf_forward_backward_peak_ratio()
    assert ratio <= 5, f"forward + backward peak {ratio:.2f}x one (T, N, hidden) buffer"


def test_stochastic_in_place_forward_backward_peak_memory():
    # backward adds no (T, N, hidden) gradient buffer to the forward's tape
    ratio = _sf_forward_backward_peak_ratio()
    assert ratio <= 3.5, f"forward + backward peak {ratio:.2f}x one (T, N, hidden) buffer"
