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
from spikefirst.bptt import (_arctan_surrogate_in_place, sign_estimator_backward,
                             synaptic_backward)
from spikefirst.coding import fts_ce_loss_batch, ml_loss_logits_batch, rate_ce_loss_batch
from spikefirst.network import LayerSpec
from spikefirst.neurons import first_spike_times, sigmoid
from spikefirst.rng import RngStream
from spikefirst.tensor import conv2d, pool2d
from spikefirst.train import _batch_loss

import oracles
from oracles import smoothed_spike


def surrogate(v):
    """The backward pass's arctan surrogate at ``v``, computed as the sweep
    computes it: in place, over a copy of ``v`` multiplied by pi."""
    return _arctan_surrogate_in_place(np.multiply(np.pi, v, out=np.empty(np.shape(v))))


def test_surrogate_hand_values():
    # (1/pi) / (1 + (pi * v * alpha / 2)^2) at alpha = 2
    assert surrogate(0.0) == pytest.approx(1 / np.pi)
    assert surrogate(1.0) == pytest.approx((1 / np.pi) / (1 + np.pi**2), abs=1e-12)
    assert surrogate(1.0) == pytest.approx(0.029284, abs=1e-5)


def test_surrogate_symmetric_peaked_at_zero():
    v = np.linspace(-4, 4, 81)
    g = surrogate(v)
    assert np.allclose(g, g[::-1])
    assert g.argmax() == 40


def test_surrogate_is_derivative_of_smoothed_spike():
    v = np.linspace(-3, 3, 61)
    eps = 1e-6
    fd = (smoothed_spike(v + eps) - smoothed_spike(v - eps)) / (2 * eps)
    assert np.allclose(fd, surrogate(v), atol=1e-9)


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


def _two_layer_spec(model_kind, nin, nh, nout, horizon, **neuron_kw):
    spec = sf.build("mlp2", model_kind, {"hidden": nh, "horizon": horizon})
    spec.layers[0] = LayerSpec(kind="linear", in_features=nin, out_features=nh, **neuron_kw)
    spec.layers[1] = LayerSpec(kind="linear", in_features=nh, out_features=nout, **neuron_kw)
    return spec


def _weight_grads(tape, g_top):
    """Every weight gradient of one tape: ``backward``'s, with layer 0's drive
    gradient summed over time turned into its weight gradient, as ``train``
    does once per batch."""
    grads, g_drive0 = sf.backward(tape, g_top)
    tr = tape.traces[0]
    _, grads[tr.wname] = synaptic_backward(tr.layer, tr.weight, g_drive0, tr.inputs,
                                           need_input=False)
    return grads


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
    grads = _weight_grads(tape, _batch_loss(spec, tape, labels)[1])

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
                  leak=0.9, v_th=1.0),
        LayerSpec(kind="pool", window=2, pool_mode="average"),
        LayerSpec(kind="linear", in_features=8, out_features=nout,
                  leak=0.9, v_th=1.0),
    ], horizon=horizon, model_kind="D-R-BPTT", arch="lenet5")
    rng = np.random.default_rng(9)
    params = {"layer0.w": rng.normal(size=(2, 1, 3, 3)) * 0.8,
              "layer2.w": rng.normal(size=(nout, 8)) * 1.5}
    x = rng.uniform(0, 1, size=(n, 1, 4, 4))
    labels = np.array([0, 2])

    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    assert tape.traces[0].inputs.shape == x.shape
    grads = _weight_grads(tape, _batch_loss(spec, tape, labels)[1])

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
    grads = _weight_grads(tape, _batch_loss(spec, tape, labels)[1])

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
                  leak=0.7, k=1.3),
        LayerSpec(kind="conv", in_channels=2, out_channels=2, kernel=3, pad=1,
                  leak=0.7, k=0.9),
        LayerSpec(kind="pool", window=2, pool_mode="max"),
        LayerSpec(kind="linear", in_features=8, out_features=3, leak=0.7, k=0.8),
    ], horizon=horizon, model_kind="S-F-BPTT", arch="vgg15")


def _df_pool_spec(horizon, *pools):
    # conv -> the given pool layers -> linear, deterministic, on 6x6 or 8x8
    # inputs: the pool layers whose output must stay float64 on the tape
    return sf.NetworkSpec(layers=[
        LayerSpec(kind="conv", in_channels=1, out_channels=2, kernel=3, pad=1),
        *(LayerSpec(kind="pool", window=w, pool_mode=mode) for w, mode in pools),
        LayerSpec(kind="linear", in_features=8, out_features=3),
    ], horizon=horizon, model_kind="D-F-BPTT", arch="lenet5")


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
    loss, g_top = _batch_loss(spec, tape, labels)
    grads = _weight_grads(tape, g_top)

    tr0, tr1 = tape.traces[0], tape.traces[1]
    assert tr0.spikes.dtype == np.uint8     # the conv layer 1 reads
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

    assert relaxed_loss() == pytest.approx(loss, rel=1e-12)
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

    records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    _, g_top = _batch_loss(spec, tape, np.array([0, 1]))
    steps = np.minimum(first_spike_times(records[-1]), horizon).astype(int) - 1
    assert g_top.shape == (horizon, 2, nout)
    assert np.all(g_top[steps != np.arange(horizon)[:, None, None]] == 0.0)
    grads, g_drive0 = sf.backward(tape, g_top)
    assert set(grads) == {"layer1.w"}
    assert all(np.isfinite(g).all() for g in [g_drive0, *grads.values()])


def test_backward_conv_pool_network_shapes():
    # a small conv->pool->linear stack: gradients must match weight shapes
    rng = np.random.default_rng(2)
    horizon = 3
    spec = sf.build("lenet5", "D-F-BPTT", {"horizon": horizon})
    params = sf.init_params(spec, RngStream(0, 1))
    x = rng.uniform(0, 1, size=(2, 1, 28, 28))
    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon))
    grads = _weight_grads(tape, _batch_loss(spec, tape, np.array([3, 7]))[1])
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
    streams = None
    if model_kind.startswith("S"):
        streams = [RngStream(0, 10 + i) for i in range(len(spec.neuron_layers()))]
    else:
        params = {k: 4.0 * w for k, w in params.items()}
    _, tape = sf.forward(spec, params, sf.encode_direct(x, horizon), streams)
    _, g_top = _batch_loss(spec, tape, labels)
    largest_v = max(tr.v.nbytes for tr in tape.traces if tr.v is not None)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sf.backward(tape, g_top)
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
    """A small network of ``kind`` (D-F, D-R, S-F, S-F conv, D-F lenet5,
    D-F avg3 or D-F pool pool) run on ``n`` samples: its spec, spike
    records, tape and labels."""
    rng = np.random.default_rng(21)
    horizon = 4
    labels = np.arange(n) % 3
    streams = None if kind.startswith("D") else [RngStream(4, 30 + i) for i in range(3)]
    if kind == "D-F lenet5":
        # weights scaled up so that every layer spikes
        spec = sf.build("lenet5", "D-F-BPTT", {"horizon": horizon})
        params = {k: w * 4.0 for k, w in sf.init_params(spec, RngStream(3, 0)).items()}
        x = rng.uniform(size=(n, 1, 28, 28)) * (rng.uniform(size=(n, 1, 28, 28)) < 0.3)
    elif kind == "S-F conv":
        spec = _sf_conv_spec(horizon)
        params = {"layer0.w": rng.normal(size=(2, 1, 3, 3)),
                  "layer1.w": rng.normal(size=(2, 2, 3, 3)),
                  "layer3.w": rng.normal(size=(3, 8))}
        x = rng.uniform(size=(n, 1, 4, 4))
    elif kind in ("D-F avg3", "D-F pool pool"):
        # a 3x3 average pool of 6x6 maps, or a 2x2 max pool of 8x8 maps
        # and a 2x2 average pool of that
        if kind == "D-F avg3":
            pools, hw = [(3, "average")], 6
        else:
            pools, hw = [(2, "max"), (2, "average")], 8
        spec = _df_pool_spec(horizon, *pools)
        params = {"layer0.w": rng.normal(size=(2, 1, 3, 3)) * 1.5,
                  f"layer{len(pools) + 1}.w": rng.normal(size=(3, 8)) * 1.5}
        x = rng.uniform(size=(n, 1, hw, hw))
    else:
        spec = _two_layer_spec(kind + "-BPTT", 6, 8, 3, horizon,
                               leak=0.7 if kind == "S-F" else 0.9)
        params = {"layer0.w": rng.normal(size=(8, 6)) * 1.5,
                  "layer1.w": rng.normal(size=(3, 8)) * 1.5}
        x = rng.uniform(size=(n, 6))
    records, tape = sf.forward(spec, params, sf.encode_direct(x, horizon), streams)
    return spec, records, tape, labels


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind", ["D-F", "D-R", "S-F", "S-F conv"],
                         ids=["D-F-fts", "D-R-rate", "S-F-ml-v", "S-F conv-ml-v"])
def test_backward_writes_nothing_it_is_given(kind, n):
    # the reverse sweep adds into gradient buffers in place, so it must own
    # them: the time-major ml-v gradient it reads is a view of the loss's
    # gradient, and the rate gradient is one step's array broadcast over time
    spec, _, tape, labels = _taped_net(kind, n)
    _, g_top = _batch_loss(spec, tape, labels)
    given = [("g_top", g_top)] + [
        (f"layer{i}.{name}", getattr(tr, name)) for i, tr in enumerate(tape.traces)
        for name in ("inputs", "weight", "v", "spikes", "probs")
        if getattr(tr, name) is not None]
    before = [a.tobytes() for _, a in given]
    sf.backward(tape, g_top)
    for (name, a), b in zip(given, before):
        assert a.tobytes() == b, f"backward wrote into {name}"


# the tape dtype of each pool layer, in order: the narrowest that holds its
# outputs exactly, 0/1 after a max pool of spikes and k/4 after a 2x2
# average pool of spikes, float64 for k/9 and for a pool of a pool
_POOL_TAPE_DTYPES = {"D-F": [], "S-F": [], "S-F conv": [np.uint8],
                     "D-F lenet5": [np.float32, np.float32], "D-F avg3": [np.float64],
                     "D-F pool pool": [np.uint8, np.float64]}


@pytest.mark.parametrize("kind", list(_POOL_TAPE_DTYPES))
def test_tape_records_only_what_backward_reads(kind):
    _, records, tape, _ = _taped_net(kind)
    traces = tape.traces
    last = len(traces) - 1
    neuron = [tr for tr in traces if tr.layer.kind != "pool"]
    assert len(records) == len(neuron)
    assert all(r is tr.spikes for r, tr in zip(records, neuron))
    # every array is taped under one name: layer i reads layer i-1's output
    # where that layer recorded it, and only layer 0 holds an input, the image
    taped = [a for tr in traces for a in (tr.inputs, tr.v, tr.spikes, tr.probs)
             if a is not None]
    assert len({id(a) for a in taped}) == len(taped)
    assert not any(np.may_share_memory(a, b)
                   for j, a in enumerate(taped) for b in taped[j + 1:])
    assert traces[0].inputs.dtype == np.float64
    assert all(tr.inputs is None for tr in traces[1:])
    pools = [tr for tr in traces if tr.layer.kind == "pool"]
    assert [tr.spikes.dtype for tr in pools] == _POOL_TAPE_DTYPES[kind]
    for i, tr in enumerate(traces):
        if tr.layer.kind == "pool":
            # its output is the pooled output of the layer before, bit for
            # bit once cast to float64
            assert tr.v is None and tr.probs is None
            for t in range(tape.horizon):
                pooled = pool2d(traces[i - 1].spikes[t], tr.layer.window, tr.layer.pool_mode)
                assert tr.spikes[t].astype(np.float64).tobytes() == pooled.tobytes(), t
            if kind == "D-F avg3":
                # some k/9 on the tape has no float32 double
                assert (tr.spikes.astype(np.float32) != tr.spikes).any()
            continue
        assert tr.spikes.dtype == np.uint8
        assert set(np.unique(tr.spikes)) <= {0, 1}
        # backward reads probs of hidden stochastic layers, v of the rest
        hidden_stoch = tape.neuron == "stoch" and i < last
        kept = tr.probs if hidden_stoch else tr.v
        assert (tr.v is None) == hidden_stoch and (tr.probs is None) != hidden_stoch
        assert kept.dtype == np.float64 and kept.shape == tr.spikes.shape


def test_lenet5_block_tape_bytes():
    # one 16-row D-F lenet5 training block at T=20: per sample-step, 9 bytes
    # a neuron (uint8 spikes, float64 v) over 4704 + 1600 + 120 + 84 + 10
    # neurons and 4 bytes a pooled value (float32 k/4) over 1176 + 400, and
    # the float64 image once per row: 20 * 16 * 64966 + 16 * 784 * 8 bytes
    spec = sf.build("lenet5", "D-F-BPTT")
    n = sf.network.block_rows(spec, (28, 28))
    params = sf.init_params(spec, RngStream(0, 0))
    x = np.random.default_rng(6).uniform(size=(n, 1, 28, 28))
    _, tape = sf.forward(spec, params, sf.encode_direct(x, spec.horizon))
    taped = {id(a): a for tr in tape.traces
             for a in (tr.inputs, tr.v, tr.spikes, tr.probs) if a is not None}
    assert (n, spec.horizon) == (16, 20)
    assert sum(a.nbytes for a in taped.values()) == 20_889_472


@pytest.mark.parametrize("kind", ["D-F", "S-F", "S-F conv"])
def test_uint8_spike_tape_gives_bit_identical_gradients(kind):
    spec, _, tape, labels = _taped_net(kind)
    _, g_top = _batch_loss(spec, tape, labels)
    taped = [None if tr.spikes is None else tr.spikes.copy() for tr in tape.traces]
    grads, g_drive0 = sf.backward(tape, g_top)
    # backward reads a cast copy of a spike step, never writes into the tape
    for tr, before in zip(tape.traces, taped):
        assert before is None or np.array_equal(tr.spikes, before)
    for tr in tape.traces:
        tr.spikes = tr.spikes.astype(np.float64)
    wide, wide_drive0 = sf.backward(tape, g_top)
    assert set(grads) == set(wide)
    assert np.array_equal(g_drive0, wide_drive0)
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
        sf.backward(tape, _batch_loss(spec, tape, np.arange(n) % 10)[1])
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


def _assert_same_gradients(spec, tape, labels):
    # the trainer's loss and output gradient, and the sweep, against the
    # reference output gradient of the model kind's loss and the reference
    # sweep
    out = tape.traces[-1]
    if spec.model_kind == "S-F-BPTT":
        loss = ml_loss_logits_batch(np.moveaxis(out.v, 0, 1), labels)
    elif spec.model_kind == "D-R-BPTT":
        loss = rate_ce_loss_batch(out.spikes.sum(axis=0), labels)
    else:
        loss = fts_ce_loss_batch(first_spike_times(out.spikes), labels)
    want_g_top = oracles.output_gradient(tape, loss, spec.model_kind)
    value, g_top = _batch_loss(spec, tape, labels)
    assert value == loss.value
    assert g_top.shape == want_g_top.shape and g_top.tobytes() == want_g_top.tobytes()
    grads, g_drive0 = sf.backward(tape, g_top)
    want, want_drive0 = oracles.backward(tape, want_g_top)
    assert g_drive0.tobytes() == want_drive0.tobytes()
    assert set(grads) == set(want)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind", ["D-F", "D-R", "S-F", "S-F conv", "D-F avg3", "D-F pool pool"])
def test_backward_is_bit_identical_to_reference(kind, n):
    # the sweep reuses its per-step buffers but keeps every operation, its
    # operands and their order: gradients equal the reference bit for bit
    spec, _, tape, labels = _taped_net(kind, n)
    _assert_same_gradients(spec, tape, labels)


@pytest.mark.parametrize("model_kind,arch,overrides,n",
                         [("D-F-BPTT", "mlp2", {"hidden": 800}, 64),
                          ("S-F-BPTT", "mlp2", {"hidden": 800}, 64),
                          ("D-F-BPTT", "lenet5", {}, 8),
                          ("D-R-BPTT", "mlp2", {"hidden": 800}, 64)])
def test_training_step_gradients_are_bit_identical_to_reference(model_kind, arch,
                                                                overrides, n):
    # one row block of a training step: train runs mlp2-800 in 64-row and
    # lenet5 in 16-row blocks, each through forward, _batch_loss and backward
    spec = sf.build(arch, model_kind, overrides)
    params = sf.init_params(spec, RngStream(0, 1))
    x = np.random.default_rng(5).uniform(0, 1, size=(n, 1, 28, 28))
    labels = np.arange(n) % 10
    encoded = sf.encode_direct(x, spec.horizon)
    streams = None
    if model_kind.startswith("S"):
        streams = [RngStream(0, 10 + i) for i in range(len(spec.neuron_layers()))]
    else:
        params = {k: 4.0 * w for k, w in params.items()}
    _, tape = sf.forward(spec, params, encoded, streams)
    _assert_same_gradients(spec, tape, labels)


@pytest.mark.parametrize("v", [1.5, np.float64(-2.0), np.array(0.0),
                               np.random.default_rng(2).normal(0.0, 3.0, size=(5, 7))],
                         ids=["float", "float64", "0-d", "array"])
def test_surrogate_is_bit_identical_to_reference(v):
    # five steps in one buffer; scalars and 0-d arrays still work
    before = np.copy(v)
    got = surrogate(v)
    want = oracles.arctan_surrogate_grad(v)
    assert np.shape(got) == np.shape(v) and got.tobytes() == np.asarray(want).tobytes()
    assert np.array_equal(v, before)
