"""LIF step dynamics against hand-computed trajectories."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefirst.errors import ParameterError, ShapeError
from spikefirst.network import LayerSpec
from spikefirst.neurons import (LayerState, det_lif_step, first_spike_times,
                                sigmoid, stoch_lif_step)
from spikefirst.rng import RngStream, rng_uniform

import oracles


def det(v_th=1.0, leak=0.9):
    return LayerSpec(kind="linear", in_features=1, out_features=1, v_th=v_th, leak=leak)


def stoch(k=1.0, leak=0.7):
    return LayerSpec(kind="linear", in_features=1, out_features=1, k=k, leak=leak)


def rest(shape):
    return LayerState(v=np.zeros(shape))


def run_det(drives, layer):
    state = rest(np.shape(drives[0]))
    vs, spikes = [], []
    for d in drives:
        s = det_lif_step(state, layer, np.asarray(d, dtype=float))
        vs.append(state.v.copy())
        spikes.append(s.copy())
    return np.array(vs), np.array(spikes)


def test_det_lif_constant_drive_trajectory():
    # leak 0.9, v_th 1: v = 0.6, 1.14 (spike), 0.626, 1.1634 (spike), 0.64706
    layer = det(v_th=1.0, leak=0.9)
    vs, spikes = run_det([[0.6]] * 5, layer)
    assert np.allclose(vs[:, 0], [0.6, 1.14, 0.626, 1.1634, 0.64706], atol=1e-12)
    assert np.array_equal(spikes[:, 0], [0, 1, 0, 1, 0])


def test_det_lif_soft_reset_keeps_residual():
    # a big drive pushes far over threshold; only v_th is subtracted next step
    layer = det(v_th=1.0, leak=1.0)
    vs, spikes = run_det([[3.0], [0.0]], layer)
    assert spikes[0, 0] == 1.0
    assert vs[1, 0] == pytest.approx(3.0 - 1.0)


def test_det_lif_reset_lags_one_step():
    # the subtraction uses the previous step's firing, not the current one
    layer = det(v_th=1.0, leak=0.9)
    state = rest((1,))
    s1 = det_lif_step(state, layer, np.array([1.5]))
    assert s1[0] == 1.0 and state.v[0] == 1.5   # no subtraction yet
    det_lif_step(state, layer, np.array([0.0]))
    assert state.v[0] == pytest.approx(0.9 * 1.5 - 1.0)


def test_det_lif_threshold_boundary_fires():
    layer = det(v_th=1.0, leak=0.5)
    _, spikes = run_det([[1.0]], layer)
    assert spikes[0, 0] == 1.0                   # v >= v_th is inclusive


def test_det_lif_shape_mismatch():
    with pytest.raises(ShapeError):
        det_lif_step(rest((3,)), det(), np.zeros((4,)))


def test_param_validation():
    # the neuron parameters live on the LayerSpec, which range-checks them
    # a nan or inf v_th never fires, and a nan or inf k gives no usable firing
    # probability
    for bad in ({"v_th": 0.0}, {"v_th": -1.0}, {"k": 0.0}, {"leak": 1.5},
                {"leak": -0.1}, {"v_th": float("nan")}, {"v_th": float("inf")},
                {"k": float("nan")}, {"k": float("inf")}):
        with pytest.raises(ParameterError):
            det(**bad) if "k" not in bad else stoch(**bad)
    assert det(leak=0.0).leak == 0.0
    assert det(leak=1.0).leak == 1.0


def test_sigmoid_stable_and_correct():
    x = np.array([-800.0, -2.0, 0.0, 2.0, 800.0, -np.inf, np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # the exp overflow stays silent
        y = sigmoid(x)
    assert y[0] == 0.0 and y[4] == 1.0
    assert y[5] == 0.0 and y[6] == 1.0
    assert y[2] == 0.5
    assert np.isnan(y[7])
    assert np.allclose(y[[1, 3]], [1 / (1 + np.e**2), 1 / (1 + np.e**-2)])


def test_sigmoid_within_3_ulp_of_extended_precision():
    rng = np.random.default_rng(4)
    x = np.concatenate([np.linspace(-709.0, 709.0, 200001),
                        rng.normal(0.0, 4.0, 100000), rng.normal(0.0, 40.0, 100000)])
    xl = x.astype(np.longdouble)
    ref = 1 / (1 + np.exp(-xl))
    ulp = np.spacing(ref.astype(np.float64)).astype(np.longdouble)
    err = np.abs(sigmoid(x).astype(np.longdouble) - ref) / ulp
    assert err.max() <= 3.0


def test_sigmoid_keeps_shape_and_input():
    x = np.arange(-3.0, 3.0).reshape(2, 3)
    before = x.copy()
    y = sigmoid(x)
    assert y.shape == (2, 3) and y.dtype == np.float64
    assert np.array_equal(x, before)
    assert sigmoid(0.0) == 0.5 and sigmoid([0, 0]).tolist() == [0.5, 0.5]


def test_det_lif_step_matches_formula_without_touching_inputs():
    # run_network passes one hoisted layer-0 drive at every step: a write
    # into it would corrupt every later step
    layer = det(v_th=0.8, leak=0.9)
    rng = np.random.default_rng(9)
    fired = (rng.uniform(size=(4, 6)) < 0.5).astype(np.float64)
    state = LayerState(v=rng.normal(size=(4, 6)), fired_prev=fired)
    drive = rng.normal(size=(4, 6))
    v0, f0, d0 = state.v.copy(), fired.copy(), drive.copy()
    buffers = (state.v, state.fired_prev)
    spikes = det_lif_step(state, layer, drive)
    v = 0.9 * v0 + d0 - f0 * 0.8
    assert state.v.tobytes() == v.tobytes()
    assert np.array_equal(spikes, (v >= 0.8).astype(np.float64))
    assert spikes.dtype == np.float64 and spikes is state.fired_prev
    assert 0 < spikes.sum() < spikes.size
    assert state.v is buffers[0] and state.fired_prev is buffers[1]
    assert np.array_equal(drive, d0)
    arrays = [state.v, spikes, drive]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_stoch_lif_step_matches_formula_without_touching_inputs():
    layer = stoch(k=1.3, leak=0.7)
    rng = np.random.default_rng(8)
    state = LayerState(v=rng.normal(size=(4, 6)), fired_prev=np.ones((4, 6)))
    drive = rng.normal(size=(4, 6))
    v0, d0 = state.v.copy(), drive.copy()
    buffers = (state.v, state.fired_prev)
    rows = np.array([9, 2, 40, 3])
    spikes, probs = stoch_lif_step(state, layer, drive, RngStream(5, 2), rows=rows)
    v = (0.7 * v0 + d0) / 1.3
    assert np.array_equal(state.v, v)
    assert np.array_equal(probs, sigmoid(v))
    u = rng_uniform(RngStream(5, 2), v.shape, rows=rows)
    assert np.array_equal(spikes, (u < probs).astype(np.float64))
    assert spikes.dtype == np.float64 and spikes is state.fired_prev
    # the kernel writes only the state's own buffers; drive and probs share none
    assert state.v is buffers[0] and state.fired_prev is buffers[1]
    assert np.array_equal(drive, d0)
    arrays = [state.v, spikes, probs, drive]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("neuron,shape", [
    ("det", (8, 30)), ("stoch", (8, 30)), ("det", (3, 6, 7, 7)), ("stoch", (3, 6, 7, 7)),
], ids=["D-F", "S-F", "D-F conv", "S-F conv"])
def test_lif_step_into_its_own_state_equals_fresh_state(neuron, shape):
    # each kernel advances its state in the state's own buffers: 20 chained
    # steps give the bytes of the reference step, which allocates a fresh
    # state at every step
    layer = det(v_th=0.8) if neuron == "det" else stoch(k=1.3)
    rows = np.arange(shape[0])
    drives = np.random.default_rng(11).normal(0.3, 1.0, size=(20,) + shape)
    state, ref = rest(shape), rest(shape)
    buffers = (state.v, state.fired_prev)
    streams = [RngStream(3, 1) for _ in range(2)]
    fired = 0.0
    for drive in drives:
        if neuron == "det":
            got = [det_lif_step(state, layer, drive)]
            ref, *want = oracles.det_lif_step(ref, layer, drive)
        else:
            got = list(stoch_lif_step(state, layer, drive, streams[0], rows=rows))
            ref, *want = oracles.stoch_lif_step(ref, layer, drive, streams[1], rows=rows)
        assert state.v is buffers[0] and state.fired_prev is buffers[1]
        assert got[0] is state.fired_prev      # spikes, and probs if stochastic
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert state.v.tobytes() == ref.v.tobytes()
        fired += state.fired_prev.mean()
    assert 0.05 < fired / len(drives) < 0.95
    assert len({s.counter for s in streams}) == 1


def test_lif_states_of_another_shape_are_rejected():
    with pytest.raises(ShapeError):
        LayerState(v=np.zeros((3, 4)), fired_prev=np.zeros(4))
    # a state is kept in C order, the order the stochastic step draws in
    assert LayerState(v=np.zeros((4, 3)).T).v.flags.c_contiguous
    state = rest((3, 4))
    for call in (lambda drive: det_lif_step(state, det(), drive),
                 lambda drive: stoch_lif_step(state, stoch(), drive,
                                              RngStream(0), rows=np.arange(3))):
        with pytest.raises(ShapeError):
            call(np.zeros((3, 5)))


def test_det_lif_step_into_its_own_state_allocates_no_array():
    # at the bench's N=512 a (512, 800) step spent most of its time getting
    # fresh memory; stepping in place keeps the peak below one such array
    layer = det(v_th=1.0, leak=0.9)
    rng = np.random.default_rng(5)
    state = LayerState(v=rng.normal(size=(512, 800)))
    drive = rng.normal(0.2, 1.0, size=(512, 800))
    tracemalloc.start()
    try:
        for _ in range(20):
            det_lif_step(state, layer, drive)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < drive.nbytes


def test_stoch_lif_membrane_and_probs():
    # v = (0.7 * v + drive) / 2
    layer = stoch(k=2.0, leak=0.7)
    state = rest((1,))
    stream = RngStream(0, 0)
    _, p1 = stoch_lif_step(state, layer, np.array([1.0]), stream, rows=[0])
    assert state.v[0] == pytest.approx(0.5)
    assert p1[0] == pytest.approx(sigmoid(np.array([0.5]))[0])
    stoch_lif_step(state, layer, np.array([1.0]), stream, rows=[0])
    assert state.v[0] == pytest.approx((0.7 * 0.5 + 1.0) / 2.0)


def test_stoch_lif_no_reset_after_firing():
    layer = stoch(k=1.0, leak=0.5)
    state = rest((1,))
    stream = RngStream(0, 1)
    stoch_lif_step(state, layer, np.array([10.0]), stream, rows=[0])
    stoch_lif_step(state, layer, np.array([0.0]), stream, rows=[0])
    # pure leak, no threshold subtraction regardless of the (certain) spike
    assert state.v[0] == pytest.approx(5.0)


def test_stoch_lif_spike_frequency_matches_probability():
    layer = stoch(k=1.0, leak=0.0)
    stream = RngStream(3, 9)
    drive = np.full(20000, 0.8)
    state = rest(drive.shape)
    spikes, probs = stoch_lif_step(state, layer, drive, stream, rows=np.arange(20000))
    assert abs(spikes.mean() - probs[0]) < 0.02


def test_stoch_lif_reproducible_given_stream():
    layer = stoch()
    d = np.zeros(50)
    a, _ = stoch_lif_step(rest(d.shape), layer, d, RngStream(4, 4), rows=np.arange(50))
    b, _ = stoch_lif_step(rest(d.shape), layer, d, RngStream(4, 4), rows=np.arange(50))
    assert np.array_equal(a, b)


def test_first_spike_times_table():
    spikes = np.array([
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 1, 0, 0],
    ], dtype=float)
    times = first_spike_times(spikes)
    assert np.array_equal(times, [3, 1, 2, 4])   # silent neuron gets T + 1


def test_first_spike_times_batched():
    spikes = np.zeros((2, 3, 4))
    spikes[1, 0, 2] = 1.0
    times = first_spike_times(spikes)
    assert times.shape == (3, 4)
    assert times[0, 2] == 2 and times[0, 0] == 3


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_first_spike_times_property(horizon, n, seed):
    spikes = (np.random.default_rng(seed).random((horizon, n)) < 0.3).astype(float)
    times = first_spike_times(spikes)
    for i in range(n):
        fired = np.flatnonzero(spikes[:, i])
        expected = fired[0] + 1 if fired.size else horizon + 1
        assert times[i] == expected
