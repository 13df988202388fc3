"""First-to-spike early exit, tie-breaking, timeout and rate-mode prediction."""

import numpy as np
import pytest

import spikefirst as sf
from spikefirst.bptt import backward
from spikefirst.coding import fts_ce_loss_batch
from spikefirst.errors import ParameterError
from spikefirst.inference import run_network
from spikefirst.network import LayerSpec, NetworkSpec
from spikefirst.neurons import first_spike_times
from spikefirst.rng import RngStream


def single_layer_spec(n, horizon, leak=0.0, v_th=1.0):
    layer = LayerSpec(kind="linear", neuron="det", in_features=n,
                      out_features=n, leak=leak, v_th=v_th)
    return NetworkSpec(layers=[layer], coding="first-to-spike", horizon=horizon,
                       model_kind="D-F-BPTT", arch="mlp2")


def identity_params(n):
    return {"layer0.w": np.eye(n)}


def test_first_spike_prediction_and_latency():
    # leak 1: the 0.6 drive crosses threshold 1.0 on step 2
    spec = single_layer_spec(3, horizon=6, leak=1.0)
    images = np.array([[0.6, 0.2, 0.1]])
    res = run_network(spec, identity_params(3), images)
    assert res.predictions[0] == 0
    assert res.latencies[0] == 2
    assert res.steps[0] == 2                       # early exit stops simulation


def test_immediate_spike():
    spec = single_layer_spec(2, horizon=5)
    res = run_network(spec, identity_params(2), np.array([[1.5, 0.0]]))
    assert res.predictions[0] == 0 and res.latencies[0] == 1


def test_tie_broken_by_membrane_potential():
    spec = single_layer_spec(2, horizon=5)
    res = run_network(spec, identity_params(2), np.array([[1.2, 1.5]]))
    assert res.predictions[0] == 1                 # both fire at t=1, higher v wins


def test_exact_tie_lowest_index():
    spec = single_layer_spec(3, horizon=5)
    res = run_network(spec, identity_params(3), np.array([[0.0, 1.3, 1.3]]))
    assert res.predictions[0] == 1


def test_timeout_falls_back_to_accumulated_potential():
    spec = single_layer_spec(2, horizon=3)         # leak 0: v never reaches 1
    res = run_network(spec, identity_params(2), np.array([[0.4, 0.7]]))
    assert res.predictions[0] == 1                 # larger accumulated v
    assert res.latencies[0] == 3                   # horizon recorded as latency
    assert res.steps[0] == 3


def test_rate_mode_counts_argmax():
    spec = single_layer_spec(2, horizon=4, leak=0.0)
    # neuron 0 fires every step (drive 1.0 - reset 1.0 alternates: t1 v=1 fire,
    # t2 v=1-1=0 silent, ...), neuron 1 fires at every step from drive 2.0
    res = run_network(spec, identity_params(2), np.array([[1.0, 2.0]]), mode="rate")
    assert res.predictions[0] == 1
    assert res.latencies[0] == 4
    assert res.steps[0] == 4


def test_early_exit_per_sample_independence():
    # batch mixes a fast sample with a timeout sample
    spec = single_layer_spec(2, horizon=4, leak=1.0)
    images = np.array([[1.5, 0.0], [0.1, 0.2]])
    res = run_network(spec, identity_params(2), images)
    assert res.predictions[0] == 0 and res.latencies[0] == 1 and res.steps[0] == 1
    assert res.latencies[1] == 4 and res.steps[1] == 4


def test_batched_equals_unbatched():
    rng = np.random.default_rng(0)
    spec = single_layer_spec(4, horizon=6, leak=1.0)
    params = {"layer0.w": rng.normal(size=(4, 4)) * 0.3}
    images = rng.uniform(0, 1, size=(10, 4))
    full = run_network(spec, params, images, batch_size=10)
    split = run_network(spec, params, images, batch_size=3)
    assert np.array_equal(full.predictions, split.predictions)
    assert np.array_equal(full.latencies, split.latencies)


def test_spike_and_input_accounting():
    spec = single_layer_spec(2, horizon=3, leak=1.0)
    images = np.array([[0.6, 0.2]])
    res = run_network(spec, identity_params(2), images)
    # two steps simulated (fires at t=2): the input feeds the layer twice
    assert res.synaptic_input_sums[0][0] == pytest.approx(0.8 * 2)
    assert res.synaptic_input_sizes[0] == 2
    assert res.layer_spike_sums[0][0] == 1.0       # the single output spike
    assert res.layer_sizes[0] == 2


def test_stochastic_inference_reproducible():
    layer = LayerSpec(kind="linear", neuron="stoch", in_features=3,
                      out_features=3, leak=0.7, k=1.0)
    spec = NetworkSpec(layers=[layer], coding="first-to-spike", horizon=8,
                       model_kind="S-F-BPTT", arch="mlp2")
    rng = np.random.default_rng(1)
    params = {"layer0.w": rng.normal(size=(3, 3))}
    images = rng.uniform(0, 1, size=(200, 3))
    a = run_network(spec, params, images, seed=5)
    b = run_network(spec, params, images, seed=5)
    c = run_network(spec, params, images, seed=6)
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.latencies, b.latencies)
    assert not (np.array_equal(a.predictions, c.predictions)
                and np.array_equal(a.latencies, c.latencies))


def test_run_network_validates():
    spec = single_layer_spec(2, horizon=3)
    with pytest.raises(ParameterError):
        run_network(spec, identity_params(2), np.zeros((0, 2)))
    with pytest.raises(ParameterError):
        run_network(spec, identity_params(2), np.zeros((1, 2)), mode="phase")


def fts_from_full_horizon(spikes, v):
    """Predictions and latencies by the module's tie and timeout rules, read
    off a full-horizon record of the output layer (T, N, n)."""
    horizon = v.shape[0]
    times = first_spike_times(spikes)
    first = times.min(axis=1)
    acc = np.zeros_like(v[0])
    for t in range(horizon):
        acc += v[t]
    preds = np.empty(len(first), dtype=np.int64)
    for s, t in enumerate(first):
        if t <= horizon:
            preds[s] = np.where(times[s] == t, v[int(t) - 1, s], -np.inf).argmax()
        else:
            preds[s] = acc[s].argmax()
    return preds, np.minimum(first, horizon)


@pytest.mark.parametrize("arch,overrides,gain", [
    ("mlp2", {"hidden": 32, "horizon": 12}, 2.0),
    ("lenet5", {"horizon": 6}, 3.0),
])
def test_early_exit_matches_full_horizon_forward(arch, overrides, gain):
    spec = sf.build(arch, "D-F-BPTT", overrides)
    params = {k: w * gain for k, w in sf.init_params(spec, RngStream(3, 0)).items()}
    rng = np.random.default_rng(11)
    images = rng.uniform(size=(12, 1, 28, 28)) * (rng.uniform(size=(12, 1, 28, 28)) < 0.3)
    horizon = spec.horizon

    res = run_network(spec, params, images, batch_size=5)
    encoded = sf.encode_direct(images, horizon)
    records, tape = sf.forward(spec, params, encoded)
    preds, lat = fts_from_full_horizon(records[-1], tape.traces[-1].v)
    assert np.array_equal(res.predictions, preds)
    assert np.array_equal(res.latencies, lat)
    assert np.array_equal(res.steps, lat)
    assert (lat < horizon).any() and (lat == horizon).any()   # exits and timeouts

    # a materialised copy of the same input takes the per-step layer-0 path
    dense = np.ascontiguousarray(encoded)
    records_d, tape_d = sf.forward(spec, params, dense)
    assert tape.traces[0].time_constant and not tape_d.traces[0].time_constant
    assert tape.traces[0].inputs.shape[0] == len(images)
    for a, b in zip(records, records_d):
        assert np.array_equal(a, b)
    for a, b in zip(tape.traces, tape_d.traces):
        assert np.array_equal(a.v, b.v)

    # the two paths differ only in the summation order of layer 0's gradient
    loss = fts_ce_loss_batch(first_spike_times(records[-1]), np.arange(12) % 10)
    grads, grads_d = backward(tape, loss), backward(tape_d, loss)
    for name in grads:
        if name == "layer0.w":
            assert np.allclose(grads[name], grads_d[name], rtol=1e-12, atol=1e-15)
        else:
            assert np.array_equal(grads[name], grads_d[name])
