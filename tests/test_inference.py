"""First-to-spike early exit, tie-breaking, timeout and rate-mode prediction."""

from types import SimpleNamespace

import numpy as np
import pytest

import spikefirst as sf
from spikefirst.errors import ParameterError
from spikefirst.inference import run_network
from spikefirst.network import LayerSpec, NetworkSpec, synaptic_drive
from spikefirst.neurons import first_spike_times
from spikefirst.rng import RngStream, rng_gaussian


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
    # the activity totals are summed per sample, so no batching moves them
    for batch_size in (512, 100, 7):
        res = run_network(spec, params, images, batch_size=batch_size)
        assert np.array_equal(res.predictions, full.predictions)
        assert np.array_equal(res.steps, full.steps)
        assert res.synaptic_input_sums == full.synaptic_input_sums
        assert res.layer_spike_sums == full.layer_spike_sums


def test_spike_and_input_accounting():
    spec = single_layer_spec(2, horizon=3, leak=1.0)
    images = np.array([[0.6, 0.2]])
    res = run_network(spec, identity_params(2), images)
    # two steps simulated (fires at t=2): the input feeds the layer twice
    assert res.synaptic_input_sums == [pytest.approx(0.8 * 2)]
    assert res.synaptic_input_sizes == [2]
    assert res.layer_spike_sums == [1.0]           # the single output spike
    assert res.layer_sizes == [2]
    # a second sample adds its own steps' worth: it times out after 3 steps
    res = run_network(spec, identity_params(2), np.array([[0.6, 0.2], [0.1, 0.2]]))
    assert res.synaptic_input_sums == [pytest.approx(0.8 * 2 + 0.3 * 3)]
    assert res.layer_spike_sums == [1.0]


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


@pytest.mark.parametrize("mode", ["first-to-spike", "rate"])
@pytest.mark.parametrize("horizon", [0, -2])
def test_run_network_rejects_nonpositive_horizon(mode, horizon):
    # 0 must not fall back to the spec's horizon, nor a negative one crash
    spec = single_layer_spec(2, horizon=3)
    with pytest.raises(ParameterError, match="horizon"):
        run_network(spec, identity_params(2), np.ones((1, 2)), mode=mode,
                    horizon=horizon)


@pytest.mark.parametrize("mode", ["first-to-spike", "rate"])
@pytest.mark.parametrize("batch_size", [0, -5])
def test_run_network_rejects_nonpositive_batch_size(mode, batch_size):
    # -5 would simulate nothing and predict -1 everywhere; 0 would escape
    # from range() as a bare ValueError
    spec = single_layer_spec(2, horizon=3)
    with pytest.raises(ParameterError, match="batch size"):
        run_network(spec, identity_params(2), np.ones((1, 2)), mode=mode,
                    batch_size=batch_size)


@pytest.mark.parametrize("std", [-0.5, float("nan"), float("inf")])
def test_run_network_rejects_bad_noise_std(std):
    # a negative std used to run silently without noise, inf on NaN drives
    spec = single_layer_spec(2, horizon=3)
    with pytest.raises(ParameterError, match="noise"):
        run_network(spec, identity_params(2), np.ones((1, 2)), input_noise_std=std)


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


def summed_over_steps(record, steps):
    """Total of a (T, N, ...) record over each sample's first ``steps[i]`` steps."""
    horizon, n = record.shape[:2]
    per_step = record.reshape(horizon, n, -1).sum(axis=2, dtype=np.float64)
    return (per_step * (np.arange(1, horizon + 1)[:, None] <= steps)).sum()


def stepped_tape(spec, params, images, drives0):
    """A full-horizon record laid out like ``forward``'s tape, from
    ``network.step`` run for every sample with layer 0's drive ``drives0[t]``
    at step t.  Layer 0's input is ``images``, held once."""
    states = {}
    outs = [sf.step(spec, params, d, states, None) for d in drives0]

    def stacked(i, k):
        return None if outs[0][i][k] is None else np.stack([o[i][k] for o in outs])

    traces = [SimpleNamespace(inputs=images if i == 0 else stacked(i, 0),
                              v=stacked(i, 1), spikes=stacked(i, 2))
              for i in range(len(spec.layers))]
    return SimpleNamespace(horizon=len(drives0), traces=traces)


def assert_totals_match_tape(res, spec, tape, steps):
    """``res``'s activity totals equal the same sums read off a full-horizon
    tape: exactly for spike-fed layers, within rounding for layer 0, whose
    input the tape holds once."""
    weighted = [i for i, l in enumerate(spec.layers) if l.kind in ("linear", "conv")]
    neuron_layers = [i for i, l in enumerate(spec.layers) if l.neuron != "none"]
    for k, i in enumerate(neuron_layers):
        spikes = tape.traces[i].spikes
        assert res.layer_spike_sums[k] == summed_over_steps(spikes, steps), i
        assert res.layer_sizes[k] == np.prod(spikes.shape[2:])
    for k, i in enumerate(weighted):
        inputs = tape.traces[i].inputs
        if i == 0:
            inputs = np.broadcast_to(inputs, (tape.horizon,) + inputs.shape)
        want = summed_over_steps(inputs, steps)
        if i == 0:
            assert res.synaptic_input_sums[k] == pytest.approx(want, rel=1e-12, abs=0)
        else:           # spikes, or average-pooled spikes: exact in any order
            assert res.synaptic_input_sums[k] == want, i
        assert res.synaptic_input_sizes[k] == np.prod(inputs.shape[2:])


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
    assert_totals_match_tape(res, spec, tape, lat)

    # with input noise, sample i's noise at step t is its own keyed row, drawn
    # whichever samples are still active: stepping every sample over the full
    # horizon on the same rows gives the early-exit results
    std, noise_seed = 0.3, 21
    drives0 = [synaptic_drive(spec.layers[0], params["layer0.w"],
                              images + rng_gaussian(RngStream(noise_seed, counter=t),
                                                    images.shape, std,
                                                    rows=np.arange(len(images))))
               for t in range(1, horizon + 1)]
    noisy_res = run_network(spec, params, images, batch_size=5, input_noise_std=std,
                            noise_seed=noise_seed)
    tape_n = stepped_tape(spec, params, images, drives0)
    preds_n, lat_n = fts_from_full_horizon(tape_n.traces[-1].spikes, tape_n.traces[-1].v)
    assert np.array_equal(noisy_res.predictions, preds_n)
    assert np.array_equal(noisy_res.latencies, lat_n)
    assert np.array_equal(noisy_res.steps, lat_n)
    # layer 0's total counts the clean image, not the noise
    assert_totals_match_tape(noisy_res, spec, tape_n, lat_n)
    clean_total = (images.reshape(len(images), -1).sum(axis=1) * lat_n).sum()
    assert noisy_res.synaptic_input_sums[0] == clean_total
    assert not np.array_equal(lat_n, lat)                     # the noise matters
    assert len(np.unique(lat_n)) > 1        # later steps draw for a subset

    # rate mode runs the full horizon and predicts the most active output
    rate_spec = sf.build(arch, "D-R-BPTT", overrides)
    rate_res = run_network(rate_spec, params, images, mode="rate", batch_size=5)
    rate_records, rate_tape = sf.forward(rate_spec, params,
                                         sf.encode_direct(images, rate_spec.horizon))
    assert np.array_equal(rate_res.predictions, rate_records[-1].sum(axis=0).argmax(axis=1))
    assert np.array_equal(rate_res.steps, np.full(len(images), rate_spec.horizon))
    assert_totals_match_tape(rate_res, rate_spec, rate_tape, rate_res.steps)


@pytest.mark.parametrize("arch,overrides,gain,n", [
    ("mlp2", {"hidden": 32, "horizon": 12}, 2.0, 600),
    ("lenet5", {"horizon": 6}, 3.0, 240),
])
def test_noisy_inference_is_batch_size_invariant(arch, overrides, gain, n):
    # noise is keyed by (noise_seed, sample index, step), so a sample's
    # result does not depend on its batch-mates or on their early exits
    spec = sf.build(arch, "D-F-BPTT", overrides)
    params = {k: w * gain for k, w in sf.init_params(spec, RngStream(3, 0)).items()}
    rng = np.random.default_rng(12)
    images = rng.uniform(size=(n, 1, 28, 28)) * (rng.uniform(size=(n, 1, 28, 28)) < 0.3)
    runs = [run_network(spec, params, images, batch_size=b, input_noise_std=0.3,
                        noise_seed=8) for b in (512, 100, 7)]
    for res in runs[1:]:
        assert np.array_equal(res.predictions, runs[0].predictions)
        assert np.array_equal(res.latencies, runs[0].latencies)
        assert np.array_equal(res.steps, runs[0].steps)
    assert len(np.unique(runs[0].latencies)) > 1
