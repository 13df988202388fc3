"""First-to-spike early exit, tie-breaking, timeout and rate-mode prediction."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import spikefirst as sf
from spikefirst import heap, inference, network
from spikefirst.errors import ParameterError
from spikefirst.inference import run_network
from spikefirst.network import LayerSpec, NetworkSpec, block_rows, synaptic_drive
from spikefirst.neurons import first_spike_times
from spikefirst.rng import RngStream, rng_gaussian

import oracles


def single_layer_spec(n, horizon, leak=0.0, v_th=1.0):
    layer = LayerSpec(kind="linear", in_features=n, out_features=n, leak=leak, v_th=v_th)
    return NetworkSpec(layers=[layer], horizon=horizon, model_kind="D-F-BPTT", arch="mlp2")


def identity_params(n):
    return {"layer0.w": np.eye(n)}


def shrink_blocks(monkeypatch, rows):
    """Make ``run_network`` step blocks of ``rows`` rows, whatever the network:
    no block fits an empty budget, so each takes the minimum."""
    monkeypatch.setattr(network, "L2_BYTES", 0)
    monkeypatch.setattr(network, "_MIN_BLOCK_ROWS", rows)


def run_batched(rows, *args, **kwargs):
    """``run_network`` in batches of ``rows`` rows, whatever the network: the
    batching rule ``network.batch_rows`` is replaced for this one call."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(inference, "batch_rows", lambda spec, input_hw: rows)
        return run_network(*args, **kwargs)


def assert_same_result(got, want):
    assert np.array_equal(got.predictions, want.predictions)
    assert np.array_equal(got.latencies, want.latencies)
    assert np.array_equal(got.steps, want.steps)
    assert got.input_total == want.input_total
    assert got.layer_totals == want.layer_totals


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


def test_batched_equals_unbatched(monkeypatch):
    rng = np.random.default_rng(0)
    spec = single_layer_spec(4, horizon=6, leak=1.0)
    params = {"layer0.w": rng.normal(size=(4, 4)) * 0.3}
    images = rng.uniform(0, 1, size=(10, 4))
    full = run_batched(10, spec, params, images)
    split = run_batched(3, spec, params, images)
    assert np.array_equal(full.predictions, split.predictions)
    assert np.array_equal(full.latencies, split.latencies)
    # the activity totals are summed per sample, so no batching moves them
    for batch in (512, 100, 7):
        res = run_batched(batch, spec, params, images)
        assert np.array_equal(res.predictions, full.predictions)
        assert np.array_equal(res.steps, full.steps)
        assert res.input_total == full.input_total
        assert res.layer_totals == full.layer_totals
    # nor does stepping each batch in row blocks, ragged or not
    for rows in (1, 3, 4):
        shrink_blocks(monkeypatch, rows)
        for batch in (10, 7, 3):
            assert_same_result(run_batched(batch, spec, params, images), full)

    # and every random draw is keyed by the sample's index in the dataset:
    # Bernoulli draws of a stochastic network in both modes and input noise
    # move with neither the batch nor the row blocks, on the whole set, a
    # subset and a permutation of it alike
    monkeypatch.undo()
    images = rng.uniform(size=(600, 1, 28, 28)) * (rng.uniform(size=(600, 1, 28, 28)) < 0.3)
    datasets = {"all": images, "subset": images[rng.permutation(600)[:230]],
                "permuted": images[rng.permutation(600)]}
    for kind, kwargs in (("S-F-BPTT", {"seed": 4}), ("S-F-BPTT", {"seed": 4, "mode": "rate"}),
                         ("D-F-BPTT", {"input_noise_std": 0.3, "noise_seed": 8})):
        spec = sf.build("mlp2", kind, {"hidden": 32, "horizon": 12})
        params = {k: w * 2.0 for k, w in sf.init_params(spec, RngStream(3, 0)).items()}
        if kind == "S-F-BPTT":
            params["layer1.w"] -= 0.15      # outputs that fire late or time out
        whole = {}
        for name, data in datasets.items():
            runs = [run_batched(b, spec, params, data, **kwargs) for b in (512, 100, 7)]
            whole[name] = runs[0]
            with monkeypatch.context() as m:
                shrink_blocks(m, 16)
                runs.append(run_network(spec, params, data, **kwargs))
            for res in runs[1:]:
                assert_same_result(res, runs[0])
            assert len(np.unique(runs[0].predictions)) > 1, (kind, name)
            if kwargs.get("mode") != "rate":
                assert len(np.unique(runs[0].latencies)) > 1, (kind, name)
        # a sample keeps its draws where it keeps its index: a prefix of the set
        head = run_batched(7, spec, params, images[:130], **kwargs)
        assert np.array_equal(head.predictions, whole["all"].predictions[:130])
        assert np.array_equal(head.latencies, whole["all"].latencies[:130])


def test_spike_and_input_accounting():
    spec = single_layer_spec(2, horizon=3, leak=1.0)
    images = np.array([[0.6, 0.2]])
    res = run_network(spec, identity_params(2), images)
    # two steps simulated (fires at t=2): the input feeds the layer twice
    assert res.input_total == pytest.approx(0.8 * 2)
    assert res.layer_totals == [1.0]               # the single output spike
    # a second sample adds its own steps' worth: it times out after 3 steps
    res = run_network(spec, identity_params(2), np.array([[0.6, 0.2], [0.1, 0.2]]))
    assert res.input_total == pytest.approx(0.8 * 2 + 0.3 * 3)
    assert res.layer_totals == [1.0]


def test_stochastic_inference_reproducible():
    layer = LayerSpec(kind="linear", in_features=3, out_features=3, leak=0.7, k=1.0)
    spec = NetworkSpec(layers=[layer], horizon=8, model_kind="S-F-BPTT", arch="mlp2")
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
@pytest.mark.parametrize("horizon", [0, -2, 2.5, True, "3"])
def test_run_network_rejects_nonpositive_horizon(mode, horizon):
    # 0 must not fall back to the spec's horizon, nor a negative one crash;
    # a fraction, a bool or a string is not a count of steps
    spec = single_layer_spec(2, horizon=3)
    with pytest.raises(ParameterError, match="horizon"):
        run_network(spec, identity_params(2), np.ones((1, 2)), mode=mode,
                    horizon=horizon)


@pytest.mark.parametrize("std", [-0.5, float("nan"), float("inf")])
def test_run_network_rejects_bad_noise_std(std):
    # a negative std used to run silently without noise, inf on NaN drives
    spec = single_layer_spec(2, horizon=3)
    with pytest.raises(ParameterError, match="noise"):
        run_network(spec, identity_params(2), np.ones((1, 2)), input_noise_std=std)


def fts_from_full_horizon(spikes, v, score=None):
    """Predictions and latencies by the module's tie and timeout rules, read
    off a full-horizon record of the output layer (T, N, n): ties go to the
    highest ``score``, the membrane potential ``v`` unless given (a
    stochastic layer's firing probability)."""
    horizon = v.shape[0]
    score = v if score is None else score
    times = first_spike_times(spikes)
    first = times.min(axis=1)
    acc = np.zeros_like(v[0])
    for t in range(horizon):
        acc += v[t]
    preds = np.empty(len(first), dtype=np.int64)
    for s, t in enumerate(first):
        if t <= horizon:
            preds[s] = np.where(times[s] == t, score[int(t) - 1, s], -np.inf).argmax()
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
    at step t.  Layer 0's input is ``images``, held once.  ``step`` returns
    the states' own buffers, which its next call overwrites: each step's
    outputs are copied as they are collected."""
    states = {}
    outs = [[tuple(None if a is None else a.copy() for a in layer_out)
             for layer_out in sf.step(spec, params, d, states, None)] for d in drives0]

    def stacked(i, k):
        return None if outs[0][i][k] is None else np.stack([o[i][k] for o in outs])

    traces = [SimpleNamespace(inputs=images if i == 0 else None,
                              v=stacked(i, 0), spikes=stacked(i, 1))
              for i in range(len(spec.layers))]
    return SimpleNamespace(horizon=len(drives0), traces=traces)


def assert_totals_match_tape(res, spec, tape, steps):
    """``res``'s activity totals equal the same sums read off a full-horizon
    tape: exactly for every layer, within rounding for the input image, which
    the tape holds once."""
    image = tape.traces[0].inputs
    want = summed_over_steps(np.broadcast_to(image, (tape.horizon,) + image.shape), steps)
    assert res.input_total == pytest.approx(want, rel=1e-12, abs=0)
    assert len(res.layer_totals) == len(spec.layers)
    for i, trace in enumerate(tape.traces):
        # each layer's output: its spikes, or a pool layer's average-pooled
        # spikes, exact in any order
        assert res.layer_totals[i] == summed_over_steps(trace.spikes, steps), i


@pytest.mark.parametrize("arch,overrides,gain", [
    ("mlp2", {"hidden": 32, "horizon": 12}, 2.0),
    ("lenet5", {"horizon": 6}, 3.0),
])
def test_early_exit_matches_full_horizon_forward(monkeypatch, arch, overrides, gain):
    spec = sf.build(arch, "D-F-BPTT", overrides)
    params = {k: w * gain for k, w in sf.init_params(spec, RngStream(3, 0)).items()}
    rng = np.random.default_rng(11)
    images = rng.uniform(size=(12, 1, 28, 28)) * (rng.uniform(size=(12, 1, 28, 28)) < 0.3)
    horizon = spec.horizon

    res = run_batched(5, spec, params, images)
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
    noisy_res = run_batched(5, spec, params, images, input_noise_std=std,
                            noise_seed=noise_seed)
    tape_n = stepped_tape(spec, params, images, drives0)
    preds_n, lat_n = fts_from_full_horizon(tape_n.traces[-1].spikes, tape_n.traces[-1].v)
    assert np.array_equal(noisy_res.predictions, preds_n)
    assert np.array_equal(noisy_res.latencies, lat_n)
    assert np.array_equal(noisy_res.steps, lat_n)
    # layer 0's total counts the clean image, not the noise
    assert_totals_match_tape(noisy_res, spec, tape_n, lat_n)
    clean_total = (images.reshape(len(images), -1).sum(axis=1) * lat_n).sum()
    assert noisy_res.input_total == clean_total
    assert not np.array_equal(lat_n, lat)                     # the noise matters
    assert len(np.unique(lat_n)) > 1        # later steps draw for a subset

    # rate mode runs the full horizon and predicts the most active output
    rate_spec = sf.build(arch, "D-R-BPTT", overrides)
    rate_res = run_batched(5, rate_spec, params, images, mode="rate")
    rate_records, rate_tape = sf.forward(rate_spec, params,
                                         sf.encode_direct(images, rate_spec.horizon))
    rate_preds = rate_records[-1].sum(axis=0).argmax(axis=1)
    assert np.array_equal(rate_res.predictions, rate_preds)
    assert np.array_equal(rate_res.steps, np.full(len(images), rate_spec.horizon))
    assert_totals_match_tape(rate_res, rate_spec, rate_tape, rate_res.steps)

    # a stochastic network's draws are keyed by (seed, layer, step, sample
    # index): a full-horizon forward on the same keyed streams, every sample
    # drawn at every step, gives the early-exit results, and its spike counts
    # the rate results
    sf_spec = sf.build(arch, "S-F-BPTT", overrides)
    out_w = f"layer{len(sf_spec.layers) - 1}.w"
    # lower output weights and 40 samples: whatever the draws, samples exit
    # at several steps and some time out (so at every seed in 0..29)
    sf_params = dict(params, **{out_w: params[out_w] - {"mlp2": 0.15, "lenet5": 0.08}[arch]})
    sf_rng = np.random.default_rng(15)
    sf_images = sf_rng.uniform(size=(40, 1, 28, 28)) * (sf_rng.uniform(size=(40, 1, 28, 28)) < 0.3)
    seed = 4
    streams = [RngStream(seed, i, counter=1) for i, _ in sf_spec.weighted_layers()]
    sf_records, sf_tape = sf.forward(sf_spec, sf_params, sf.encode_direct(sf_images, horizon),
                                     streams, rows=np.arange(len(sf_images)))
    out_v = sf_tape.traces[-1].v
    sf_preds, sf_lat = fts_from_full_horizon(sf_records[-1], out_v, sf.neurons.sigmoid(out_v))
    sf_rate = sf_records[-1].sum(axis=0).argmax(axis=1)
    assert (sf_lat < horizon).any() and (sf_lat == horizon).any()
    assert len(np.unique(sf_lat)) > 2

    def check_stochastic():
        res = run_batched(5, sf_spec, sf_params, sf_images, seed=seed)
        assert np.array_equal(res.predictions, sf_preds)
        assert np.array_equal(res.latencies, sf_lat)
        assert np.array_equal(res.steps, sf_lat)
        assert_totals_match_tape(res, sf_spec, sf_tape, sf_lat)
        res = run_batched(5, sf_spec, sf_params, sf_images, mode="rate", seed=seed)
        assert np.array_equal(res.predictions, sf_rate)
        assert_totals_match_tape(res, sf_spec, sf_tape, res.steps)

    check_stochastic()

    # row blocks of 1, 3 and 4 rows in the batches of 5, 5 and 2, the last
    # block of a batch often short, each stepped through all its timesteps:
    # the same results
    for rows in (1, 3, 4):
        shrink_blocks(monkeypatch, rows)
        res = run_batched(5, spec, params, images)
        assert np.array_equal(res.predictions, preds), rows
        assert np.array_equal(res.latencies, lat), rows
        assert np.array_equal(res.steps, lat), rows
        assert_totals_match_tape(res, spec, tape, lat)
        res = run_batched(5, rate_spec, params, images, mode="rate")
        assert np.array_equal(res.predictions, rate_preds), rows
        assert np.array_equal(res.steps, np.full(len(images), rate_spec.horizon)), rows
        assert_totals_match_tape(res, rate_spec, rate_tape, res.steps)
        check_stochastic()


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
    runs = [run_batched(b, spec, params, images, input_noise_std=0.3, noise_seed=8)
            for b in (512, 100, 7)]
    # and in the batches network.batch_rows derives: 2048 rows on this mlp2,
    # 128 on lenet5, whose 240 images are then two batches
    runs.append(run_network(spec, params, images, input_noise_std=0.3, noise_seed=8))
    for res in runs[1:]:
        assert np.array_equal(res.predictions, runs[0].predictions)
        assert np.array_equal(res.latencies, runs[0].latencies)
        assert np.array_equal(res.steps, runs[0].steps)
    assert len(np.unique(runs[0].latencies)) > 1



@pytest.mark.parametrize("arch,overrides,gain", [
    ("mlp2", {"hidden": 32, "horizon": 12}, 2.0),
    ("lenet5", {"horizon": 6}, 3.0),
])
def test_noisy_runs_match_reference_run_network(monkeypatch, arch, overrides, gain):
    # a noisy run recomputes layer 0's drive at every step and keeps one
    # block per batch, so however small the blocks of a clean run, it gives
    # the reference loop's bits
    shrink_blocks(monkeypatch, 2)
    det = sf.build(arch, "D-F-BPTT", overrides)
    params = {k: w * gain for k, w in sf.init_params(det, RngStream(3, 0)).items()}
    rng = np.random.default_rng(13)
    images = rng.uniform(size=(12, 1, 28, 28)) * (rng.uniform(size=(12, 1, 28, 28)) < 0.3)
    noisy = dict(input_noise_std=0.3, noise_seed=21)
    got = run_batched(5, det, params, images, **noisy)
    assert_same_result(got, oracles.run_network(det, params, images, batch_size=5, **noisy))
    assert len(np.unique(got.latencies)) > 1


@pytest.mark.parametrize("arch,shape,rows", [
    ("mlp2", (1, 1, 28, 28), 64),       # 800 hidden neurons: 19.2 kB a row
    ("lenet5", (1, 1, 28, 28), 16),     # 6 x 28 x 28 in the first conv layer
    ("vgg15", (1, 3, 32, 32), 8),       # 1.5 MB a row: the minimum
])
def test_block_rows_fit_l2(arch, shape, rows):
    assert block_rows(sf.build(arch, "D-F-BPTT"), shape[-2:]) == rows


@pytest.mark.parametrize("arch,hw,rows", [
    ("mlp2", (28, 28), 512),            # the most rows a batch takes
    ("lenet5", (28, 28), 128),          # 8094 neurons: 194 kB a row
    ("vgg15", (32, 32), 8),             # 7.4 MB a row: one block
])
def test_batch_rows_fit_the_heap(arch, hw, rows):
    spec = sf.build(arch, "D-F-BPTT")
    assert network.batch_rows(spec, hw) == rows
    assert rows % block_rows(spec, hw) == 0
    # a network whose blocks exceed 512 rows takes one block per batch
    tiny = single_layer_spec(4, horizon=3)
    assert network.batch_rows(tiny, (1, 4)) == block_rows(tiny, (1, 4)) > 512


@pytest.mark.parametrize("std,bound", [(0.0, 0.5), (0.3, 1.25)])
def test_evaluation_peak_memory_is_bounded_by_one_batch(std, bound):
    # 512 lenet5 images are four batches of network.batch_rows' 128 rows.  A
    # batch's state over every layer fits heap.SIMULATION_MAPPED_BYTES, and a
    # noisy batch, one block, holds all of it with its noisy images and
    # layer-0 columns: 0.93 of it measured, bounded at 1.25.  A clean batch
    # holds its layer-0 drive and one 16-row block's state: 0.27 measured,
    # bounded at 0.5.  In one 512-row batch they peaked at 3.7 and 0.70, with
    # the same results
    spec = sf.build("lenet5", "D-F-BPTT")
    params = {k: w * 3.0 for k, w in sf.init_params(spec, RngStream(3, 0)).items()}
    rng = np.random.default_rng(12)
    images = rng.uniform(size=(512, 1, 28, 28)) * (rng.uniform(size=(512, 1, 28, 28)) < 0.3)
    noisy = dict(input_noise_std=std, noise_seed=8)
    tracemalloc.start()
    try:
        got = run_network(spec, params, images, **noisy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = heap.SIMULATION_MAPPED_BYTES
    assert peak <= bound * budget, f"peak {peak / budget:.2f} of the budget"
    assert_same_result(got, run_batched(512, spec, params, images, **noisy))
    assert len(np.unique(got.latencies)) > 1
