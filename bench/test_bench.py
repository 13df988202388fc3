"""Tests of the benchmark's own helpers; run with ``python3 -m pytest bench``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_times_on_hand_built_tree():
    spans = [
        Span(0, None, "op", "root", 0.0, 10.0),
        Span(1, 0, "op", "a", 1.0, 4.0),
        Span(2, 1, "op", "a.child", 2.0, 3.0),
        Span(3, 0, "op", "b", 3.0, 6.0),       # overlaps a: covered once
        Span(4, 0, "op", "c", 8.0, 12.0),      # runs past root: clipped at 10
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})


def test_tracer_records_nesting_and_restores():
    import spikefirst.coding as coding
    import spikefirst.inference as inference
    import spikefirst.network as network
    import spikefirst.neurons as neurons

    original = neurons.sigmoid
    tracer = Tracer("spikefirst")
    tracer.wrap("neurons.sigmoid", "spikefirst.neurons", "sigmoid")
    with tracer:
        for mod in (neurons, network, inference, coding):
            assert mod.sigmoid is not original
        with tracer.operation("op1"), tracer.span("outer"):
            network.sigmoid(np.zeros(3))
            with tracer.paused():
                network.sigmoid(np.zeros(3))
    for mod in (neurons, network, inference, coding):
        assert mod.sigmoid is original
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("outer", None, "op1"), ("neurons.sigmoid", 0, "op1")]


def test_generator_is_deterministic_per_seed():
    a, la = gen.make_images(5, 64, block=1)
    b, lb = gen.make_images(5, 64, block=1)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    c, _ = gen.make_images(6, 64, block=1)
    d, _ = gen.make_images(5, 64, block=2)
    assert not np.array_equal(a, c) and not np.array_equal(a, d)
    assert a.shape == (64, 1, 28, 28) and la.min() >= 0 and la.max() < 10

    shapes = [(800, 784), (10, 800)]
    w1 = gen.make_weights(5, shapes, ((1.8, 0.002), (0.3, 0.001)))
    w2 = gen.make_weights(5, shapes, ((1.8, 0.002), (0.3, 0.001)))
    assert all(np.array_equal(x, y) for x, y in zip(w1, w2))
    assert not np.array_equal(w1[0], gen.make_weights(6, shapes[:1], ((1.8, 0.002),))[0])


def test_generated_inputs_are_mnist_like():
    images, _ = gen.make_images(3, 2048)
    assert 0.17 < (images > 0).mean() < 0.21
    assert 0.11 < images.mean() < 0.15


def test_weight_rows_and_columns_share_one_mean():
    (w,) = gen.make_weights(9, [(6, 1, 5, 5)], ((2.0, 0.05),))
    flat = w.reshape(6, -1)
    assert np.allclose(flat.mean(axis=1), 0.05) and np.allclose(flat.mean(axis=0), 0.05)


@pytest.mark.parametrize("latency,ok", [(3.99, False), (4.0, True), (7.2, True),
                                        (9.0, True), (9.01, False)])
def test_latency_band(latency, ok):
    assert checks.latency_in_band(latency, (4.0, 9.0)) is ok


def test_fts_from_full_horizon_follows_tie_and_timeout_rules():
    horizon = 3
    v = np.zeros((horizon, 3, 3))
    # sample 0: neurons 1 and 2 first fire at step 2; neuron 2 has more potential
    v[1, 0] = [0.0, 1.2, 1.5]
    # sample 1: exact tie at step 1 -> lowest index
    v[0, 1] = [1.0, 1.0, 0.0]
    # sample 2: never fires -> argmax of accumulated potential, latency = horizon
    v[:, 2] = [[0.1, 0.5, 0.2], [0.1, 0.2, 0.2], [0.1, 0.2, 0.2]]
    first = np.array([[4, 2, 2], [1, 1, 4], [4, 4, 4]], dtype=float)
    pred, lat = checks.fts_from_full_horizon(first, v)
    assert pred.tolist() == [2, 0, 1]
    assert lat.tolist() == [2.0, 1.0, 3.0]


def test_rate_prediction_is_argmax_of_counts():
    spikes = np.zeros((4, 2, 3))
    spikes[:, 0, 2] = 1
    spikes[:2, 1, 0] = 1
    spikes[:2, 1, 1] = 1
    assert checks.rate_from_full_horizon(spikes).tolist() == [2, 0]


def test_accepted_trials_replays_greedy_selection():
    # pop 2: init fitness [3, 5]; trials 3 (accept, ties count), 6 (reject), 1, 5
    assert harness.accepted_trials([3, 5, 3, 6, 1, 5], pop=2) == 3


def test_host_speed_scale_is_mean_bracketing_time_over_nominal():
    speed = harness.HostSpeed()
    times = iter([harness.REF_NOMINAL_S, 2.0 * harness.REF_NOMINAL_S])
    speed.sample = lambda: next(times)
    result, scale = speed.timed(lambda: "done")
    assert result == "done" and scale == pytest.approx(1.5)


def test_non_increasing():
    assert checks.non_increasing([3.0, 3.0, 2.5])
    assert not checks.non_increasing([3.0, 3.1])


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in gen.WORKLOADS.values()}
