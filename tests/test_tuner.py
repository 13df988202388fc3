"""Differential evolution on analytic objectives plus checkpoint threshold tuning."""

import numpy as np
import pytest

from spikefirst.checkpoint import Checkpoint
from spikefirst.errors import ParameterError
from spikefirst.network import build, init_params
from spikefirst.rng import RngStream
from spikefirst import tuner
from spikefirst.data import Dataset
from spikefirst.tuner import (DeConfig, apply_candidate, de_minimize, de_optimize,
                              validation_subset)


def sphere(x):
    return float(((x - 1.0) ** 2).sum())


def test_sphere_converges_within_budget():
    bounds = np.tile([-5.0, 5.0], (3, 1))
    result = de_minimize(sphere, bounds, DeConfig(max_generations=50, seed=0))
    assert result.best_objective <= 1e-2
    assert np.allclose(result.best_vector, 1.0, atol=0.2)


def test_history_monotone_non_increasing():
    bounds = np.tile([-5.0, 5.0], (4, 1))
    for seed in range(5):
        result = de_minimize(sphere, bounds, DeConfig(max_generations=30, seed=seed))
        hist = np.array(result.history)
        assert np.all(np.diff(hist) <= 0.0)


def test_deterministic_given_seed():
    bounds = np.tile([-2.0, 2.0], (2, 1))
    a = de_minimize(sphere, bounds, DeConfig(max_generations=10, seed=3))
    b = de_minimize(sphere, bounds, DeConfig(max_generations=10, seed=3))
    assert np.array_equal(a.best_vector, b.best_vector)
    assert a.history == b.history


def test_population_respects_bounds():
    seen = []
    bounds = np.array([[0.5, 1.5], [-1.0, 0.0]])

    def spy(x):
        seen.append(x.copy())
        return sphere(x)

    de_minimize(spy, bounds, DeConfig(max_generations=15, seed=1))
    arr = np.stack(seen)
    assert arr[:, 0].min() >= 0.5 and arr[:, 0].max() <= 1.5
    assert arr[:, 1].min() >= -1.0 and arr[:, 1].max() <= 0.0


def test_degenerate_bounds_short_circuit():
    calls = []

    def spy(x):
        calls.append(x.copy())
        return sphere(x)

    bounds = np.array([[2.0, 2.0], [3.0, 3.0]])
    result = de_minimize(spy, bounds, DeConfig(max_generations=30, seed=0))
    assert len(calls) == 1
    assert np.array_equal(result.best_vector, [2.0, 3.0])


def test_shifted_rastrigin_improves():
    # multimodal objective: DE should at least find a near-optimal basin
    def rastrigin(x):
        z = x - 1.0
        return float(10 * len(z) + (z**2 - 10 * np.cos(2 * np.pi * z)).sum())

    bounds = np.tile([-4.0, 4.0], (2, 1))
    result = de_minimize(rastrigin, bounds, DeConfig(max_generations=50, seed=2))
    assert result.best_objective < 2.0


def test_config_validation():
    for weight in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="latency weight"):
            DeConfig(latency_weight=weight)
    for generations in (0, -3, 2.5, True):
        with pytest.raises(ParameterError, match="generations"):
            DeConfig(max_generations=generations)
    with pytest.raises(ParameterError, match="seed"):
        DeConfig(seed=1.5)
    with pytest.raises(ParameterError):
        de_minimize(sphere, np.array([[1.0, 0.0]]), DeConfig())
    # DE/rand/1 draws three others per member; 0 picks the size from the bounds
    for pop in (1, 3, -1, 4.5):
        with pytest.raises(ParameterError, match="pop_size"):
            DeConfig(pop_size=pop)
    assert DeConfig(pop_size=4).pop_size == 4
    # de_minimize takes one [low, high] row per dimension
    for bounds in ([[np.nan, 1.0]], [[0.5, np.inf]], [[-np.inf, 1.0]],
                   [[0.0, 1.0], [1.0, np.nan]]):
        with pytest.raises(ParameterError, match="finite"):
            de_minimize(sphere, np.array(bounds), DeConfig())
    for bounds in ([[1.0, 0.0]], [1.0, 2.0], [[0.0, 1.0, 2.0]]):
        with pytest.raises(ParameterError, match="bound"):
            de_minimize(sphere, np.array(bounds), DeConfig())
    # DeConfig takes one (low, high) pair, the range of every layer
    for bounds in ((np.nan, 1.0), (0.5, np.inf), (-np.inf, 1.0)):
        with pytest.raises(ParameterError, match="finite"):
            DeConfig(bounds=bounds)
    for bounds in ((1.0, 0.0), (1.0,), (0.0, 1.0, 2.0), [[0.5, 3.0], [0.5, 3.0]]):
        with pytest.raises(ParameterError, match="bound"):
            DeConfig(bounds=bounds)
    assert DeConfig().bounds == (0.3, 3.0)
    assert DeConfig(bounds=np.array([0.5, 0.5])).bounds == (0.5, 0.5)
    bounds = DeConfig(bounds=[1, 3]).bounds
    assert bounds == (1.0, 3.0) and all(type(b) is float for b in bounds)


@pytest.mark.parametrize("kind", ["D-F-BPTT", "S-F-BPTT"])
def test_de_optimize_searches_every_neuron_layer_over_the_one_range(monkeypatch, kind):
    seen = []

    def recording(objective, bounds, config):
        seen.append(np.asarray(bounds).tolist())
        return de_minimize(objective, bounds, config)

    monkeypatch.setattr(tuner, "de_minimize", recording)
    spec = build("lenet5", kind, {"horizon": 3})
    ckpt = Checkpoint(spec=spec, params=init_params(spec, RngStream(0, 1)))
    rng = np.random.default_rng(0)
    ds = Dataset(images=rng.random((8, 1, 28, 28)), labels=rng.integers(0, 10, 8))
    tuned, result = de_optimize(ckpt, ds, DeConfig(pop_size=4, max_generations=1,
                                                   bounds=(0.5, 2.0)))
    assert seen == [[[0.5, 2.0]] * 5]
    assert len(result.best_vector) == 5
    assert all(0.5 <= v <= 2.0 for v in result.best_vector)


def _checkpoint(kind):
    spec = build("mlp2", kind, {"hidden": 8, "horizon": 5})
    return Checkpoint(spec=spec, params=init_params(spec, RngStream(0, 1)))


def test_apply_candidate_deterministic_sets_thresholds():
    tuned = apply_candidate(_checkpoint("D-F-BPTT"), [1.4, 0.6])
    assert [l.v_th for l in tuned.spec.layers] == [1.4, 0.6]
    assert [l.k for l in tuned.spec.layers] == [1.0, 1.0]   # untouched


def test_apply_candidate_stochastic_sets_scale():
    tuned = apply_candidate(_checkpoint("S-F-BPTT"), [2.0, 0.5])
    assert [l.k for l in tuned.spec.layers] == [2.0, 0.5]
    assert [l.v_th for l in tuned.spec.layers] == [1.0, 1.0]


def test_apply_candidate_does_not_mutate_original():
    ckpt = _checkpoint("D-F-BPTT")
    apply_candidate(ckpt, [2.0, 2.0])
    assert [l.v_th for l in ckpt.spec.layers] == [1.0, 1.0]


def test_apply_candidate_dimension_check():
    with pytest.raises(ParameterError):
        apply_candidate(_checkpoint("D-F-BPTT"), [1.0])


def test_validation_subset_fixed_and_seeded():
    from spikefirst.data import Dataset
    rng = np.random.default_rng(0)
    ds = Dataset(images=rng.random((5000, 1, 2, 2)),
                 labels=rng.integers(0, 10, 5000).astype(np.int64))
    a = validation_subset(ds, size=2000, seed=7)
    b = validation_subset(ds, size=2000, seed=7)
    c = validation_subset(ds, size=2000, seed=8)
    assert len(a) == 2000
    assert np.array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)

