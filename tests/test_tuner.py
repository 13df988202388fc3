"""Differential evolution on analytic objectives plus checkpoint threshold tuning."""

import numpy as np
import pytest

from spikefirst.checkpoint import Checkpoint
from spikefirst.errors import ParameterError
from spikefirst.network import build, init_params
from spikefirst.rng import RngStream
from spikefirst.tuner import (DeConfig, apply_candidate, de_minimize,
                              validation_subset, write_de_csv)


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
    for generations in (0, -3):
        with pytest.raises(ParameterError, match="generations"):
            DeConfig(max_generations=generations)
    with pytest.raises(ParameterError):
        de_minimize(sphere, np.array([[1.0, 0.0]]), DeConfig())
    with pytest.raises(ParameterError):
        de_minimize(sphere, np.tile([0.0, 1.0], (2, 1)), DeConfig(pop_size=3))
    for bounds in ([[np.nan, 1.0]], [[0.5, np.inf]], [[-np.inf, 1.0]],
                   [[0.0, 1.0], [1.0, np.nan]]):
        with pytest.raises(ParameterError, match="finite"):
            de_minimize(sphere, np.array(bounds), DeConfig())


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


def test_write_de_csv(tmp_path):
    from spikefirst.tuner import DeResult
    result = DeResult(best_vector=np.array([1.0, 2.0]), best_objective=0.5,
                      history=[1.0, 0.5], vectors=[np.array([0.0, 0.0]),
                                                   np.array([1.0, 2.0])])
    write_de_csv(result, tmp_path / "de.csv")
    lines = (tmp_path / "de.csv").read_text().splitlines()
    assert lines[0] == "generation,best_objective,v0,v1"
    assert lines[2] == "2,0.5,1,2"
