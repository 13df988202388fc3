"""Gradient-free differential evolution over per-layer neuron parameters.

After BPTT training, the layerwise firing thresholds (deterministic models)
or membrane scales (stochastic models) are tuned with DE/rand/1/bin against
an accuracy-latency tradeoff objective evaluated on a held-out subset of the
training split:

    objective = (1 - accuracy) + beta * mean_first_spike_latency / T

Synchronous DE with greedy selection: the best member can never get worse,
so the best-objective history is monotone non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .checkpoint import Checkpoint
from .data import Dataset
from .errors import ParameterError
from .inference import run_network
from .rng import RngStream, rng_uniform

DEFAULT_F = 0.5                     # DE/rand/1/bin mutation factor
DEFAULT_CR = 0.7                    # and crossover rate
DEFAULT_GENERATIONS = 30
VALIDATION_SIZE = 2000
EVAL_SEED = 99                      # fixed seed of every candidate's evaluation


@dataclass
class DeConfig:
    pop_size: int = 0               # 0: 15 * dims, capped at 60
    max_generations: int = DEFAULT_GENERATIONS
    bounds: np.ndarray | None = None  # (dims, 2)
    latency_weight: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_generations < 1:
            raise ParameterError(f"max generations must be >= 1, got {self.max_generations}")
        if not 0.0 <= self.latency_weight < np.inf:
            raise ParameterError(f"latency weight must be finite and >= 0, "
                                 f"got {self.latency_weight}")


@dataclass
class DeResult:
    best_vector: np.ndarray
    best_objective: float
    history: list = field(default_factory=list)   # per-generation best objective
    vectors: list = field(default_factory=list)   # per-generation best vector


def _resolve_pop(config: DeConfig, dims: int) -> int:
    pop = config.pop_size or min(15 * dims, 60)
    if pop < 4:
        raise ParameterError(f"pop_size must be >= 4 for DE/rand/1, got {pop}")
    return pop


def de_minimize(objective, bounds, config: DeConfig) -> DeResult:
    """Minimize a black-box objective with DE/rand/1/bin within bounds.

    ``bounds`` is a (dims, 2) array of [low, high] per dimension.
    Deterministic given ``config.seed``.
    """
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or np.any(bounds[:, 0] > bounds[:, 1]):
        raise ParameterError(f"invalid bounds array with shape {bounds.shape}")
    if not np.isfinite(bounds).all():
        raise ParameterError(f"bounds must be finite, got {bounds.tolist()}")
    dims = bounds.shape[0]
    low, high = bounds[:, 0], bounds[:, 1]
    if np.all(low == high):
        # degenerate search space: the single feasible point is the answer
        vec = low.copy()
        val = float(objective(vec))
        return DeResult(best_vector=vec, best_objective=val, history=[val], vectors=[vec])

    pop_size = _resolve_pop(config, dims)
    stream = RngStream(config.seed, stream_id=7)
    pop = low + rng_uniform(stream, (pop_size, dims)) * (high - low)
    fitness = np.array([objective(pop[i]) for i in range(pop_size)], dtype=np.float64)

    history = []
    vectors = []
    for _ in range(config.max_generations):
        draws = rng_uniform(stream, (pop_size, dims + 4))
        trials = np.empty_like(pop)
        for i in range(pop_size):
            # three distinct donors, all different from the target
            others = [j for j in range(pop_size) if j != i]
            picks = draws[i, :3]
            a = others[int(picks[0] * len(others)) % len(others)]
            rem = [j for j in others if j != a]
            b = rem[int(picks[1] * len(rem)) % len(rem)]
            rem2 = [j for j in rem if j != b]
            c = rem2[int(picks[2] * len(rem2)) % len(rem2)]
            mutant = pop[a] + DEFAULT_F * (pop[b] - pop[c])
            cross = draws[i, 4:] < DEFAULT_CR
            jrand = int(draws[i, 3] * dims) % dims
            cross[jrand] = True      # at least one gene from the mutant
            trial = np.where(cross, mutant, pop[i])
            trials[i] = np.clip(trial, low, high)
        # synchronous selection after the full generation is built
        for i in range(pop_size):
            val = float(objective(trials[i]))
            if val <= fitness[i]:
                pop[i] = trials[i]
                fitness[i] = val
        best = int(fitness.argmin())
        history.append(float(fitness[best]))
        vectors.append(pop[best].copy())

    best = int(fitness.argmin())
    return DeResult(best_vector=pop[best].copy(), best_objective=float(fitness[best]),
                    history=history, vectors=vectors)


def _tuned_param_key(ckpt: Checkpoint) -> str:
    return "k" if ckpt.spec.model_kind.startswith("S") else "v_th"


def apply_candidate(ckpt: Checkpoint, vector) -> Checkpoint:
    """Checkpoint copy with per-layer thresholds/scales from ``vector``."""
    key = _tuned_param_key(ckpt)
    spec = ckpt.spec
    neuron_idx = [i for i, l in enumerate(spec.layers) if l.neuron != "none"]
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (len(neuron_idx),):
        raise ParameterError(f"candidate needs {len(neuron_idx)} values, got {vector.shape}")
    layers = list(spec.layers)
    for idx, val in zip(neuron_idx, vector):
        layers[idx] = dc_replace(layers[idx], **{key: float(val)})
    new_spec = dc_replace(spec, layers=layers)
    return dc_replace(ckpt, spec=new_spec)


def tradeoff_objective(ckpt: Checkpoint, candidate_vector, eval_subset: Dataset,
                       beta: float = 0.1) -> float:
    """(1 - accuracy) + beta * mean_latency / T on the validation subset,
    stochastic draws keyed by ``EVAL_SEED``."""
    cand = apply_candidate(ckpt, candidate_vector)
    res = run_network(cand.spec, cand.params, eval_subset.images,
                      mode="first-to-spike", seed=EVAL_SEED)
    accuracy = float((res.predictions == eval_subset.labels).mean())
    latency = float(res.latencies.mean())
    return (1.0 - accuracy) + beta * latency / cand.spec.horizon


def validation_subset(train_ds: Dataset, size: int = VALIDATION_SIZE,
                      seed: int = 0) -> Dataset:
    """Seeded fixed subset of the training split used for DE evaluation."""
    stream = RngStream(seed, stream_id=101)
    order = np.argsort(rng_uniform(stream, (len(train_ds),)), kind="stable")
    return train_ds.subset(order[: min(size, len(train_ds))])


def de_optimize(ckpt: Checkpoint, train_ds: Dataset, config: DeConfig):
    """Tune per-layer thresholds/scales of a trained checkpoint.

    Returns (tuned_checkpoint, DeResult).  Bounds default to [0.3, 3.0] per
    neuron layer when not supplied.
    """
    n_layers = len(ckpt.spec.neuron_layers())
    bounds = config.bounds
    if bounds is None:
        bounds = np.tile([0.3, 3.0], (n_layers, 1))
    subset = validation_subset(train_ds, seed=config.seed)
    objective = lambda vec: tradeoff_objective(  # noqa: E731
        ckpt, vec, subset, beta=config.latency_weight)
    result = de_minimize(objective, bounds, config)
    return apply_candidate(ckpt, result.best_vector), result


def write_de_csv(result: DeResult, path) -> None:
    with open(path, "w") as f:
        dims = len(result.best_vector)
        cols = ",".join(f"v{i}" for i in range(dims))
        f.write(f"generation,best_objective,{cols}\n")
        for g, (obj, vec) in enumerate(zip(result.history, result.vectors), start=1):
            vals = ",".join(f"{v:.8g}" for v in vec)
            f.write(f"{g},{obj:.8g},{vals}\n")
