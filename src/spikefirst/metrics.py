"""Evaluation suite: accuracy, latency, sparsity, energy cost, noise sweep.

Energy cost is the compute count of the spiking network relative to an
iso-architecture non-spiking network:

    E = sum_{i=2..L} S_{i-1} * T * OP_i / sum_{j=2..L} OP_j

with S the mean spiking rate of the layer feeding layer i, T the timesteps
used at inference, and OP the multiply-accumulate count of layer i: its
output size times its fan-in, for linear and conv layers alike.  With
direct (analog) input encoding the input layer has no binary spikes; its mean
activation value stands in for S_1.  For first-to-spike models each sample is
simulated only up to its own first output spike, so S * T collapses to
spikes-per-neuron actually emitted, averaged over samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .data import Dataset
from .errors import ParameterError
from .inference import run_network
from .network import NetworkSpec, layer_shapes, weight_shape


@dataclass
class MetricsReport:
    accuracy: float
    mean_latency: float
    layer_rates: list            # [input activation rate, then per neuron layer]
    energy_cost: float
    n_samples: int
    mode: str = "first-to-spike"
    horizon: int = 0


def network_op_counts(spec: NetworkSpec, input_hw: tuple) -> list:
    """OP_i for every weighted layer: output size times fan-in."""
    shapes = layer_shapes(spec, input_hw)
    return [math.prod(shapes[i]) * math.prod(weight_shape(layer)[1:])
            for i, layer in spec.weighted_layers()]


def energy_cost(layer_rates, horizon: float, layer_op_counts) -> float:
    """E = sum_i S_{i-1} * T * OP_i / sum_j OP_j (rates indexed from the input)."""
    rates = np.asarray(layer_rates, dtype=np.float64)
    ops = np.asarray(layer_op_counts, dtype=np.float64)
    if len(rates) != len(ops):
        raise ParameterError(f"need one feeding rate per weighted layer: "
                             f"{len(rates)} rates vs {len(ops)} op counts")
    total = ops.sum()
    if total == 0:
        raise ParameterError("all layer op counts are zero")
    return float((rates * horizon * (ops / total)).sum())


def evaluate(ckpt: Checkpoint, dataset: Dataset, mode: str = "first-to-spike",
             horizon: int | None = None) -> MetricsReport:
    """Run the test protocol and assemble the tradeoff report.

    First-to-spike mode early-exits per sample; rate mode runs a fixed
    horizon (pass ``horizon`` to override the spec's).  Stochastic draws are
    keyed by the checkpoint's training seed.
    """
    spec = ckpt.spec
    res = run_network(spec, ckpt.params, dataset.images, mode=mode,
                      horizon=horizon, seed=ckpt.seed)
    accuracy = float((res.predictions == dataset.labels).mean())
    mean_latency = float(res.latencies.mean())
    total_steps = res.steps.sum()
    input_hw = dataset.images.shape[-2:]
    # Rates are activity per unit and step simulated: the rate feeding each
    # weighted layer (the input activation rate first) for the energy, and
    # the input rate then each neuron layer's rate for the report.
    input_rate = float(res.input_total / (math.prod(dataset.images.shape[1:]) * total_steps))
    layer_rates = [float(total / (math.prod(shape) * total_steps))
                   for total, shape in zip(res.layer_totals, layer_shapes(spec, input_hw))]
    feeding = [input_rate] + [layer_rates[i - 1] for i, _ in spec.weighted_layers()[1:]]
    rates = [input_rate] + [layer_rates[i] for i, _ in spec.weighted_layers()]
    energy = energy_cost(feeding, total_steps / len(dataset),
                         network_op_counts(spec, input_hw))
    return MetricsReport(accuracy=accuracy, mean_latency=mean_latency,
                         layer_rates=rates, energy_cost=energy,
                         n_samples=len(dataset), mode=mode,
                         horizon=int(horizon or spec.horizon))


def noise_variances(values) -> list:
    """``values`` as floats, each a finite variance >= 0, else ParameterError
    (an empty string too): the one rule that ``noise_sweep`` and the
    ``noise`` command's ``--variances`` list read variances by."""
    variances = []
    for value in values:
        try:
            var = float(value)
        except (TypeError, ValueError):
            raise ParameterError(f"variance must be a number, got {value!r}") from None
        if not (math.isfinite(var) and var >= 0):
            raise ParameterError(f"variance must be finite and >= 0, got {var}")
        variances.append(var)
    return variances


def noise_sweep(ckpt: Checkpoint, dataset: Dataset, variances,
                seed: int = 1234) -> list:
    """Accuracy under additive elementwise Gaussian input noise.

    Noise with the given variances is added to the normalized input drive,
    redrawn at every timestep (no clipping, so the effective noise power is
    exactly as configured); variance 0 reuses the clean inputs bit-for-bit.
    Per-step redrawing is what lets rate-coded models average perturbations
    out over their horizon while first-to-spike models, which commit at the
    first output spike, cannot.  Rate models are run in rate mode, the others
    in first-to-spike mode.  One sweep draws one set of standard normals,
    keyed by (seed, sample index, step), and scales it by each variance's
    std: a variance's row depends neither on the other variances nor on the
    batch size.  Returns a list of (variance, accuracy) pairs.
    """
    rows = []
    for var in noise_variances(variances):
        res = run_network(ckpt.spec, ckpt.params, dataset.images, mode=ckpt.spec.coding,
                          seed=ckpt.seed, input_noise_std=np.sqrt(var),
                          noise_seed=seed)
        rows.append((var, float((res.predictions == dataset.labels).mean())))
    return rows

