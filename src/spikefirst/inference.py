"""Forward-only network execution for evaluation.

First-to-spike mode stops simulating each sample at its first output spike
(the early-exit contract): finished samples are physically removed from the
active batch, so no computation happens for them afterwards.  Rate mode runs
the full horizon and predicts the argmax of the accumulated output spikes.

Tie and timeout rules: if several output neurons fire at the same first
timestep the one with the highest membrane potential (deterministic) or
firing probability (stochastic) wins, lowest index on exact ties; if no
output neuron fires within the horizon the argmax of the accumulated output
membrane potential is predicted and latency is recorded as the horizon.
A sample is simulated for exactly its latency steps.  Spike and input
activity are per-layer totals over all samples and simulated steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
# sigmoid is re-exported: bench/test_bench.py reaches it through this module
from .neurons import LayerState, sigmoid  # noqa: F401
from .network import NetworkSpec, step, synaptic_drive
from .rng import RngStream, rng_gaussian


@dataclass
class InferenceResult:
    predictions: np.ndarray         # (N,) int
    latencies: np.ndarray           # (N,) float, first-spike step or horizon
    steps: np.ndarray               # (N,) int, timesteps simulated: the latency
    # Per weighted layer: input activation summed over samples and simulated
    # steps, and fan-in size.  The input to the first weighted layer is the
    # encoded image itself.
    synaptic_input_sums: list = field(default_factory=list)
    synaptic_input_sizes: list = field(default_factory=list)
    # Per neuron layer: output spikes summed over samples and simulated steps,
    # and layer size.
    layer_spike_sums: list = field(default_factory=list)
    layer_sizes: list = field(default_factory=list)


def run_network(spec: NetworkSpec, params: dict, images: np.ndarray,
                mode: str = "first-to-spike", horizon: int | None = None,
                seed: int = 0, batch_size: int = 512, input_noise_std: float = 0.0,
                noise_seed: int = 1234) -> InferenceResult:
    """Simulate the network over a dataset; see module docstring for rules.

    ``images`` is (N, C, H, W) or (N, F); direct encoding applies the image
    as constant drive every step.  ``input_noise_std`` > 0 adds fresh
    elementwise Gaussian noise to the drive at every timestep, drawn only for
    the samples still active.  Stochastic draws are keyed by (seed, batch,
    layer) and the noise of sample i at step t by (noise_seed, i, t), where i
    is the sample's index in ``images``: a sample's noise depends neither on
    the batch size nor on which other samples exited, and results are
    reproducible.
    """
    if mode not in ("first-to-spike", "rate"):
        raise ParameterError(f"unknown inference mode {mode!r}")
    horizon = spec.horizon if horizon is None else int(horizon)
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    if batch_size < 1:
        raise ParameterError(f"batch size must be >= 1, got {batch_size}")
    if not (math.isfinite(input_noise_std) and input_noise_std >= 0):
        raise ParameterError(f"input noise std must be finite and >= 0, "
                             f"got {input_noise_std}")
    n_total = images.shape[0]
    if n_total == 0:
        raise ParameterError("empty dataset")

    fts = mode == "first-to-spike"
    weighted = [i for i, l in enumerate(spec.layers) if l.kind in ("linear", "conv")]
    neuron_layers = [i for i, l in enumerate(spec.layers) if l.neuron != "none"]
    stochastic = any(spec.layers[i].neuron == "stoch" for i in neuron_layers)
    # Without input noise layer 0 sees the same input at every step, so its
    # drive is computed once per batch and its input total once per sample.
    hoisted = input_noise_std == 0 and spec.layers[0].kind in ("linear", "conv")

    predictions = np.full(n_total, -1, dtype=np.int64)
    latencies = np.full(n_total, float(horizon))
    syn_sums = [0.0 for _ in weighted]
    syn_sizes = [0 for _ in weighted]
    spk_sums = [0.0 for _ in neuron_layers]
    layer_sizes = [0 for _ in neuron_layers]
    row_sums0 = np.zeros(n_total) if hoisted else None
    # step t draws every sample's noise at counter t, one keyed row per sample
    noise = RngStream(noise_seed) if input_noise_std > 0 else None

    for b_start in range(0, n_total, batch_size):
        b_end = min(b_start + batch_size, n_total)
        x0 = np.asarray(images[b_start:b_end], dtype=np.float64)
        nb = b_end - b_start
        active = np.arange(nb)
        if hoisted:
            full_drive0 = synaptic_drive(spec.layers[0], params["layer0.w"], x0)
            row_sums0[b_start:b_end] = x0.reshape(nb, -1).sum(axis=1)
            syn_sizes[0] = math.prod(x0.shape[1:])
        states = {}
        # the active samples' summed output: membrane potential in
        # first-to-spike mode (for timeouts), spike counts in rate mode
        out_acc = 0.0
        streams = None
        if stochastic:
            # each stochastic layer draws once per step, so step t draws at
            # counter t
            key = (b_start & 0xFFFFFFFF) << 16
            streams = [RngStream(seed, key | (i & 0xFFFF), counter=1)
                       for i in neuron_layers]

        for t in range(1, horizon + 1):
            x = drive0 = None       # frees the last step's input before the next
            if hoisted:
                # while every sample is active the full array needs no copy
                drive0 = full_drive0 if active.size == nb else full_drive0[active]
            else:
                x = x0[active]
            if noise is not None:
                noise.counter = t
                x += rng_gaussian(noise, x.shape, input_noise_std, rows=b_start + active)
            # every weighted layer is a neuron layer, so one position walks both
            pos = 0
            spike_sum = None        # of the layer just before, if a neuron layer
            for inp, v, spikes, probs in step(spec, params, x, states, streams, drive0):
                if v is None:           # pool layer
                    spike_sum = None
                    continue
                if inp is not None:     # layer 0 driven by drive0 is summed per sample
                    # a layer fed straight by a neuron layer reads its spikes
                    syn_sums[pos] += inp.sum() if spike_sum is None else spike_sum
                    syn_sizes[pos] = math.prod(inp.shape[1:])
                spike_sum = spikes.sum()
                spk_sums[pos] += spike_sum
                layer_sizes[pos] = math.prod(spikes.shape[1:])
                pos += 1
                out_v, out_spikes, out_probs = v, spikes, probs
            out_acc = out_acc + (out_v if fts else out_spikes)

            if fts:
                fired = out_spikes.any(axis=1)
                if fired.any():
                    out_score = out_v if out_probs is None else out_probs
                    masked = np.where(out_spikes[fired] > 0, out_score[fired], -np.inf)
                    done = b_start + active[fired]
                    predictions[done] = masked.argmax(axis=1)
                    latencies[done] = t
                    keep = ~fired
                    active = active[keep]
                    out_acc = out_acc[keep]
                    states = {i: LayerState(v=s.v[keep], fired_prev=s.fired_prev[keep])
                              for i, s in states.items()}
                    if active.size == 0:
                        break

        # first-to-spike timeouts, or every sample in rate mode
        predictions[b_start + active] = out_acc.argmax(axis=1)

    if hoisted:
        syn_sums[0] = (row_sums0 * latencies).sum()
    return InferenceResult(predictions=predictions, latencies=latencies,
                           steps=latencies.astype(np.int64),
                           synaptic_input_sums=[float(s) for s in syn_sums],
                           synaptic_input_sizes=syn_sizes,
                           layer_spike_sums=[float(s) for s in spk_sums],
                           layer_sizes=layer_sizes)
