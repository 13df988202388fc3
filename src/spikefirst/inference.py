"""Forward-only network execution for evaluation.

First-to-spike mode stops simulating each sample at its first output spike
(the early-exit contract): finished samples are physically removed from the
active batch, with their layer states and hoisted layer-0 drive, so no
computation happens for them afterwards.  Rate mode runs
the full horizon and predicts the argmax of the accumulated output spikes.

Tie and timeout rules: if several output neurons fire at the same first
timestep the one with the highest membrane potential (deterministic) or
firing probability (stochastic) wins, lowest index on exact ties; if no
output neuron fires within the horizon the argmax of the accumulated output
membrane potential is predicted and latency is recorded as the horizon.
A sample is simulated for exactly its latency steps.  Activity is reported
as totals over all samples and simulated steps: one for the clean input
image and one per layer, the spikes of a neuron layer or the output of a
pool layer.

Evaluation runs block-major.  Layer 0's clean drive is one GEMM or conv per
batch of ``network.batch_rows`` rows, which that function works out from
the network and the image shape; the batch is then cut into row blocks, and
each block runs all of its timesteps, with its own active set, layer states
and output accumulator, before the next block starts.  A block is sized so
that its widest neuron layer's membrane, spike and drive arrays fit a 2 MiB
L2 cache (``network.block_rows``, which training shares), so its state
stays in cache from one step to the next instead of streaming through
memory at every step.  Rows are independent, and every random draw is keyed
by the sample's index in the dataset, so no draw depends on the blocking or
the batch.
Only a noisy run keeps one block per batch: it recomputes layer 0's drive at
every step, a GEMM that gets too thin in small blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, integer
from .heap import simulating
# sigmoid is re-exported: bench/test_bench.py reaches it through this module
from .neurons import LayerState, sigmoid  # noqa: F401
from .network import CODINGS, NetworkSpec, batch_rows, block_rows, step, synaptic_drive
from .rng import RngStream, rng_gaussian


@dataclass
class InferenceResult:
    predictions: np.ndarray         # (N,) int
    latencies: np.ndarray           # (N,) float, first-spike step or horizon
    steps: np.ndarray               # (N,) int, timesteps simulated: the latency
    # Summed over samples and simulated steps: the clean input image (input
    # noise not counted), and per spec layer its output, the spikes of a
    # neuron layer or the pooled values of a pool layer.
    input_total: float = 0.0
    layer_totals: list = field(default_factory=list)


@simulating()
def run_network(spec: NetworkSpec, params: dict, images: np.ndarray,
                mode: str = "first-to-spike", horizon: int | None = None,
                seed: int = 0, input_noise_std: float = 0.0,
                noise_seed: int = 1234) -> InferenceResult:
    """Simulate the network over a dataset; see module docstring for rules.

    ``images`` is (N, C, H, W) or (N, F); direct encoding applies the image
    as constant drive every step, so layer 0's drive is computed once per
    batch.  ``input_noise_std`` > 0 adds fresh elementwise Gaussian noise to
    the image at every timestep, drawn only for the samples still active, and
    layer 0's drive is then computed at every step.  The Bernoulli draws of
    sample i in layer l at step t are keyed by (seed, l, t, i) and its noise
    by (noise_seed, i, t), where i is the sample's index in ``images``: a
    sample's draws depend neither on the batch size nor on which other
    samples exited, and results are reproducible.

    A batch of ``network.batch_rows`` rows is simulated at a time, which
    bounds memory to one batch's layer-0 drive and state.  Within a batch
    the network is simulated block-major (see the module docstring), each
    block of ``network.block_rows`` rows through all its steps.  A noisy
    run, whose layer-0 GEMM runs at every step, takes one block per batch.
    """
    if mode not in CODINGS:
        raise ParameterError(f"unknown inference mode {mode!r}")
    horizon = spec.horizon if horizon is None else integer(horizon, "horizon", 1)
    seed, noise_seed = integer(seed, "seed"), integer(noise_seed, "noise seed")
    if not (math.isfinite(input_noise_std) and input_noise_std >= 0):
        raise ParameterError(f"input noise std must be finite and >= 0, "
                             f"got {input_noise_std}")
    n_total = images.shape[0]
    if n_total == 0:
        raise ParameterError("empty dataset")

    fts = mode == "first-to-spike"

    predictions = np.full(n_total, -1, dtype=np.int64)
    latencies = np.full(n_total, float(horizon))
    totals = [0.0 for _ in spec.layers]
    # layer 0's clean input is the same at every step: its total is summed per sample
    row_sums0 = np.zeros(n_total)
    # step t draws every sample's noise at counter t, one keyed row per sample
    noise = RngStream(noise_seed) if input_noise_std > 0 else None

    batch = batch_rows(spec, images.shape[-2:])
    # blocking would thin a noisy run's per-step GEMM: it keeps one block per batch
    block = batch if noise is not None else block_rows(spec, images.shape[-2:])

    for b_start in range(0, n_total, batch):
        b_end = min(b_start + batch, n_total)
        x_batch = np.asarray(images[b_start:b_end], dtype=np.float64)
        row_sums0[b_start:b_end] = x_batch.reshape(b_end - b_start, -1).sum(axis=1)
        drive_batch = None
        if noise is None:
            # layer 0's drive is the same at every step: one GEMM or conv per
            # batch, of which each block compacts its own rows as samples exit
            drive_batch = synaptic_drive(spec.layers[0], params["layer0.w"], x_batch)

        for r_start in range(0, b_end - b_start, block):
            x0 = x_batch[r_start:r_start + block]
            drive0 = None if noise is not None else drive_batch[r_start:r_start + block]
            # the active samples' indices in images, which key their draws
            ids = b_start + r_start + np.arange(len(x0))
            states = {}
            # the active samples' summed output: membrane potential in
            # first-to-spike mode (for timeouts), spike counts in rate mode
            out_acc = None
            # a stochastic layer draws once per step, so step t draws at counter t
            streams = [RngStream(seed, i, counter=1) for i, _ in spec.weighted_layers()]

            for t in range(1, horizon + 1):
                if noise is not None:
                    # fresh noise for the active samples, whose images x0 holds
                    drive0 = None       # frees the last step's drive before the next
                    noise.counter = t
                    drive0 = synaptic_drive(spec.layers[0], params["layer0.w"],
                                            x0 + rng_gaussian(noise, x0.shape, input_noise_std,
                                                              rows=ids))
                for i, (v, out, probs) in enumerate(step(spec, params, drive0, states,
                                                         streams, ids)):
                    totals[i] += out.sum()
                # the output layer's; the next step overwrites these buffers
                out_v, out_spikes, out_probs = v, out, probs
                if out_acc is None:
                    out_acc = np.zeros_like(out_v)
                out_acc += out_v if fts else out_spikes

                if fts:
                    fired = out_spikes.any(axis=1)
                    if fired.any():
                        out_score = out_v if out_probs is None else out_probs
                        masked = np.where(out_spikes[fired] > 0, out_score[fired], -np.inf)
                        done = ids[fired]
                        predictions[done] = masked.argmax(axis=1)
                        latencies[done] = t
                        keep = ~fired
                        ids = ids[keep]
                        out_acc = out_acc[keep]
                        states = {i: LayerState(v=s.v[keep], fired_prev=s.fired_prev[keep])
                                  for i, s in states.items()}
                        if noise is None:
                            drive0 = drive0[keep]
                        else:
                            x0 = x0[keep]
                        if ids.size == 0:
                            break

            # first-to-spike timeouts, or every sample in rate mode
            predictions[ids] = out_acc.argmax(axis=1)

    return InferenceResult(predictions=predictions, latencies=latencies,
                           steps=latencies.astype(np.int64),
                           input_total=float((row_sums0 * latencies).sum()),
                           layer_totals=[float(t) for t in totals])
