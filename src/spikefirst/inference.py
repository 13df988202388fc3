"""Forward-only network execution for evaluation.

First-to-spike mode stops simulating each sample at its first output spike
(the early-exit contract): finished samples are physically removed from the
active batch, so no computation happens for them afterwards.  Rate mode runs
the full horizon and predicts the argmax of the accumulated output.

Tie and timeout rules: if several output neurons fire at the same first
timestep the one with the highest membrane potential (deterministic) or
firing probability (stochastic) wins, lowest index on exact ties; if no
output neuron fires within the horizon the argmax of the accumulated output
membrane potential is predicted and latency is recorded as the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .neurons import sigmoid
from .network import NetworkSpec, synaptic_drive
from .rng import RngStream, rng_gaussian, rng_uniform
from .tensor import pool2d


@dataclass
class InferenceResult:
    predictions: np.ndarray         # (N,) int
    latencies: np.ndarray           # (N,) float, first-spike step or horizon
    steps: np.ndarray               # (N,) int, timesteps actually simulated
    # Per weighted layer, per sample: summed input activation and fan-in size.
    # The input to the first weighted layer is the encoded image itself.
    synaptic_input_sums: list = field(default_factory=list)
    synaptic_input_sizes: list = field(default_factory=list)
    # Per neuron layer, per sample: total output spikes and layer size.
    layer_spike_sums: list = field(default_factory=list)
    layer_sizes: list = field(default_factory=list)


def _feature_sum(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1).sum(axis=1)


def run_network(spec: NetworkSpec, params: dict, images: np.ndarray,
                mode: str = "first-to-spike", horizon: int | None = None,
                seed: int = 0, batch_size: int = 512,
                stream_tag: int = 0, input_noise_std: float = 0.0,
                noise_seed: int = 1234) -> InferenceResult:
    """Simulate the network over a dataset; see module docstring for rules.

    ``images`` is (N, C, H, W) or (N, F); direct encoding applies the image
    as constant drive every step.  ``input_noise_std`` > 0 adds fresh
    elementwise Gaussian noise to the drive at every timestep (drawn for the
    whole batch so a sample's noise does not depend on other samples' early
    exits).  Stochastic draws are keyed by (seed, stream_tag, batch, layer)
    and noise by (noise_seed, batch, timestep), so results are reproducible.
    """
    if mode not in ("first-to-spike", "rate"):
        raise ParameterError(f"unknown inference mode {mode!r}")
    horizon = int(horizon or spec.horizon)
    n_total = images.shape[0]
    if n_total == 0:
        raise ParameterError("empty dataset")

    weighted = [i for i, l in enumerate(spec.layers) if l.kind in ("linear", "conv")]
    neuron_layers = [i for i, l in enumerate(spec.layers) if l.neuron != "none"]
    out_idx = neuron_layers[-1]
    # Without input noise layer 0 sees the same input at every step, so its
    # drive and input sums are computed once per batch.
    hoisted = input_noise_std == 0 and spec.layers[0].kind in ("linear", "conv")

    predictions = np.full(n_total, -1, dtype=np.int64)
    latencies = np.zeros(n_total)
    steps = np.zeros(n_total, dtype=np.int64)
    syn_sums = [np.zeros(n_total) for _ in weighted]
    syn_sizes = [0 for _ in weighted]
    spk_sums = [np.zeros(n_total) for _ in neuron_layers]
    layer_sizes = [0 for _ in neuron_layers]

    for b_start in range(0, n_total, batch_size):
        b_end = min(b_start + batch_size, n_total)
        x0 = np.asarray(images[b_start:b_end], dtype=np.float64)
        nb = b_end - b_start
        active = np.arange(nb)
        if hoisted:
            drive0, flat0 = synaptic_drive(spec.layers[0], params["layer0.w"], x0)
            sum0 = _feature_sum(flat0)
            syn_sizes[0] = int(np.prod(flat0.shape[1:]))
        states: dict[int, tuple] = {}
        out_n = None
        out_acc_v = None
        out_counts = None
        base = RngStream(seed, stream_id=0)

        for t in range(1, horizon + 1):
            all_active = active.size == nb
            if hoisted:
                x = None
            elif input_noise_std > 0:
                noise_stream = RngStream(noise_seed,
                                         stream_id=((b_start + 1) << 16) | t)
                step_noise = rng_gaussian(noise_stream, x0.shape,
                                          0.0, input_noise_std)
                x = x0[active] + step_noise[active]
            else:
                x = x0[active]
            steps[b_start + active] += 1
            wpos = 0
            npos = 0
            out_spikes = out_score = None
            for i, layer in enumerate(spec.layers):
                if layer.kind == "pool":
                    x = pool2d(x, layer.window, layer.pool_mode)
                    continue
                if hoisted and i == 0:
                    # while every sample is active the full arrays need no copy
                    drive = drive0 if all_active else drive0[active]
                    syn_sums[0][b_start + active] += sum0 if all_active else sum0[active]
                else:
                    drive, flat = synaptic_drive(layer, params[f"layer{i}.w"], x)
                    syn_sums[wpos][b_start + active] += _feature_sum(flat)
                    syn_sizes[wpos] = int(np.prod(flat.shape[1:]))
                wpos += 1

                if i not in states:
                    states[i] = (np.zeros_like(drive), np.zeros_like(drive))
                v_prev, fired_prev = states[i]
                if layer.neuron == "det":
                    v = layer.leak * v_prev + drive - fired_prev * layer.v_th
                    spikes = (v >= layer.v_th).astype(np.float64)
                    score = v
                else:
                    v = (layer.leak * v_prev + drive) / layer.k
                    probs = sigmoid(v)
                    stream = base.split(
                        ((stream_tag & 0xFFFF) << 48) | ((b_start & 0xFFFFFFFF) << 16)
                        | (i & 0xFFFF))
                    stream.counter = t
                    spikes = (rng_uniform(stream, probs.shape) < probs).astype(np.float64)
                    score = probs
                states[i] = (v, spikes)
                spk_sums[npos][b_start + active] += _feature_sum(spikes)
                layer_sizes[npos] = int(np.prod(spikes.shape[1:]))
                npos += 1
                if i == out_idx:
                    out_spikes, out_score = spikes, score
                    if out_acc_v is None:
                        out_n = spikes.shape[1]
                        out_acc_v = np.zeros((nb, out_n))
                        out_counts = np.zeros((nb, out_n))
                    out_acc_v[active] += v
                    out_counts[active] += spikes
                x = spikes

            if mode == "first-to-spike":
                fired = out_spikes.any(axis=1)
                if fired.any():
                    masked = np.where(out_spikes[fired] > 0, out_score[fired], -np.inf)
                    winners = masked.argmax(axis=1)
                    done = active[fired]
                    predictions[b_start + done] = winners
                    latencies[b_start + done] = t
                    keep = ~fired
                    active = active[keep]
                    states = {i: (v[keep], s[keep]) for i, (v, s) in states.items()}
                    if active.size == 0:
                        break

        if mode == "first-to-spike":
            if active.size:
                # timeout: fall back to accumulated membrane potential
                predictions[b_start + active] = out_acc_v[active].argmax(axis=1)
                latencies[b_start + active] = horizon
        else:
            predictions[b_start : b_end] = out_counts.argmax(axis=1)
            latencies[b_start : b_end] = horizon

    return InferenceResult(predictions=predictions, latencies=latencies, steps=steps,
                           synaptic_input_sums=syn_sums, synaptic_input_sizes=syn_sizes,
                           layer_spike_sums=spk_sums, layer_sizes=layer_sizes)
