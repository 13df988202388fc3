"""Deterministic and stochastic leaky integrate-and-fire layer dynamics.

This module is the only definition of the LIF update: training
(``network.forward``) and evaluation (``inference.run_network``) both advance
their neurons through ``det_lif_step`` and ``stoch_lif_step``, which read the
threshold ``v_th``, membrane scale ``k`` and ``leak`` from the layer's
``LayerSpec``.

The deterministic neuron integrates leaky state plus synaptic drive, fires at
a hard threshold, and soft-resets by subtracting the threshold one step after
the crossing, carrying any residual potential forward:

    V_t = leak * V_{t-1} + drive - fired_prev * v_th
    spike_t = [V_t >= v_th]

The stochastic neuron scales its membrane potential and fires as a Bernoulli
draw of a sigmoid firing probability (no reset term):

    V_t = (leak * V_{t-1} + drive) / k
    p_t = sigmoid(V_t),   spike_t ~ Bernoulli(p_t)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .rng import RngStream, rng_uniform


@dataclass
class LayerState:
    """Per-neuron membrane potentials and the previous-step firing mask."""

    v: np.ndarray
    fired_prev: np.ndarray = field(default=None)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.fired_prev is None:
            self.fired_prev = np.zeros_like(self.v)
        else:
            self.fired_prev = np.asarray(self.fired_prev, dtype=np.float64)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-x))`` in float64, built in one buffer.

    Below x = -709.78, ``exp(-x)`` overflows to inf and the result is 0, where
    the true value is under 5.6e-309; that overflow is expected and its
    warning suppressed.  NaN propagates.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.negative(x, out=np.empty(x.shape))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _drive(state: LayerState, drive) -> np.ndarray:
    drive = np.asarray(drive, dtype=np.float64)
    if drive.shape != state.v.shape:
        raise ShapeError(f"drive shape {drive.shape} != state shape {state.v.shape}")
    return drive


def det_lif_step(state: LayerState, layer, drive: np.ndarray):
    """One deterministic LIF timestep of ``layer`` (a LayerSpec); returns
    (new_state, spikes)."""
    drive = _drive(state, drive)
    v = layer.leak * state.v + drive - state.fired_prev * layer.v_th
    spikes = (v >= layer.v_th).astype(np.float64)
    return LayerState(v=v, fired_prev=spikes), spikes


def stoch_lif_step(state: LayerState, layer, drive: np.ndarray, stream: RngStream):
    """One stochastic LIF timestep of ``layer`` (a LayerSpec); returns
    (new_state, spikes, probs)."""
    drive = _drive(state, drive)
    # (leak * V + drive) / k, evaluated in that order in v's own buffer
    v = layer.leak * state.v
    v += drive
    v /= layer.k
    probs = sigmoid(v)
    # the draw's buffer receives its own comparison as 0.0 / 1.0
    spikes = rng_uniform(stream, probs.shape)
    np.less(spikes, probs, out=spikes)
    return LayerState(v=v, fired_prev=spikes), spikes, probs


def first_spike_times(spikes) -> np.ndarray:
    """Earliest firing time per neuron, 1-indexed along the first (time) axis.

    Neurons that never fire within the horizon get the sentinel time T + 1,
    which strictly exceeds every real spike time so that downstream softmax
    scoring penalizes silence.
    """
    spikes = np.asarray(spikes)
    t = spikes.shape[0]
    fired = spikes > 0
    any_fired = fired.any(axis=0)
    first = fired.argmax(axis=0) + 1
    return np.where(any_fired, first, t + 1).astype(np.float64)
