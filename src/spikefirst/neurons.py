"""Deterministic and stochastic leaky integrate-and-fire layer dynamics.

This module is the only definition of the LIF update: training
(``network.forward``) and evaluation (``inference.run_network``) both advance
their neurons through ``det_lif_step`` and ``stoch_lif_step``, which read the
threshold ``v_th``, membrane scale ``k`` and ``leak`` from the layer's
``LayerSpec``.  Both advance the ``LayerState`` they are given in its own
``v`` and ``fired_prev`` buffers, so a layer's state lives in the same two
buffers for a whole simulation and no step allocates a membrane or spike
array.

The deterministic neuron integrates leaky state plus synaptic drive, fires at
a hard threshold, and soft-resets by subtracting the threshold one step after
the crossing, carrying any residual potential forward:

    V_t = leak * V_{t-1} + drive - fired_prev * v_th
    spike_t = [V_t >= v_th]

The stochastic neuron scales its membrane potential and fires as a Bernoulli
draw of a sigmoid firing probability (no reset term; draws keyed by sample):

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
        # C order: the stochastic step draws its uniforms into fired_prev
        self.v = np.asarray(self.v, dtype=np.float64, order="C")
        if self.fired_prev is None:
            self.fired_prev = np.zeros_like(self.v)
        else:
            self.fired_prev = np.asarray(self.fired_prev, dtype=np.float64, order="C")
            if self.fired_prev.shape != self.v.shape:
                raise ShapeError(f"fired_prev shape {self.fired_prev.shape} != "
                                 f"v shape {self.v.shape}")


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
    """The step's drive as float64, checked against the state's shape."""
    drive = np.asarray(drive, dtype=np.float64)
    if drive.shape != state.v.shape:
        raise ShapeError(f"drive shape {drive.shape} != state shape {state.v.shape}")
    return drive


def det_lif_step(state: LayerState, layer, drive: np.ndarray) -> np.ndarray:
    """Advance ``state`` by one deterministic LIF timestep of ``layer`` (a
    LayerSpec); returns the spikes, which are ``state.fired_prev``.

    Evaluated as ((leak * V) + drive) - (fired_prev * v_th) in the state's
    two buffers: ``v`` takes the sum, ``fired_prev`` first the reset term and
    then the comparison ``v >= v_th`` as 0.0 / 1.0.  ``drive`` is only read;
    ``inference.run_network`` passes one hoisted drive at every step.
    """
    drive = _drive(state, drive)
    np.multiply(layer.leak, state.v, out=state.v)
    state.v += drive
    np.multiply(state.fired_prev, layer.v_th, out=state.fired_prev)
    state.v -= state.fired_prev
    np.greater_equal(state.v, layer.v_th, out=state.fired_prev)
    return state.fired_prev


def stoch_lif_step(state: LayerState, layer, drive: np.ndarray, stream: RngStream,
                   *, rows):
    """Advance ``state`` by one stochastic LIF timestep of ``layer`` (a
    LayerSpec); returns (spikes, probs).

    Row i draws ``stream``'s keyed uniforms for sample id ``rows[i]``.  As in
    ``det_lif_step``, ``spikes`` is ``state.fired_prev`` and ``drive`` is only
    read; ``probs`` is a new array.
    """
    drive = _drive(state, drive)
    # (leak * V + drive) / k, evaluated in that order in v's own buffer
    np.multiply(layer.leak, state.v, out=state.v)
    state.v += drive
    state.v /= layer.k
    probs = sigmoid(state.v)
    # the draw's buffer receives its own comparison as 0.0 / 1.0
    spikes = rng_uniform(stream, probs.shape, rows=rows, out=state.fired_prev)
    np.less(spikes, probs, out=spikes)
    return spikes, probs


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
