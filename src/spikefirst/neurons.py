"""Deterministic and stochastic leaky integrate-and-fire layer dynamics.

This module is the only definition of the LIF update: training
(``network.forward``) and evaluation (``inference.run_network``) both advance
their neurons through ``det_lif_step`` and ``stoch_lif_step``, which read the
threshold ``v_th``, membrane scale ``k`` and ``leak`` from the layer's
``LayerSpec``.  Both return a new state in new buffers, or, given
``out=``, write it into that state's own ``v`` and ``fired_prev``:
``network.step`` passes ``out=state`` so that a layer's state lives in the
same two buffers for a whole simulation.

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


def _operands(state: LayerState, drive, out: LayerState | None):
    """The step's drive as float64 and the state that receives the step."""
    drive = np.asarray(drive, dtype=np.float64)
    if drive.shape != state.v.shape:
        raise ShapeError(f"drive shape {drive.shape} != state shape {state.v.shape}")
    if out is None:
        out = LayerState(v=np.empty(drive.shape), fired_prev=np.empty(drive.shape))
    elif out.v.shape != drive.shape:
        raise ShapeError(f"out state shape {out.v.shape} != state shape {drive.shape}")
    return drive, out


def det_lif_step(state: LayerState, layer, drive: np.ndarray,
                 out: LayerState | None = None):
    """One deterministic LIF timestep of ``layer`` (a LayerSpec); returns
    (new_state, spikes).

    Evaluated as ((leak * V) + drive) - (fired_prev * v_th) in the new
    state's two buffers: ``v`` takes the sum, ``fired_prev`` first the reset
    term and then the comparison ``v >= v_th`` as 0.0 / 1.0, and is returned
    as ``spikes``.  The new state is ``out`` if given, which may be ``state``
    itself, and otherwise a new one; ``drive`` is only read, and so is
    ``state`` unless it is ``out``.  ``inference.run_network`` passes one
    hoisted drive at every step.
    """
    drive, out = _operands(state, drive, out)
    np.multiply(layer.leak, state.v, out=out.v)
    out.v += drive
    np.multiply(state.fired_prev, layer.v_th, out=out.fired_prev)
    out.v -= out.fired_prev
    np.greater_equal(out.v, layer.v_th, out=out.fired_prev)
    return out, out.fired_prev


def stoch_lif_step(state: LayerState, layer, drive: np.ndarray, stream: RngStream,
                   *, rows, out: LayerState | None = None):
    """One stochastic LIF timestep of ``layer`` (a LayerSpec); returns
    (new_state, spikes, probs).

    Row i draws ``stream``'s keyed uniforms for sample id ``rows[i]``.  The
    new state is ``out`` if given, which may be ``state`` itself, and
    otherwise a new one, as in ``det_lif_step``; ``probs`` is a new array.
    """
    drive, out = _operands(state, drive, out)
    # (leak * V + drive) / k, evaluated in that order in the new v
    np.multiply(layer.leak, state.v, out=out.v)
    out.v += drive
    out.v /= layer.k
    probs = sigmoid(out.v)
    # the draw's buffer receives its own comparison as 0.0 / 1.0
    spikes = rng_uniform(stream, probs.shape, rows=rows, out=out.fired_prev)
    np.less(spikes, probs, out=spikes)
    return out, spikes, probs


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
