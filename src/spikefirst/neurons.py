"""Deterministic and stochastic leaky integrate-and-fire layer dynamics.

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
from scipy.special import expit

from .errors import ParameterError, ShapeError
from .rng import RngStream, rng_uniform


@dataclass
class DetLifParams:
    """Deterministic LIF parameters: firing threshold and leak factor."""

    v_th: float = 1.0
    leak: float = 0.9

    def __post_init__(self):
        if self.v_th <= 0:
            raise ParameterError(f"v_th must be > 0, got {self.v_th}")
        if not 0.0 <= self.leak <= 1.0:
            raise ParameterError(f"leak must be in [0, 1], got {self.leak}")


@dataclass
class StochLifParams:
    """Stochastic LIF parameters: membrane scale k and leak factor."""

    k: float = 1.0
    leak: float = 0.7

    def __post_init__(self):
        if self.k <= 0:
            raise ParameterError(f"k must be > 0, got {self.k}")
        if not 0.0 <= self.leak <= 1.0:
            raise ParameterError(f"leak must be in [0, 1], got {self.leak}")


@dataclass
class LayerState:
    """Per-neuron membrane potentials and the previous-step firing mask."""

    v: np.ndarray
    fired_prev: np.ndarray = field(default=None)

    @classmethod
    def zeros(cls, shape) -> "LayerState":
        return cls(v=np.zeros(shape), fired_prev=np.zeros(shape))

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.fired_prev is None:
            self.fired_prev = np.zeros_like(self.v)
        else:
            self.fired_prev = np.asarray(self.fired_prev, dtype=np.float64)


@dataclass
class SpikeRecord:
    """Binary spikes over the full horizon; first axis is time."""

    spikes: np.ndarray

    @property
    def horizon(self) -> int:
        return self.spikes.shape[0]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in float64, free of overflow for any |x|."""
    return expit(np.asarray(x, dtype=np.float64))


def det_lif_step(state: LayerState, params: DetLifParams, drive: np.ndarray):
    """One deterministic LIF timestep; returns (new_state, spikes)."""
    drive = np.asarray(drive, dtype=np.float64)
    if drive.shape != state.v.shape:
        raise ShapeError(f"drive shape {drive.shape} != state shape {state.v.shape}")
    v = params.leak * state.v + drive - state.fired_prev * params.v_th
    spikes = (v >= params.v_th).astype(np.float64)
    return LayerState(v=v, fired_prev=spikes), spikes


def stoch_lif_step(state: LayerState, params: StochLifParams, drive: np.ndarray,
                   stream: RngStream):
    """One stochastic LIF timestep; returns (new_state, spikes, probs)."""
    drive = np.asarray(drive, dtype=np.float64)
    if drive.shape != state.v.shape:
        raise ShapeError(f"drive shape {drive.shape} != state shape {state.v.shape}")
    v = (params.leak * state.v + drive) / params.k
    probs = sigmoid(v)
    u = rng_uniform(stream, probs.shape)
    spikes = (u < probs).astype(np.float64)
    return LayerState(v=v, fired_prev=spikes), spikes, probs


def first_spike_times(record, horizon: int | None = None) -> np.ndarray:
    """Earliest firing time per neuron, 1-indexed along the first (time) axis.

    Neurons that never fire within the horizon get the sentinel time T + 1,
    which strictly exceeds every real spike time so that downstream softmax
    scoring penalizes silence.
    """
    spikes = record.spikes if isinstance(record, SpikeRecord) else np.asarray(record)
    t = spikes.shape[0]
    if horizon is not None and horizon != t:
        raise ShapeError(f"record has {t} rows, expected horizon {horizon}")
    fired = spikes > 0
    any_fired = fired.any(axis=0)
    first = fired.argmax(axis=0) + 1
    return np.where(any_fired, first, t + 1).astype(np.float64)
