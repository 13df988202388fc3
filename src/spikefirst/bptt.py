"""Reverse-mode differentiation through the unrolled time horizon.

Three estimators bridge the non-differentiable pieces:

* arctan surrogate for the hard threshold (backward only; forward keeps the
  exact spike),
* sign estimator routing the loss gradient on a first-spike time to the spike
  output at exactly that time (with value -1),
* straight-through estimator passing gradients unchanged through the Bernoulli
  draw of stochastic neurons.

The tape records, per timestep, only what ``backward`` reads: each synaptic
layer's input, every neuron layer's spikes, the membrane potential ``v`` of
deterministic layers and of the output layer (the fused ``ml-v`` loss enters
there), and the firing probabilities ``probs`` of hidden stochastic layers.
Spike trains are taped as ``uint8``; 0 and 1 are exact, so casting them back
to float64 for the GEMMs leaves every gradient bit-identical.  A layer fed by
a neuron layer reads that layer's spike buffer as its input, so each spike
train is recorded once.  The network input is direct-encoded, the same at
every step, so layer 0's input is recorded once, as (N, ...).

``backward`` replays the tape in one time-major reverse sweep: for t = T-1
down to 0 it walks the layers from the output down, and each layer turns step
t's gradient with respect to its output into step t's gradient with respect
to its input.  A neuron layer keeps its own (N, ...) carry, the gradient that
flows to its membrane potential from step t+1; a synaptic layer adds step t's
contribution to its weight gradient (one GEMM, or one ``conv2d_backward``)
and passes the input gradient down.  So every gradient that moves between
layers is one step's (N, ...) array, and the gradient memory is O(N * width)
whatever the horizon; only the tape and the (T, N, n_out) loss gradient grow
with T.  Layer 0 adds its drive gradient into one (N, ...) sum over time,
which one GEMM or one ``conv2d_backward`` turns into its weight gradient
after the sweep.  The gradient with respect to the network input is never
computed, since nothing reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StateError
from .tensor import conv2d_backward, pool2d_backward


def arctan_surrogate_grad(v: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    """Elementwise (1/pi) / (1 + (pi * v * alpha / 2)^2).

    Used as d(spike)/dV in the backward pass, evaluated at V - v_th.
    """
    z = np.pi * np.asarray(v, dtype=np.float64) * (alpha / 2.0)
    return (1.0 / np.pi) / (1.0 + z * z)


def sign_estimator_backward(grad_times: np.ndarray, first_times: np.ndarray,
                            horizon: int) -> np.ndarray:
    """Route dL/dt_i to the spike train as -dL/dt_i at the first-spike time.

    ``grad_times`` and ``first_times`` share any shape with neurons on the
    last axis; the result has a leading time axis of length ``horizon``.
    Silent neurons (sentinel time horizon + 1) get their gradient at t =
    horizon so a path exists to teach them to fire.
    """
    grad_times = np.asarray(grad_times, dtype=np.float64)
    t_idx = np.minimum(np.asarray(first_times), horizon).astype(int) - 1
    out = np.zeros((horizon,) + grad_times.shape)
    flat_g = grad_times.reshape(-1)
    flat_t = t_idx.reshape(-1)
    flat_out = out.reshape(horizon, -1)
    flat_out[flat_t, np.arange(flat_g.size)] = -flat_g
    return flat_out.reshape((horizon,) + grad_times.shape)


@dataclass
class LayerTrace:
    """Forward record for one layer across the whole horizon."""

    layer: object                       # LayerSpec
    wname: str | None = None
    weight: np.ndarray | None = None
    # (T, N, ...) input to the synaptic op; after a neuron layer this is the
    # same uint8 array as that layer's ``spikes``.  Layer 0's input is the
    # same at every step and is held once, as (N, ...).
    inputs: np.ndarray | None = None
    # (T, N, ...) membrane potentials: deterministic layers and the output layer
    v: np.ndarray | None = None
    spikes: np.ndarray | None = None    # (T, N, ...) uint8 0/1, neuron layers
    probs: np.ndarray | None = None     # (T, N, ...) hidden stochastic layers only


@dataclass
class Tape:
    """Ordered forward recording over T timesteps."""

    horizon: int
    alpha: float = 2.0
    traces: list = field(default_factory=list)
    complete: bool = False


def _synaptic_step(trace: LayerTrace, g_drive: np.ndarray, x: np.ndarray,
                   need_input: bool = True):
    """Backprop one step's drive gradient through a linear or conv op.

    ``g_drive`` is (N, ...) and ``x`` the op's input at that step.  Returns
    (grad_weight, grad_input), grad_input shaped like ``x``, or None when
    ``need_input`` is false.
    """
    layer = trace.layer
    if layer.kind == "linear":
        # a uint8 spike step is cast to float64
        flat = x.reshape(x.shape[0], -1).astype(np.float64, copy=False)
        grad_w = g_drive.T @ flat
        if not need_input:
            return grad_w, None
        return grad_w, (g_drive @ trace.weight).reshape(x.shape)
    if layer.kind == "conv":
        # conv2d_backward casts a uint8 step to float64
        grad_in, grad_w = conv2d_backward(g_drive, x, trace.weight, layer.stride,
                                          layer.pad, need_input=need_input)
        return grad_w, grad_in
    raise StateError(f"layer kind {layer.kind!r} has no synaptic op")


def backward(tape: Tape, loss) -> dict:
    """Reverse sweep over a recorded forward pass.

    ``loss`` is a LossValue whose ``kind`` selects how the output-layer
    gradient enters the network: "fts" routes dL/dt through the sign
    estimator, "rate" spreads dL/d(count) over every timestep, and "ml-v"
    supplies dL/dV at the membrane potential of a stochastic output layer,
    the only kind such a layer takes.  Returns a dict mapping weight names
    to gradients, each summed over the timesteps from t = T-1 down to 0.

    The sweep is time-major (see the module docstring): each gradient passed
    from layer to layer, and each neuron layer's carry, is one step's
    (N, ...) array, so apart from the (T, N, n_out) loss gradient its memory
    is O(N * width) whatever the horizon.

    ``backward`` writes only into buffers it allocated: neither
    ``loss.grad`` nor any array on the tape is modified, so a tape can be
    swept again.
    """
    if not tape.complete:
        raise StateError("tape does not record a complete forward pass")
    horizon = tape.horizon
    traces = tape.traces
    last = len(traces) - 1

    # g_top[t]: step t's gradient w.r.t. the output layer's spikes or, for a
    # stochastic output layer, its membrane potential; read only
    if traces[last].layer.neuron == "stoch":
        if loss.kind != "ml-v":
            raise StateError(f"a stochastic output layer takes the fused 'ml-v' loss, "
                             f"got loss kind {loss.kind!r}")
        # already fused through the output sigmoid; (N, T, n) seen time-major
        g_top = np.moveaxis(loss.grad, 1, 0)
    elif loss.kind == "fts":
        g_top = sign_estimator_backward(loss.grad, loss.aux["first_times"], horizon)
    elif loss.kind == "rate":
        # accumulated count is a plain sum over time: same gradient each step
        g_top = np.broadcast_to(loss.grad, (horizon,) + loss.grad.shape)
    else:
        raise StateError(f"loss kind {loss.kind!r} does not apply to a deterministic "
                         "output layer")

    grads: dict[str, np.ndarray] = {}
    carry: dict[int, np.ndarray] = {}   # per neuron layer: dL/dV_t from step t+1
    folded = None                       # layer 0: sum_t of its g_drive
    for t in range(horizon - 1, -1, -1):
        g = g_top[t]
        for i in range(last, -1, -1):
            trace = traces[i]
            layer = trace.layer
            if layer.kind == "pool":
                # pool2d_backward casts a uint8 step to float64
                g = pool2d_backward(g, trace.inputs[t], layer.window, layer.pool_mode)
                continue

            if layer.neuron == "det":
                # dV_t/dV_{t-1}: leak path only; the reset indicator is treated
                # as a constant in the backward pass.
                sur = arctan_surrogate_grad(trace.v[t] - layer.v_th, tape.alpha)
                gv = g * sur + carry.get(i, 0.0)
                carry[i] = gv * layer.leak
                g = gv
            elif layer.neuron == "stoch":
                if i == last:
                    direct = g                 # already dL/dV
                else:
                    # straight through the Bernoulli draw, then the sigmoid
                    p = trace.probs[t]
                    direct = g * p * (1.0 - p)
                inv_k = 1.0 / layer.k
                gv = direct + carry.get(i, 0.0)
                carry[i] = gv * (layer.leak * inv_k)
                g = gv * inv_k
            else:
                raise StateError(f"weighted layer without neuron model: {layer}")

            # g is step t's drive gradient, a buffer this sweep allocated
            if i == 0:
                # the input is the same at every step:
                # sum_t g_t^T x = (sum_t g_t)^T x, computed after the sweep
                if folded is None:
                    folded = g
                else:
                    folded += g
                continue
            grad_w, g = _synaptic_step(trace, g, trace.inputs[t])
            if trace.wname in grads:
                grads[trace.wname] += grad_w
            else:
                grads[trace.wname] = grad_w

    grads[traces[0].wname], _ = _synaptic_step(traces[0], folded, traces[0].inputs,
                                               need_input=False)
    return grads
