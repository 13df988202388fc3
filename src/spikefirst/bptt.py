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
to float64 for the GEMMs leaves every gradient bit-identical.  ``backward``
replays the tape in reverse, accumulating one gradient per weight tensor,
summed over timesteps.  A layer fed by a neuron layer reads that layer's
spike buffer as its input, so each spike train is recorded once.  A
direct-encoded (time-broadcast) input is recorded once, and ``forward``
computes layer 0's drive from it once.  That layer's weight gradient is
folded over time: its drive gradient is summed over the steps, then goes
through one GEMM or one ``conv2d_backward``.  The gradient with respect to
the network input is never computed, since nothing reads it.

The reverse sweep runs in place.  Every (T, N, ...) gradient it passes from
layer to layer is a buffer ``backward`` allocated itself: the loss gradient
brought to the tape's time-major layout, or the input gradient of the layer
above.  Each neuron layer's reverse time loop computes its per-step factors
(the surrogate at ``v[t] - v_th``, or ``dL/dp · p · (1 - p)``) from step t's
slices and writes step t's drive gradient over step t of the output
gradient it received, which it has already read.  So the only whole-horizon
array a layer allocates is the input gradient it passes down.  Conv and pool
layers are differentiated one step at a time, casting that step's input; a
linear layer's two GEMMs span all T·N rows at once, and the float64 copy of
a spike input made for the weight-gradient GEMM then receives the input
gradient.
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


def smoothed_spike(v: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    """Smooth arctan relaxation of the hard threshold.

    Antiderivative of ``arctan_surrogate_grad``: (2 / (pi^2 * alpha)) *
    arctan(pi * v * alpha / 2).  Same arctan shape as the usual smoothed
    spike, normalized so its exact slope is the backward rule in use (the
    published gradient formula carries a 1/pi prefactor rather than the
    literal derivative's alpha/2).
    """
    z = np.pi * np.asarray(v, dtype=np.float64) * (alpha / 2.0)
    return (2.0 / (np.pi * np.pi * alpha)) * np.arctan(z)


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
    # same uint8 array as that layer's ``spikes``
    inputs: np.ndarray | None = None
    # Set on layer 0 when its input is the same at every step: ``inputs`` then
    # holds it once, as (N, ...).
    time_constant: bool = False
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


def _synaptic_backward(trace: LayerTrace, g_drive: np.ndarray, need_input: bool):
    """Backprop one layer's drive gradient through its linear/conv op.

    Returns (grad_weight, grad_input) with grad_input shaped like the taped
    inputs, or None when ``need_input`` is false.  A time-constant trace is
    always the first synaptic layer, whose input gradient is never needed.
    """
    layer = trace.layer
    inputs = trace.inputs
    if trace.time_constant:
        # sum_t g_t^T x = (sum_t g_t)^T x when x is the same at every step
        g_drive = g_drive.sum(axis=0)[None]
        inputs = inputs[None]
    if layer.kind == "linear":
        # grads over all timesteps in one pair of matmuls
        tn = inputs.shape[0] * inputs.shape[1]
        g = g_drive.reshape(tn, -1)
        x = inputs.reshape(tn, -1)
        cast = x.dtype != np.float64
        if cast:
            x = x.astype(np.float64)    # a uint8 spike train, cast once
        grad_w = g.T @ x
        if not need_input:
            return grad_w, None
        # the cast copy is free again: it receives the input gradient
        grad_in = np.matmul(g, trace.weight, out=x if cast else None)
        return grad_w, grad_in.reshape(inputs.shape)
    if layer.kind == "conv":
        grad_w = np.zeros_like(trace.weight)
        grad_in = np.empty(inputs.shape) if need_input else None
        for t in range(g_drive.shape[0]):
            # conv2d_backward casts a uint8 step to float64
            gi, gw = conv2d_backward(g_drive[t], inputs[t], trace.weight,
                                     layer.stride, layer.pad, need_input=need_input)
            grad_w += gw
            if need_input:
                grad_in[t] = gi
        return grad_w, grad_in
    raise StateError(f"layer kind {layer.kind!r} has no synaptic op")


def backward(tape: Tape, loss) -> dict:
    """Reverse sweep over a recorded forward pass.

    ``loss`` is a LossValue whose ``kind`` selects how the output-layer
    gradient enters the network: "fts" routes dL/dt through the sign
    estimator, "rate" spreads dL/d(count) over every timestep, and "ml-v"
    supplies dL/dV at the membrane potential of a stochastic output layer,
    the only kind such a layer takes.  Returns a dict mapping weight names
    to gradients.

    ``backward`` writes only into buffers it allocated: neither
    ``loss.grad`` nor any array on the tape is modified, so a tape can be
    swept again.
    """
    if not tape.complete:
        raise StateError("tape does not record a complete forward pass")
    horizon = tape.horizon
    grads: dict[str, np.ndarray] = {}

    g_spikes = None   # (T, N, n) gradient w.r.t. a layer's output spikes
    g_v = None        # (T, N, n) gradient w.r.t. membrane potentials (fused)
    if tape.traces[-1].layer.neuron == "stoch":
        if loss.kind != "ml-v":
            raise StateError(f"a stochastic output layer takes the fused 'ml-v' loss, "
                             f"got loss kind {loss.kind!r}")
        # gradient already fused through the output sigmoid; (N, T, n) to the
        # tape's time-major layout, as a copy: the sweep overwrites it, and
        # the moved axes are a view of loss.grad when N or T is 1
        g_v = np.moveaxis(loss.grad, 1, 0).copy()
    elif loss.kind == "fts":
        g_spikes = sign_estimator_backward(loss.grad, loss.aux["first_times"], horizon)
    elif loss.kind == "rate":
        # accumulated count is a plain sum over time: same gradient each step
        g_spikes = np.broadcast_to(loss.grad, (horizon,) + loss.grad.shape).copy()
    else:
        raise StateError(f"loss kind {loss.kind!r} does not apply to a deterministic "
                         "output layer")

    # The sweep stops at the first synaptic layer: nothing reads the gradient
    # with respect to its input.
    first = next(i for i, tr in enumerate(tape.traces) if tr.wname is not None)
    for trace in reversed(tape.traces[first:]):
        layer = trace.layer
        if layer.kind == "pool":
            g_in = np.empty(trace.inputs.shape)
            for t in range(horizon):
                # pool2d_backward casts a uint8 step to float64
                g_in[t] = pool2d_backward(g_spikes[t], trace.inputs[t],
                                          layer.window, layer.pool_mode)
            g_spikes = g_in
            continue

        # step t of the drive gradient overwrites step t of the output
        # gradient, after the loop has read it
        g_drive = g_v if g_v is not None else g_spikes
        gv_carry = np.zeros(g_drive.shape[1:])
        if layer.neuron == "det":
            # dV_t/dV_{t-1}: leak path only; the reset indicator is treated
            # as a constant in the backward pass.
            for t in range(horizon - 1, -1, -1):
                sur = arctan_surrogate_grad(trace.v[t] - layer.v_th, tape.alpha)
                gv = g_spikes[t] * sur + gv_carry
                g_drive[t] = gv
                gv_carry = gv * layer.leak
        elif layer.neuron == "stoch":
            inv_k = 1.0 / layer.k
            for t in range(horizon - 1, -1, -1):
                if g_v is not None:
                    direct = g_v[t]            # already dL/dV per timestep
                else:
                    # straight through the Bernoulli draw, then the sigmoid
                    p = trace.probs[t]
                    direct = g_spikes[t] * p * (1.0 - p)
                gv = direct + gv_carry
                g_drive[t] = gv * inv_k
                gv_carry = gv * (layer.leak * inv_k)
            g_v = None
        else:
            raise StateError(f"weighted layer without neuron model: {layer}")

        # each weight name appears once per tape
        grads[trace.wname], g_spikes = _synaptic_backward(
            trace, g_drive, need_input=trace is not tape.traces[first])

    return grads
