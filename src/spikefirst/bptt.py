"""Reverse-mode differentiation through the unrolled time horizon.

Three estimators bridge the non-differentiable pieces:

* arctan surrogate for the hard threshold (backward only; forward keeps the
  exact spike),
* sign estimator routing the loss gradient on a first-spike time to the spike
  output at exactly that time (with value -1),
* straight-through estimator passing gradients unchanged through the Bernoulli
  draw of stochastic neurons.

The tape records every layer's per-timestep inputs, membrane potentials,
spikes and firing probabilities during the forward pass; ``backward`` replays
it in reverse, accumulating one gradient per weight tensor, summed over
timesteps.  A direct-encoded (time-broadcast) input is recorded once, and
``forward`` computes layer 0's drive from it once.  That layer's weight
gradient is folded over time: its drive gradient is summed over the steps,
then goes through one GEMM or one ``conv2d_backward``.  The gradient with
respect to the network input is never computed, since nothing reads it.
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


def straight_through_backward(grad_out: np.ndarray) -> np.ndarray:
    """Identity backward through the Bernoulli sampling step."""
    return np.asarray(grad_out, dtype=np.float64)


@dataclass
class LayerTrace:
    """Forward record for one layer across the whole horizon."""

    layer: object                       # LayerSpec
    wname: str | None = None
    weight: np.ndarray | None = None
    inputs: np.ndarray | None = None    # (T, N, ...) input to the synaptic op
    input_step_shape: tuple = ()        # per-step shape before flattening
    # Set on layer 0 when its input is the same at every step: ``inputs`` then
    # holds it once, as (N, ...).
    time_constant: bool = False
    v: np.ndarray | None = None         # (T, N, n) membrane potentials
    spikes: np.ndarray | None = None
    probs: np.ndarray | None = None     # stochastic layers only


@dataclass
class Tape:
    """Ordered forward recording over T timesteps."""

    horizon: int
    batch: int
    alpha: float = 2.0
    traces: list = field(default_factory=list)
    complete: bool = False


def _synaptic_backward(trace: LayerTrace, g_drive: np.ndarray, need_input: bool):
    """Backprop one layer's drive gradient through its linear/conv op.

    Returns (grad_weight, grad_input) with grad_input in the layer's original
    per-step input shape, or None when ``need_input`` is false.  A
    time-constant trace is always the first synaptic layer, whose input
    gradient is never needed.
    """
    layer = trace.layer
    inputs = trace.inputs
    if trace.time_constant:
        # sum_t g_t^T x = (sum_t g_t)^T x when x is the same at every step
        g_drive = g_drive.sum(axis=0)[None]
        inputs = inputs[None]
    horizon = g_drive.shape[0]
    if layer.kind == "linear":
        # grads over all timesteps in one pair of matmuls
        tn = inputs.shape[0] * inputs.shape[1]
        g = g_drive.reshape(tn, -1)
        grad_w = g.T @ inputs.reshape(tn, -1)
        if not need_input:
            return grad_w, None
        grad_in = (g @ trace.weight).reshape(
            (horizon, g_drive.shape[1]) + trace.input_step_shape)
        return grad_w, grad_in
    if layer.kind == "conv":
        grad_w = np.zeros_like(trace.weight)
        grad_in = np.empty_like(inputs) if need_input else None
        for t in range(horizon):
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
    estimator, "ml" supplies dL/dp directly, "rate" spreads dL/d(count) over
    every timestep.  Returns a dict mapping weight names to gradients.
    """
    if not tape.complete:
        raise StateError("tape does not record a complete forward pass")
    horizon = tape.horizon
    grads: dict[str, np.ndarray] = {}

    g_spikes = None   # (T, N, n) gradient w.r.t. a layer's output spikes
    g_probs = None    # (T, N, n) gradient w.r.t. firing probabilities
    g_v = None        # (T, N, n) gradient w.r.t. membrane potentials (fused)
    if loss.kind == "fts":
        g_spikes = sign_estimator_backward(loss.grad, loss.aux["first_times"], horizon)
    elif loss.kind == "ml":
        # loss.grad is (N, T, n); tape layout is time-major
        g_probs = np.ascontiguousarray(np.moveaxis(loss.grad, 1, 0))
    elif loss.kind == "ml-v":
        # gradient already fused through the output sigmoid; enters at the
        # membrane potential of the top stochastic layer
        g_v = np.ascontiguousarray(np.moveaxis(loss.grad, 1, 0))
    elif loss.kind == "rate":
        # accumulated count is a plain sum over time: same gradient each step
        g_spikes = np.broadcast_to(loss.grad, (horizon,) + loss.grad.shape).copy()
    else:
        raise StateError(f"unknown loss kind {loss.kind!r}")

    # The sweep stops at the first synaptic layer: nothing reads the gradient
    # with respect to its input.
    first = next(i for i, tr in enumerate(tape.traces) if tr.wname is not None)
    for trace in reversed(tape.traces[first:]):
        layer = trace.layer
        if layer.kind == "pool":
            g_in = np.empty_like(trace.inputs)
            for t in range(horizon):
                g_in[t] = pool2d_backward(g_spikes[t], trace.inputs[t],
                                          layer.window, layer.pool_mode)
            g_spikes, g_probs = g_in, None
            continue

        if layer.neuron == "det":
            # dV_t/dV_{t-1}: leak path only; the reset indicator is treated
            # as a constant in the backward pass.
            sur = arctan_surrogate_grad(trace.v - layer.v_th, tape.alpha)
            g_drive = np.empty_like(trace.v)
            gv_carry = np.zeros_like(trace.v[0])
            for t in range(horizon - 1, -1, -1):
                gv = g_spikes[t] * sur[t] + gv_carry
                g_drive[t] = gv
                gv_carry = gv * layer.leak
        elif layer.neuron == "stoch":
            if g_v is not None:
                direct = g_v                   # already dL/dV per timestep
                g_v = None
            else:
                gp_total = np.zeros_like(trace.probs)
                if g_probs is not None:
                    gp_total += g_probs
                if g_spikes is not None:
                    gp_total += straight_through_backward(g_spikes)
                direct = gp_total * trace.probs * (1.0 - trace.probs)
            g_drive = np.empty_like(trace.v)
            gv_carry = np.zeros_like(trace.v[0])
            inv_k = 1.0 / layer.k
            for t in range(horizon - 1, -1, -1):
                gv = direct[t] + gv_carry
                g_drive[t] = gv * inv_k
                gv_carry = gv * (layer.leak * inv_k)
        else:
            raise StateError(f"weighted layer without neuron model: {layer}")

        grad_w, g_in = _synaptic_backward(trace, g_drive,
                                          need_input=trace is not tape.traces[first])
        grads[trace.wname] = grads.get(trace.wname, 0) + grad_w
        g_spikes, g_probs = g_in, None

    return grads
