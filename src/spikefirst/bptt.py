"""Reverse-mode differentiation through the unrolled time horizon.

Three estimators bridge the non-differentiable pieces:

* arctan surrogate for the hard threshold (backward only; forward keeps the
  exact spike), of the fixed width 2,
* sign estimator routing the loss gradient on a first-spike time to the spike
  output at exactly that time (with value -1),
* straight-through estimator passing gradients unchanged through the Bernoulli
  draw of stochastic neurons.

The tape holds the network's neuron model, that of every layer but the pool
layers, and records, per timestep, only what ``backward`` reads: every
layer's output, the membrane potential ``v`` of deterministic layers and of
the output layer (the fused S-F loss gradient enters there), and the firing
probabilities ``probs`` of hidden stochastic layers.  Each output is
recorded once, on the layer that makes it, and layer i's input is layer
i-1's output: nothing is taped under two names.  Spike trains are taped as
``uint8``; 0 and 1 are exact, so casting them back to float64 for the GEMMs
and the conv and pool kernels leaves every gradient bit-identical.  A pool
layer's output is taped as float64.  The network input is direct-encoded,
the same at every step, so layer 0's input is recorded once, as (N, ...),
and is the only input on the tape; ``backward`` does not read it, but
``layer0_weight_grad`` does for a caller with one tape.

``backward`` starts from the (T, N, n_out) loss gradient at the output layer,
whatever the loss, and replays the tape in one time-major reverse sweep: for
t = T-1 down to 0 it walks the layers from the output down, and each layer
turns step t's gradient with respect to its output into step t's gradient
with respect to its input.  A neuron layer keeps its own (N, ...) carry, the
gradient that flows to its membrane potential from step t+1; a synaptic
layer adds step t's contribution to its weight gradient (one GEMM, or one
``conv2d_backward``) and passes the input gradient down.  So every gradient
that moves between layers is one step's (N, ...) array, and the gradient
memory is O(N * width) whatever the horizon; only the tape and the
(T, N, n_out) loss gradient grow with T.  N is the tape's rows: training
(``train.train``) records and sweeps one row block of a batch at a time,
64 rows for the 800-unit mlp2, and sums the blocks' weight gradients, so
both bounds hold per block, and the (N, ...) buffers stay in cache from
one step to the next.

Layer 0's input is the same at every step, so its weight gradient is
(sum_t g_t)^T x: the sweep adds layer 0's drive gradient into one (N, ...)
sum over time and hands that sum back, in place of the weight gradient.
``layer0_weight_grad`` turns it into the weight gradient with one GEMM or
one ``conv2d_backward``.  ``train`` collects the sums of all of a batch's
blocks and makes that product once per batch, over the batch's images;
a caller with one tape makes it from the tape's ``inputs``.  The gradient
with respect to the network input is never computed, since nothing reads
it.

The sweep allocates its per-step arrays once per call and overwrites them at
every step: each neuron layer's carry, a work buffer that holds its
surrogate, then dL/dV_t, then its drive gradient, a 1 - p scratch for a
hidden stochastic layer, and a float64 buffer into which each layer fed by
a neuron layer casts the uint8 spike step it reads.  Each is read only
within its own step, and none escapes into the returned gradients; every
ufunc keeps the operands and the order of the plain expressions, so the
gradients are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StateError
from .tensor import conv2d_backward, pool2d_backward


def _arctan_surrogate_in_place(z: np.ndarray) -> np.ndarray:
    """The arctan surrogate (1/pi) / (1 + (pi * v * alpha / 2)^2) of width
    alpha = 2, that is (1/pi) / (1 + (pi * v)^2), of ``v = z / pi``, written
    over ``z``, which the caller owns and has already multiplied by pi;
    returns ``z``.  ``backward`` takes it as d(spike)/dV, evaluated at
    V - v_th."""
    np.multiply(z, z, out=z)
    z += 1.0
    return np.divide(1.0 / np.pi, z, out=z)


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
    # layer 0's input, the network input, the same at every step and held
    # once, as (N, ...); layer i > 0 reads layer i-1's ``spikes`` instead
    inputs: np.ndarray | None = None
    # (T, N, ...) membrane potentials: deterministic layers and the output layer
    v: np.ndarray | None = None
    # (T, N, ...) the layer's output: uint8 0/1 spikes of a neuron layer, the
    # float64 pooled map of a pool layer
    spikes: np.ndarray | None = None
    probs: np.ndarray | None = None     # (T, N, ...) hidden stochastic layers only


@dataclass
class Tape:
    """Ordered forward recording over T timesteps."""

    horizon: int
    neuron: str                         # det | stoch
    traces: list = field(default_factory=list)


def _synaptic_step(trace: LayerTrace, g_drive: np.ndarray, x: np.ndarray,
                   need_input: bool = True):
    """Backprop one step's drive gradient through a linear or conv op.

    ``g_drive`` is (N, ...) and ``x`` the op's input at that step.  Returns
    (grad_weight, grad_input), grad_input shaped like ``x``, or None when
    ``need_input`` is false.
    """
    layer = trace.layer
    if layer.kind == "linear":
        # backward passes float64; any other step is cast
        flat = x.reshape(x.shape[0], -1).astype(np.float64, copy=False)
        grad_w = g_drive.T @ flat
        if not need_input:
            return grad_w, None
        return grad_w, (g_drive @ trace.weight).reshape(x.shape)
    if layer.kind == "conv":
        grad_in, grad_w = conv2d_backward(g_drive, x, trace.weight, layer.stride,
                                          layer.pad, need_input=need_input)
        return grad_w, grad_in
    raise StateError(f"layer kind {layer.kind!r} has no synaptic op")


def backward(tape: Tape, g_top: np.ndarray) -> dict:
    """Reverse sweep over a recorded forward pass.

    ``g_top`` is the (T, N, n) loss gradient at the output layer from
    ``train._batch_loss``: with respect to the spikes of a deterministic
    output layer, and to the membrane potential of a stochastic one, whose
    fused S-F gradient already went through the sigmoid.  Returns a dict
    mapping weight names to gradients, each summed over the timesteps from
    t = T-1 down to 0, except layer 0's: its name maps to layer 0's drive
    gradient summed over time, (N, ...) like its drive, which
    ``layer0_weight_grad`` turns into the weight gradient.

    The sweep is time-major (see the module docstring): each gradient passed
    from layer to layer, and each neuron layer's carry, is one step's
    (N, ...) array, so apart from ``g_top`` its memory is O(N * width)
    whatever the horizon.

    The (N, ...) buffers the sweep reuses from step to step (see the module
    docstring) never escape: the weight gradients are fresh GEMM results,
    and layer 0's sum over time starts as a copy of its work buffer.

    ``backward`` writes only into buffers it allocated: neither ``g_top``
    nor any array on the tape is modified, so a tape can be swept again.
    """
    horizon = tape.horizon
    traces = tape.traces
    last = len(traces) - 1

    grads: dict[str, np.ndarray] = {}
    # per neuron layer, reused at every step: dL/dV_t from step t+1 (zeros
    # before the first step rather than a skipped add, so that a -0.0 there
    # becomes +0.0 as at every other step), the work buffer and the 1 - p
    # scratch
    carry: dict[int, np.ndarray] = {}
    work: dict[int, np.ndarray] = {}
    one_minus_p: dict[int, np.ndarray] = {}
    cast: dict[int, np.ndarray] = {}    # per layer fed by uint8 spikes
    folded = None                       # layer 0: sum_t of its g_drive
    for t in range(horizon - 1, -1, -1):
        g = g_top[t]
        for i in range(last, -1, -1):
            trace = traces[i]
            layer = trace.layer
            if i > 0:
                # layer i's input is layer i-1's output; a uint8 spike step
                # is cast to float64
                x = traces[i - 1].spikes[t]
                if x.dtype != np.float64:
                    if i not in cast:
                        cast[i] = np.empty(x.shape)
                    np.copyto(cast[i], x)
                    x = cast[i]
            if layer.kind == "pool":
                g = pool2d_backward(g, x, layer.window, layer.pool_mode)
                continue

            if i not in work:
                carry[i] = np.zeros(g.shape)
                work[i] = np.empty(g.shape)
            gv = work[i]
            if tape.neuron == "det":
                # dV_t/dV_{t-1}: leak path only; the reset indicator is treated
                # as a constant in the backward pass.
                np.subtract(trace.v[t], layer.v_th, out=gv)
                gv *= np.pi
                _arctan_surrogate_in_place(gv)
                gv *= g
                gv += carry[i]
                np.multiply(gv, layer.leak, out=carry[i])
            else:                               # stoch
                if i == last:
                    np.add(g, carry[i], out=gv)     # g is already dL/dV
                else:
                    # straight through the Bernoulli draw, then the sigmoid
                    p = trace.probs[t]
                    if i not in one_minus_p:
                        one_minus_p[i] = np.empty(g.shape)
                    np.subtract(1.0, p, out=one_minus_p[i])
                    np.multiply(g, p, out=gv)
                    gv *= one_minus_p[i]
                    gv += carry[i]
                inv_k = 1.0 / layer.k
                np.multiply(gv, layer.leak * inv_k, out=carry[i])
                gv *= inv_k

            # gv is step t's drive gradient, overwritten at step t - 1
            if i == 0:
                # the input is the same at every step:
                # sum_t g_t^T x = (sum_t g_t)^T x, left to layer0_weight_grad
                if folded is None:
                    folded = gv.copy()
                else:
                    folded += gv
                continue
            grad_w, g = _synaptic_step(trace, gv, x)
            if trace.wname in grads:
                grads[trace.wname] += grad_w
            else:
                grads[trace.wname] = grad_w

    grads[traces[0].wname] = folded
    return grads


def layer0_weight_grad(layer, weight: np.ndarray, g_drive: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """Layer 0's weight gradient from its drive gradient summed over time,
    ``g_drive`` (N, ...) as ``backward`` hands it back, and the network
    input ``x`` (N, ...), the same at every step: ``g_drive^T x`` for a
    linear layer, one ``conv2d_backward`` for a conv layer."""
    return _synaptic_step(LayerTrace(layer=layer, weight=weight), g_drive, x,
                          need_input=False)[0]
