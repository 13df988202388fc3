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
layer's output is taped in the narrowest dtype that holds it exactly
(``network._pool_tape_dtype``): pooling spikes, a max pool gives 0/1,
taped as ``uint8``, and a 2x2 average pool k/4 for k = 0..4, a dyadic
number that float32 holds exactly, as it does k/w² for any power-of-two
window area w²; any other pool output (a 3x3 window's k/9, a pool of a
pool) is taped as float64.  So every taped step, too, casts back to
float64 exactly.  This shrinks one 16-row lenet5 block's tape at T=20
from 22.9 to 20.9 MB, and one 8-row S-F vgg15 block's from 439.1 to
404.1 MB.  The network input is direct-encoded, the same at every step,
so layer 0's input is recorded once, as (N, ...), and is the only input
on the tape, which ``backward`` does not read.

``backward`` starts from the (T, N, n_out) loss gradient at the output layer,
whatever the loss, and replays the tape in one time-major reverse sweep: for
t = T-1 down to 0 it walks the layers from the output down, and each layer
turns step t's gradient with respect to its output into step t's gradient
with respect to its input.  A neuron layer keeps its own (N, ...) carry, the
gradient that flows to its membrane potential from step t+1; a synaptic
layer adds step t's contribution to its weight gradient and passes the
input gradient down, both from one ``synaptic_backward``.  So every gradient
that moves between layers is one step's (N, ...) array, and the gradient
memory is O(N * width) whatever the horizon; only the tape and the
(T, N, n_out) loss gradient grow with T.  N is the tape's rows: training
(``train.train``) records and sweeps one row block of a batch at a time,
64 rows for the 800-unit mlp2, and sums the blocks' weight gradients, so
both bounds hold per block, and the (N, ...) buffers stay in cache from
one step to the next.

Layer 0's input is the same at every step, so its weight gradient is
(sum_t g_t)^T x: the sweep hands back layer 0's drive gradient summed over
time, (N, ...), beside the other layers' weight gradients, and the caller
makes that product with ``synaptic_backward(..., need_input=False)``:
``train`` once per batch, from all its blocks' sums and its images, a
caller with one tape from the tape's ``inputs``.  The gradient with respect
to the network input is never computed, since nothing reads it.

The sweep allocates its per-step arrays once per call, from the tape's
shapes, and overwrites them at every step: each neuron layer's carry, and a
work buffer that holds its surrogate, then dL/dV_t, then its drive
gradient; layer 0's sum over time has a buffer of its own.  Each taped step
goes to the synaptic and pool kernels as stored, whatever its dtype, and
they cast it to float64 exactly.  None of these buffers escapes: the
weight gradients are fresh GEMM results.  Every ufunc keeps the operands
and the order of the plain expressions, so the gradients are the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import conv2d_backward, linear_backward, pool2d_backward


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
    # pooled map of a pool layer in the narrowest dtype that holds it exactly
    # (uint8 after a max pool of spikes, float32 after a 2x2 average pool of
    # spikes, float64 otherwise)
    spikes: np.ndarray | None = None
    probs: np.ndarray | None = None     # (T, N, ...) hidden stochastic layers only


@dataclass
class Tape:
    """Ordered forward recording over T timesteps."""

    horizon: int
    neuron: str                         # det | stoch
    traces: list = field(default_factory=list)


def synaptic_backward(layer, weight: np.ndarray, g_drive: np.ndarray, x: np.ndarray, *,
                      need_input: bool = True):
    """Backprop a drive gradient ``g_drive`` (N, ...) through the synaptic op
    of a linear or conv ``layer`` on input ``x``: ``tensor.linear_backward``
    or ``tensor.conv2d_backward``.  Returns ``(grad_input, grad_weight)``,
    ``grad_input`` shaped like ``x``, or None when ``need_input`` is false."""
    if layer.kind == "linear":
        return linear_backward(g_drive, x, weight, need_input=need_input)
    return conv2d_backward(g_drive, x, weight, layer.stride, layer.pad,
                           need_input=need_input)


def backward(tape: Tape, g_top: np.ndarray):
    """Reverse sweep over a recorded forward pass.

    ``g_top`` is the (T, N, n) loss gradient at the output layer from
    ``train._batch_loss``: with respect to the spikes of a deterministic
    output layer, and to the membrane potential of a stochastic one, whose
    fused S-F gradient already went through the sigmoid.  Returns
    ``(grads, g_drive0)``: ``grads`` maps the weight names of layers 1 and
    up to their gradients, each summed over the timesteps from t = T-1 down
    to 0, and ``g_drive0`` is layer 0's drive gradient summed over time,
    (N, ...) like its drive, which ``synaptic_backward`` turns into layer
    0's weight gradient.

    The sweep is time-major: apart from ``g_top`` its memory is O(N * width)
    whatever the horizon (see the module docstring).

    ``backward`` writes only into buffers it allocated: neither ``g_top``
    nor any array on the tape is modified, so a tape can be swept again.
    """
    horizon = tape.horizon
    traces = tape.traces
    last = len(traces) - 1
    stoch = tape.neuron == "stoch"

    # per neuron layer, None for a pool layer, made in the order the sweep
    # first uses them (the peak resident set depends on it); a carry starts
    # at zeros, not a skipped add, so -0.0 becomes +0.0
    carry, work = [None] * len(traces), [None] * len(traces)
    for i, trace in reversed(list(enumerate(traces))):
        if trace.layer.kind != "pool":
            shape = trace.spikes.shape[1:]
            carry[i], work[i] = np.zeros(shape), np.empty(shape)
    g_drive0 = np.empty(traces[0].spikes.shape[1:])

    grads: dict[str, np.ndarray] = {}
    for t in range(horizon - 1, -1, -1):
        first = t == horizon - 1
        g = g_top[t]
        for i in range(last, -1, -1):
            trace = traces[i]
            layer = trace.layer
            if i > 0:
                # layer i's input is layer i-1's output, read as taped
                x = traces[i - 1].spikes[t]
            if layer.kind == "pool":
                g = pool2d_backward(g, x, layer.window, layer.pool_mode)
                continue

            gv = work[i]
            if not stoch:
                # dV_t/dV_{t-1}: leak path only; the reset indicator is treated
                # as a constant in the backward pass.
                np.subtract(trace.v[t], layer.v_th, out=gv)
                gv *= np.pi
                _arctan_surrogate_in_place(gv)
                gv *= g
                gv += carry[i]
                np.multiply(gv, layer.leak, out=carry[i])
            else:
                if i == last:
                    np.add(g, carry[i], out=gv)     # g is already dL/dV
                else:
                    # straight through the Bernoulli draw, then the sigmoid
                    p = trace.probs[t]
                    np.multiply(g, p, out=gv)
                    gv *= 1.0 - p
                    gv += carry[i]
                inv_k = 1.0 / layer.k
                np.multiply(gv, layer.leak * inv_k, out=carry[i])
                gv *= inv_k

            # gv is step t's drive gradient, overwritten at step t - 1
            if i == 0:
                # the input is the same at every step:
                # sum_t g_t^T x = (sum_t g_t)^T x, left to the caller
                if first:
                    np.copyto(g_drive0, gv)
                else:
                    g_drive0 += gv
                continue
            g, grad_w = synaptic_backward(layer, trace.weight, gv, x)
            if first:
                grads[trace.wname] = grad_w
            else:
                grads[trace.wname] += grad_w

    return grads, g_drive0
