"""Output-coding losses.

Three schemes cover the trained model families:

* first-to-spike temporal cross-entropy on first-spike times (deterministic
  path): softmax over negated spike times, negative log-likelihood of the
  target neuron;
* maximum-likelihood first-spike-event loss (stochastic path): the probability
  that the correct output neuron is the first to fire at time t, summed over
  the horizon, negated log;
* rate-coded softmax cross-entropy over per-neuron accumulated output.

The printed temporal cross-entropy objective is maximized at the target, so it
is implemented as the standard negative log-likelihood for minimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .neurons import sigmoid


@dataclass
class LossValue:
    """A scalar loss plus the gradient w.r.t. the loss inputs.

    ``grad`` has the shape of the loss function's input.  Turning it into the
    (T, N, n) gradient at the output layer that ``bptt.backward`` takes is
    ``train._batch_loss``'s job, which also picks the loss.

    Each loss function's ``batch_size`` (default: the rows given) divides
    the sum over the rows.  Training passes the whole batch's size for each
    row block of it, so the blocks' values add up to the batch mean and each
    block's gradient rows are the whole batch's, bit for bit.
    """

    value: float
    grad: np.ndarray


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def fts_softmax(first_times: np.ndarray) -> np.ndarray:
    """Activation probabilities p_i = exp(-t_i) / sum_k exp(-t_k).

    Computed with a max shift, so arbitrarily spread times cannot overflow.
    Works on any leading batch shape; neurons are the last axis.
    """
    return _softmax(-np.asarray(first_times, dtype=np.float64))


def fts_ce_loss_batch(first_times: np.ndarray, targets: np.ndarray,
                      batch_size: int | None = None) -> LossValue:
    """Mean temporal cross-entropy over a batch; grad is w.r.t. each time."""
    t = np.asarray(first_times, dtype=np.float64)
    n_samples, n = t.shape
    batch_size = n_samples if batch_size is None else batch_size
    p = fts_softmax(t)
    idx = np.arange(n_samples)
    value = -np.log(p[idx, targets]).sum() / batch_size
    onehot = np.zeros_like(p)
    onehot[idx, targets] = 1.0
    grad = (onehot - p) / batch_size
    return LossValue(value=float(value), grad=grad)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def ml_loss_logits_batch(v: np.ndarray, targets: np.ndarray,
                         batch_size: int | None = None) -> LossValue:
    """Mean ML first-spike loss with the gradient fused through the sigmoid.

    ``v`` is the (N, T, n) table of output-layer membrane potentials whose
    sigmoid gives the firing probabilities.  Working in log space from the
    potentials keeps the loss exact and the gradient O(1) even when the
    sigmoid saturates (p -> 0 or 1), where the factored dL/dp * p(1-p)
    composition underflows to zero and training stalls.  Gradient is w.r.t.
    the potentials:

        wrong i:   dL/dv_i^s = R_s * p_i^s
        correct c: dL/dv_c^s = -(r_s * (1 - p_c^s) - R_{s+1} * p_c^s)

    with r_t = P_t / sum P and suffix sums R_s = sum_{t >= s} r_t.
    """
    v = np.asarray(v, dtype=np.float64)
    targets = np.asarray(targets)
    n_samples, horizon, n = v.shape
    batch_size = n_samples if batch_size is None else batch_size
    idx = np.arange(n_samples)
    p = sigmoid(v)
    lp = -_softplus(-v)                                       # log p
    lq = -_softplus(v)                                        # log (1 - p)
    a = np.cumsum(lq.sum(axis=2), axis=1)                     # (N, T)
    logp_t = lp[idx, :, targets] - lq[idx, :, targets] + a
    m = logp_t.max(axis=1, keepdims=True)
    scaled = np.exp(logp_t - m)
    s = scaled.sum(axis=1, keepdims=True)
    losses = -(m[:, 0] + np.log(s[:, 0]))
    if not np.all(np.isfinite(losses)):
        raise NumericalError("sum of first-spike event probabilities underflowed")
    r = scaled / s
    suffix = np.cumsum(r[:, ::-1], axis=1)[:, ::-1]
    suffix_next = np.concatenate([suffix[:, 1:], np.zeros((n_samples, 1))], axis=1)
    grads = suffix[:, :, None] * p
    pc = p[idx, :, targets]
    grads[idx, :, targets] = -(r * (1.0 - pc) - suffix_next * pc)
    return LossValue(value=float(losses.sum() / batch_size), grad=grads / batch_size)


def rate_ce_loss_batch(acc: np.ndarray, targets: np.ndarray,
                       batch_size: int | None = None) -> LossValue:
    """Mean rate cross-entropy over a batch of accumulations (N, n)."""
    acc = np.asarray(acc, dtype=np.float64)
    n_samples = acc.shape[0]
    batch_size = n_samples if batch_size is None else batch_size
    idx = np.arange(n_samples)
    p = _softmax(acc)
    value = -np.log(np.maximum(p[idx, targets], np.finfo(np.float64).tiny)).sum() / batch_size
    onehot = np.zeros_like(p)
    onehot[idx, targets] = 1.0
    return LossValue(value=float(value), grad=(p - onehot) / batch_size)
