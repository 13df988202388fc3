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

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .neurons import sigmoid

# Probabilities are clamped away from {0, 1} before logs/products so losses
# stay finite and gradients nonzero.
PROB_CLAMP = 1e-7


@dataclass
class LossValue:
    """A scalar loss plus the gradient w.r.t. the loss inputs.

    ``kind`` records which coding scheme produced it ("fts", "ml", "ml-v" or
    "rate"; ``bptt.backward`` takes all but "ml"); ``aux`` carries whatever
    the backward pass needs (e.g. first-spike times).
    """

    value: float
    grad: np.ndarray
    kind: str = ""
    aux: dict = field(default_factory=dict)


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


def fts_ce_loss(first_times: np.ndarray, target: int) -> LossValue:
    """Temporal cross-entropy for one sample: -log p_target over spike times."""
    t = np.asarray(first_times, dtype=np.float64)
    n = t.shape[-1]
    if not 0 <= target < n:
        raise IndexError(f"target {target} out of range for {n} neurons")
    p = fts_softmax(t)
    value = -np.log(p[target])
    onehot = np.zeros(n)
    onehot[target] = 1.0
    # d(-log softmax(-t)_c)/dt_i = y_i - p_i
    grad = onehot - p
    return LossValue(value=float(value), grad=grad, kind="fts",
                     aux={"first_times": t})


def fts_ce_loss_batch(first_times: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean temporal cross-entropy over a batch; grad is w.r.t. each time."""
    t = np.asarray(first_times, dtype=np.float64)
    n_samples, n = t.shape
    p = fts_softmax(t)
    idx = np.arange(n_samples)
    value = -np.log(p[idx, targets]).mean()
    onehot = np.zeros_like(p)
    onehot[idx, targets] = 1.0
    grad = (onehot - p) / n_samples
    return LossValue(value=float(value), grad=grad, kind="fts",
                     aux={"first_times": t})


def first_spike_event_prob(probs, correct: int, t: int) -> float:
    """Probability that the correct neuron fires first, at exactly time t.

    P_t = p_c^t * prod_{i != c} prod_{t' <= t} (1 - p_i^{t'})
              * prod_{t' < t} (1 - p_c^{t'})

    i.e. no wrong neuron fires at or before t and the correct neuron stays
    silent until firing at t.  Exact product, no clamping.
    """
    p = probs.p if hasattr(probs, "p") else np.asarray(probs, dtype=np.float64)
    horizon, n = p.shape
    if not 1 <= t <= horizon:
        raise IndexError(f"t={t} outside horizon 1..{horizon}")
    if not 0 <= correct < n:
        raise IndexError(f"correct={correct} out of range for {n} neurons")
    q = 1.0 - p
    wrong = np.prod([q[: t, i].prod() for i in range(n) if i != correct]) if n > 1 else 1.0
    silent_before = q[: t - 1, correct].prod()
    return float(p[t - 1, correct] * wrong * silent_before)


def _ml_loss_core(p: np.ndarray, targets: np.ndarray):
    """Batched ML loss in log space.

    p: (N, T, n) clamped firing probabilities; targets: (N,).
    Returns (per-sample losses (N,), grads (N, T, n)).

    Uses log P_t = log p_c^t - log(1 - p_c^t) + sum_{t' <= t} sum_i log(1 - p_i^{t'})
    and logsumexp over t, so long horizons cannot underflow.
    """
    n_samples, horizon, n = p.shape
    idx = np.arange(n_samples)
    q = 1.0 - p
    lq = np.log(q)
    a = np.cumsum(lq.sum(axis=2), axis=1)                     # (N, T)
    pc = p[idx, :, targets]                                   # (N, T)
    qc = q[idx, :, targets]
    logp_t = np.log(pc) - np.log(qc) + a
    m = logp_t.max(axis=1, keepdims=True)
    scaled = np.exp(logp_t - m)                               # (N, T)
    s = scaled.sum(axis=1, keepdims=True)
    losses = -(m[:, 0] + np.log(s[:, 0]))
    if not np.all(np.isfinite(losses)):
        raise NumericalError("sum of first-spike event probabilities underflowed")
    r = scaled / s                                            # P_t / sum P
    # Suffix sums R_s = sum_{t >= s} r_t.
    suffix = np.cumsum(r[:, ::-1], axis=1)[:, ::-1]           # (N, T)
    suffix_next = np.concatenate([suffix[:, 1:], np.zeros((n_samples, 1))], axis=1)
    # Wrong neurons: dL/dp_i^s = R_s / (1 - p_i^s).
    grads = suffix[:, :, None] / q
    # Correct neuron: dL/dp_c^s = -(r_s / p_c^s - R_{s+1} / (1 - p_c^s)).
    grads[idx, :, targets] = -(r / pc - suffix_next / qc)
    return losses, grads


def ml_loss(probs, correct: int) -> LossValue:
    """ML first-spike loss for one sample: -log sum_t P_t with exact gradient."""
    p = probs.p if hasattr(probs, "p") else np.asarray(probs, dtype=np.float64)
    n = p.shape[-1]
    if not 0 <= correct < n:
        raise IndexError(f"correct={correct} out of range for {n} neurons")
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    losses, grads = _ml_loss_core(pc[None], np.asarray([correct]))
    return LossValue(value=float(losses[0]), grad=grads[0], kind="ml")


def ml_loss_batch(p: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean ML first-spike loss over a batch of probability tables (N, T, n)."""
    pc = np.clip(np.asarray(p, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    targets = np.asarray(targets)
    losses, grads = _ml_loss_core(pc, targets)
    return LossValue(value=float(losses.mean()), grad=grads / len(losses), kind="ml")


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def ml_loss_logits_batch(v: np.ndarray, targets: np.ndarray) -> LossValue:
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
    return LossValue(value=float(losses.mean()), grad=grads / n_samples, kind="ml-v")


def rate_ce_loss(output, target: int) -> LossValue:
    """Softmax cross-entropy on output accumulated across all timesteps.

    ``output`` may be a (T, n) spike array (summed over time) or an
    already-accumulated (n,) vector.  Gradient is w.r.t. the accumulation.
    """
    acc = np.asarray(output, dtype=np.float64)
    if acc.ndim == 2:
        acc = acc.sum(axis=0)
    n = acc.shape[-1]
    if not 0 <= target < n:
        raise IndexError(f"target {target} out of range for {n} neurons")
    p = _softmax(acc)
    value = -np.log(max(p[target], np.finfo(np.float64).tiny))
    onehot = np.zeros(n)
    onehot[target] = 1.0
    return LossValue(value=float(value), grad=p - onehot, kind="rate")


def rate_ce_loss_batch(acc: np.ndarray, targets: np.ndarray) -> LossValue:
    """Mean rate cross-entropy over a batch of accumulations (N, n)."""
    acc = np.asarray(acc, dtype=np.float64)
    n_samples = acc.shape[0]
    idx = np.arange(n_samples)
    p = _softmax(acc)
    value = -np.log(np.maximum(p[idx, targets], np.finfo(np.float64).tiny)).mean()
    onehot = np.zeros_like(p)
    onehot[idx, targets] = 1.0
    return LossValue(value=float(value), grad=(p - onehot) / n_samples, kind="rate")
