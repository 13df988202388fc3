"""Independent references the tests check the package against.

* ``first_spike_event_prob``: the exact product form of the first-spike event
  probability, itself checked against brute-force enumeration;
* ``ml_loss``: the maximum-likelihood first-spike loss on a probability
  table, the reference for the fused ``coding.ml_loss_logits_batch``;
* ``smoothed_spike``: the smooth relaxation of the hard threshold whose exact
  derivative is the arctan surrogate, for finite-difference networks.
"""

import numpy as np

from spikefirst.coding import LossValue
from spikefirst.errors import NumericalError

# ml_loss clamps probabilities away from {0, 1} so the loss stays finite
PROB_CLAMP = 1e-7


def smoothed_spike(v: np.ndarray, alpha: float = 2.0) -> np.ndarray:
    """Smooth arctan relaxation of the hard threshold.

    Antiderivative of ``bptt.arctan_surrogate_grad``: (2 / (pi^2 * alpha)) *
    arctan(pi * v * alpha / 2).  Same arctan shape as the usual smoothed
    spike, normalized so its exact slope is the backward rule in use (the
    published gradient formula carries a 1/pi prefactor rather than the
    literal derivative's alpha/2).
    """
    z = np.pi * np.asarray(v, dtype=np.float64) * (alpha / 2.0)
    return (2.0 / (np.pi * np.pi * alpha)) * np.arctan(z)


def first_spike_event_prob(probs, correct: int, t: int) -> float:
    """Probability that the correct neuron fires first, at exactly time t.

    P_t = p_c^t * prod_{i != c} prod_{t' <= t} (1 - p_i^{t'})
              * prod_{t' < t} (1 - p_c^{t'})

    i.e. no wrong neuron fires at or before t and the correct neuron stays
    silent until firing at t.  Exact product, no clamping.
    """
    p = np.asarray(probs, dtype=np.float64)
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
    """ML first-spike loss for one sample: -log sum_t P_t with exact gradient.

    The gradient is w.r.t. the (T, n) probability table; ``kind`` is "ml",
    which ``bptt.backward`` does not take.
    """
    p = np.asarray(probs, dtype=np.float64)
    n = p.shape[-1]
    if not 0 <= correct < n:
        raise IndexError(f"correct={correct} out of range for {n} neurons")
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    losses, grads = _ml_loss_core(pc[None], np.asarray([correct]))
    return LossValue(value=float(losses[0]), grad=grads[0], kind="ml")
