"""Output-coding losses: hand values, brute-force oracles, finite differences.

The single-sample references (``first_spike_event_prob``, ``ml_loss``) live
in ``oracles``; the package's batched losses are checked against them.
"""

import itertools

import numpy as np
import pytest

from spikefirst.coding import (fts_ce_loss_batch, fts_softmax, ml_loss_logits_batch,
                               rate_ce_loss_batch)
from spikefirst.neurons import sigmoid

from oracles import PROB_CLAMP, first_spike_event_prob, ml_loss


def brute_force_event_prob(p, correct, t):
    """Sum the joint probability of every Bernoulli outcome realizing the event
    "the correct neuron's first spike happens at exactly time t and no other
    neuron fires at or before t".  Exponential in n*T, for small tables only.
    """
    horizon, n = p.shape
    total = 0.0
    for bits in itertools.product((0, 1), repeat=horizon * n):
        s = np.array(bits, dtype=float).reshape(horizon, n)
        if s[t - 1, correct] != 1.0:
            continue
        if s[: t - 1, correct].any():
            continue
        wrong = [i for i in range(n) if i != correct]
        if s[:t, wrong].any():
            continue
        joint = np.prod(np.where(s > 0, p, 1.0 - p))
        total += joint
    return total


def test_fts_softmax_hand_value():
    p = fts_softmax(np.array([1.0, 2.0, 4.0]))
    e = np.exp([-1.0, -2.0, -4.0])
    assert np.allclose(p, e / e.sum())
    assert p[0] > p[1] > p[2]          # earlier spike, larger probability


def test_fts_softmax_overflow_safe():
    p = fts_softmax(np.array([1.0, 1000.0]))
    assert np.isfinite(p).all() and p[0] == pytest.approx(1.0)


def test_fts_ce_loss_value_and_gradient():
    t = np.array([[2.0, 3.0, 5.0]])
    target = np.array([0])
    loss = fts_ce_loss_batch(t, target)
    p = fts_softmax(t[0])
    assert loss.value == pytest.approx(-np.log(p[0]))
    # analytic gradient y - p checked against central differences
    eps = 1e-6
    for i in range(3):
        tp = t.copy(); tp[0, i] += eps
        tm = t.copy(); tm[0, i] -= eps
        fd = (fts_ce_loss_batch(tp, target).value
              - fts_ce_loss_batch(tm, target).value) / (2 * eps)
        assert fd == pytest.approx(loss.grad[0, i], abs=1e-8)


def test_fts_ce_loss_batch_is_mean():
    t = np.array([[2.0, 3.0], [1.0, 4.0]])
    targets = np.array([0, 1])
    batch = fts_ce_loss_batch(t, targets)
    singles = [fts_ce_loss_batch(t[i : i + 1], targets[i : i + 1]) for i in range(2)]
    assert batch.value == pytest.approx(np.mean([s.value for s in singles]))
    assert np.allclose(batch.grad, np.concatenate([s.grad for s in singles]) / 2)


@pytest.mark.parametrize("loss_fn,shape", [(fts_ce_loss_batch, (11, 10)),
                                            (ml_loss_logits_batch, (11, 6, 10)),
                                            (rate_ce_loss_batch, (11, 10))])
def test_losses_of_row_blocks_share_the_batch_divisor(loss_fn, shape):
    # training runs a batch in row blocks and gives each block's loss the
    # batch's size: the gradient rows are the whole batch's bit for bit and
    # the values add up to the batch mean
    x = np.random.default_rng(4).normal(2.0, 3.0, size=shape)
    targets = np.arange(shape[0]) % shape[-1]
    whole = loss_fn(x, targets)
    assert whole.value == loss_fn(x, targets, shape[0]).value
    blocks = [loss_fn(x[r : r + 4], targets[r : r + 4], shape[0]) for r in range(0, shape[0], 4)]
    assert np.concatenate([b.grad for b in blocks]).tobytes() == whole.grad.tobytes()
    assert sum(b.value for b in blocks) == pytest.approx(whole.value, rel=1e-14)


def test_fts_ce_loss_target_range():
    with pytest.raises(IndexError):
        fts_ce_loss_batch(np.array([[1.0, 2.0]]), np.array([2]))


def test_event_prob_hand_value():
    # P_2 = p_c^2 (1-p_c^1) (1-p_w^1)(1-p_w^2) = 0.7 * 0.5 * 0.9 * 0.8
    p = np.array([[0.5, 0.1], [0.7, 0.2]])
    assert first_spike_event_prob(p, correct=0, t=2) == pytest.approx(0.252)


def test_event_prob_degenerate_probabilities_exact():
    # exact zeros and ones must flow through unclamped
    p = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert first_spike_event_prob(p, 0, 2) == 1.0
    assert first_spike_event_prob(p, 0, 1) == 0.0
    p1 = np.array([[0.3, 1.0]])
    assert first_spike_event_prob(p1, 0, 1) == 0.0   # the wrong neuron surely fires


def test_event_prob_index_validation():
    p = np.full((3, 2), 0.5)
    with pytest.raises(IndexError):
        first_spike_event_prob(p, 0, 0)
    with pytest.raises(IndexError):
        first_spike_event_prob(p, 0, 4)
    with pytest.raises(IndexError):
        first_spike_event_prob(p, 2, 1)


def test_event_prob_brute_force_small_grid():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        for horizon in (1, 2, 3):
            p = rng.random((horizon, n))
            for correct in range(n):
                for t in range(1, horizon + 1):
                    assert first_spike_event_prob(p, correct, t) == pytest.approx(
                        brute_force_event_prob(p, correct, t), abs=1e-12)


def test_event_probs_sum_below_one():
    rng = np.random.default_rng(12)
    p = rng.random((4, 3))
    s = sum(first_spike_event_prob(p, 1, t) for t in range(1, 5))
    assert 0.0 <= s <= 1.0


def test_ml_loss_matches_event_prob_sum():
    rng = np.random.default_rng(13)
    p = rng.uniform(0.05, 0.95, size=(4, 3))
    loss = ml_loss(p, correct=2)
    total = sum(first_spike_event_prob(p, 2, t) for t in range(1, 5))
    assert loss.value == pytest.approx(-np.log(total), abs=1e-12)


def test_ml_loss_gradient_finite_difference():
    rng = np.random.default_rng(14)
    p = rng.uniform(0.05, 0.95, size=(5, 4))
    loss = ml_loss(p, correct=1)
    eps = 1e-6
    for _ in range(40):
        t = rng.integers(0, 5)
        i = rng.integers(0, 4)
        pp = p.copy(); pp[t, i] += eps
        pm = p.copy(); pm[t, i] -= eps
        fd = (ml_loss(pp, 1).value - ml_loss(pm, 1).value) / (2 * eps)
        g = loss.grad[t, i]
        assert abs(fd - g) <= 1e-6 * max(1.0, abs(fd))


def test_ml_loss_clamps_degenerate_tables():
    # an all-zero table means the event never happens; the clamp keeps the
    # loss finite so training can recover
    loss = ml_loss(np.zeros((3, 2)), correct=0)
    assert np.isfinite(loss.value)
    assert np.isfinite(loss.grad).all()
    # and the clamp floor is what bounds it
    assert loss.value <= -np.log(PROB_CLAMP) * 3 * 2


def test_ml_loss_long_horizon_no_underflow():
    p = np.full((200, 10), 0.4)
    loss = ml_loss(p, correct=0)
    assert np.isfinite(loss.value)


def test_ml_loss_logits_batch_is_mean_of_singles():
    rng = np.random.default_rng(15)
    p = rng.uniform(0.1, 0.9, size=(3, 4, 5))
    v = np.log(p / (1.0 - p))
    targets = np.array([0, 2, 4])
    batch = ml_loss_logits_batch(v, targets)
    singles = [ml_loss_logits_batch(v[i : i + 1], targets[i : i + 1]) for i in range(3)]
    assert batch.value == pytest.approx(np.mean([s.value for s in singles]))
    assert np.allclose(batch.grad, np.concatenate([s.grad for s in singles]) / 3)


def test_ml_loss_logits_matches_probability_form():
    rng = np.random.default_rng(17)
    v = rng.normal(scale=2.0, size=(3, 5, 4))
    targets = np.array([0, 3, 1])
    fused = ml_loss_logits_batch(v, targets)
    p = sigmoid(v)
    refs = [ml_loss(p[i], targets[i]) for i in range(3)]
    assert fused.value == pytest.approx(np.mean([r.value for r in refs]), abs=1e-12)
    # chain rule: dL/dv = dL/dp * p(1-p) on moderate logits
    ref_grad = np.stack([r.grad for r in refs]) / 3
    assert np.allclose(fused.grad, ref_grad * p * (1.0 - p), atol=1e-12)


def test_ml_loss_logits_gradient_finite_difference():
    rng = np.random.default_rng(18)
    v = rng.normal(scale=3.0, size=(2, 4, 3))
    targets = np.array([2, 0])
    loss = ml_loss_logits_batch(v, targets)
    eps = 1e-6
    for i in np.ndindex(v.shape):
        vp = v.copy(); vp[i] += eps
        vm = v.copy(); vm[i] -= eps
        fd = (ml_loss_logits_batch(vp, targets).value
              - ml_loss_logits_batch(vm, targets).value) / (2 * eps)
        assert abs(fd - loss.grad[i]) <= 1e-6 * max(1.0, abs(fd))


def test_ml_loss_logits_survives_saturation():
    # deeply negative potentials: p underflows, yet the correct neuron still
    # receives an O(1) pull upward, so a saturated output layer can recover
    v = np.full((1, 6, 4), -60.0)
    loss = ml_loss_logits_batch(v, np.array([2]))
    assert np.isfinite(loss.value)
    assert loss.grad[0, :, 2].min() < -0.1
    wrong = [i for i in range(4) if i != 2]
    assert np.abs(loss.grad[0][:, wrong]).max() < 1e-12


def test_rate_ce_loss_hand_value():
    counts = np.array([3.0, 1.0, 0.0])
    loss = rate_ce_loss_batch(counts[None], np.array([0]))
    e = np.exp(counts - counts.max())
    p = e / e.sum()
    assert loss.value == pytest.approx(-np.log(p[0]))
    assert np.allclose(loss.grad[0], p - np.array([1.0, 0.0, 0.0]))


def test_rate_ce_loss_batch_accepts_spike_counts():
    # training sums the output layer's (T, N, n) uint8 spike train over time
    spikes = np.array([[[1, 0]], [[1, 1]], [[1, 0]]], dtype=np.uint8)
    from_train = rate_ce_loss_batch(spikes.sum(axis=0), np.array([0]))
    from_counts = rate_ce_loss_batch(np.array([[3.0, 1.0]]), np.array([0]))
    assert from_train.value == from_counts.value
    assert np.array_equal(from_train.grad, from_counts.grad)


def test_rate_ce_loss_batch_gradient_fd():
    rng = np.random.default_rng(16)
    acc = rng.normal(size=(3, 4)) * 2
    targets = np.array([1, 0, 3])
    loss = rate_ce_loss_batch(acc, targets)
    eps = 1e-6
    for i in range(3):
        for j in range(4):
            ap = acc.copy(); ap[i, j] += eps
            am = acc.copy(); am[i, j] -= eps
            fd = (rate_ce_loss_batch(ap, targets).value
                  - rate_ce_loss_batch(am, targets).value) / (2 * eps)
            assert fd == pytest.approx(loss.grad[i, j], abs=1e-8)
