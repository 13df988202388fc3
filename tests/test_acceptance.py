"""Acceptance suite: one test per shipping criterion.

Criteria 1-2 are oracle checks and run everywhere.  Criteria 3 (smoke), 5-9
need trained MNIST models; the session fixtures train the short smoke
schedules once and cache the checkpoints under .cache/.  The full published
schedules (criterion 3 full, criterion 4) take hours on a desktop CPU and
only run when SPIKEFIRST_FULL=1 is set.  Criterion 11 records what is
deliberately not reproduced at desk scale.
"""

import itertools
import os
import time

import numpy as np
import pytest

import spikefirst as sf
from spikefirst.metrics import energy_cost, evaluate, noise_sweep
from spikefirst.train import PRESETS, train
from spikefirst.tuner import DeConfig, de_minimize, de_optimize
from spikefirst.checkpoint import load_checkpoint, save_checkpoint

from conftest import cache_path, needs_mnist
from oracles import first_spike_event_prob, ml_loss, smoothed_spike

FULL = os.environ.get("SPIKEFIRST_FULL") == "1"
needs_full = pytest.mark.skipif(not FULL, reason="full published schedule; "
                                "set SPIKEFIRST_FULL=1 to run (hours on CPU)")


# --- criterion 1: closed-form first-spike event probability vs enumeration ---

def enumerate_event_prob(p, correct, t):
    """Vectorized enumeration of all 2^(n*T) joint Bernoulli outcomes."""
    horizon, n = p.shape
    bits = np.array(list(itertools.product((0, 1), repeat=horizon * n)),
                    dtype=np.float64).reshape(-1, horizon, n)
    joint = np.prod(np.where(bits > 0, p, 1.0 - p), axis=(1, 2))
    fires_at_t = bits[:, t - 1, correct] == 1
    silent_before = bits[:, : t - 1, correct].sum(axis=1) == 0
    wrong = [i for i in range(n) if i != correct]
    no_wrong = bits[:, :t, wrong].sum(axis=(1, 2)) == 0
    return float(joint[fires_at_t & silent_before & no_wrong].sum())


def test_criterion_1_event_probability_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for n in (2, 3):
        for horizon in (1, 2, 3, 4):
            for _ in range(100):
                p = rng.random((horizon, n))
                correct = int(rng.integers(0, n))
                t = int(rng.integers(1, horizon + 1))
                got = first_spike_event_prob(p, correct, t)
                want = enumerate_event_prob(p, correct, t)
                assert abs(got - want) <= 1e-12
    assert time.monotonic() - start < 10.0


# --- criterion 2: gradient checks against finite differences ---

def test_criterion_2_gradient_checks():
    start = time.monotonic()
    rng = np.random.default_rng(7)

    # ml loss gradient w.r.t. every entry of the probability table
    p = rng.uniform(0.05, 0.95, size=(5, 4))
    loss = ml_loss(p, correct=2)
    eps = 1e-6
    for t in range(5):
        for i in range(4):
            pp = p.copy(); pp[t, i] += eps
            pm = p.copy(); pm[t, i] -= eps
            fd = (ml_loss(pp, 2).value - ml_loss(pm, 2).value) / (2 * eps)
            assert abs(fd - loss.grad[t, i]) <= 1e-6 * max(1.0, abs(fd))

    # arctan surrogate against finite differences of the smoothed threshold
    from test_bptt import surrogate
    v = np.linspace(-3, 3, 121)
    fd = (smoothed_spike(v + eps) - smoothed_spike(v - eps)) / (2 * eps)
    assert np.all(np.abs(fd - surrogate(v))
                  <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    # conv2d / pool2d backward (reuses the unit-test oracles)
    from test_tensor_ops import fd_grad
    from spikefirst.tensor import conv2d, conv2d_backward, pool2d, pool2d_backward
    x = rng.normal(size=(1, 2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    gout = rng.normal(size=conv2d(x, k, 1, 1).shape)
    gi, gk = conv2d_backward(gout, x, k, 1, 1)
    clo = lambda: float((conv2d(x, k, 1, 1) * gout).sum())  # noqa: E731
    for arr, g in ((x, gi), (k, gk)):
        fd = fd_grad(clo, arr)
        assert np.all(np.abs(fd - g) <= 1e-6 * np.maximum(1.0, np.abs(fd)))
    for mode in ("average", "max"):
        xp = rng.normal(size=(1, 2, 4, 4))
        gp = rng.normal(size=(1, 2, 2, 2))
        gpi = pool2d_backward(gp, xp, 2, mode)
        plo = lambda: float((pool2d(xp, 2, mode) * gp).sum())  # noqa: E731
        fd = fd_grad(plo, xp)
        assert np.all(np.abs(fd - gpi) <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    # end-to-end two-layer networks with frozen noise / frozen resets are
    # exercised at the 1e-5 tolerance by tests/test_bptt.py; rerunning the
    # deterministic one here keeps the criterion self-contained
    from test_bptt import test_deterministic_end_to_end_gradient
    test_deterministic_end_to_end_gradient()
    from test_bptt import test_stochastic_end_to_end_gradient_fused_logits
    test_stochastic_end_to_end_gradient_fused_logits()
    assert time.monotonic() - start < 60.0


# --- criteria 3-8 need trained models -----------------------------------------

def _tuned(ckpt, train_ds, tag):
    """DE-tune the first-to-spike thresholds/scales; cached like the models."""
    path = cache_path(f"{tag}-tuned")
    if path.exists():
        return load_checkpoint(path)
    config = DeConfig(pop_size=8, max_generations=16, seed=0, bounds=(0.5, 3.0))
    tuned, _ = de_optimize(ckpt, train_ds, config)
    save_checkpoint(tuned, path)
    return tuned


@pytest.fixture(scope="session")
def tuned_df(smoke_df, mnist_train):
    return _tuned(smoke_df, mnist_train, "mnist-df-bptt-smoke")


@pytest.fixture(scope="session")
def tuned_sf(smoke_sf, mnist_train):
    return _tuned(smoke_sf, mnist_train, "mnist-sf-bptt-smoke")


@needs_mnist
def test_criterion_3_smoke_accuracy(smoke_df, smoke_sf):
    assert smoke_df.best_accuracy >= 0.970
    assert smoke_sf.best_accuracy >= 0.970


@needs_full
def test_criterion_3_full_schedule_mlp(mnist_train, mnist_test):
    df, _ = train(PRESETS["mnist-df-bptt"], mnist_train, mnist_test)
    assert df.best_accuracy >= 0.983
    sf_ckpt, _ = train(PRESETS["mnist-sf-bptt"], mnist_train, mnist_test)
    assert sf_ckpt.best_accuracy >= 0.981


@needs_full
def test_criterion_4_full_schedule_lenet5(mnist_train, mnist_test):
    df, _ = train(PRESETS["mnist-df-lenet5"], mnist_train, mnist_test)
    assert df.best_accuracy >= 0.986
    sf_ckpt, _ = train(PRESETS["mnist-sf-lenet5"], mnist_train, mnist_test)
    assert sf_ckpt.best_accuracy >= 0.982


@needs_mnist
def test_criterion_5_latency_ordering(tuned_df, tuned_sf, eval_subset):
    rep_df = evaluate(tuned_df, eval_subset)
    rep_sf = evaluate(tuned_sf, eval_subset)
    assert rep_sf.mean_latency <= rep_df.mean_latency
    assert rep_sf.mean_latency <= 3.0
    assert rep_df.mean_latency <= 4.0


@needs_mnist
def test_criterion_6_energy_cost(tuned_df, tuned_sf, smoke_dr, eval_subset):
    # hand-computed toy pipeline value, exact
    assert energy_cost([0.5, 0.25], 4, [12, 6]) == pytest.approx(5 / 3, abs=1e-12)

    e_df = evaluate(tuned_df, eval_subset).energy_cost
    e_sf = evaluate(tuned_sf, eval_subset).energy_cost
    e_dr = evaluate(smoke_dr, eval_subset, mode="rate").energy_cost
    assert e_df <= 0.2
    assert e_sf <= 0.2
    assert e_dr >= 0.8
    assert e_df < e_dr and e_sf < e_dr


@needs_mnist
def test_criterion_7_output_layer_sparsity(tuned_df, tuned_sf, smoke_dr, eval_subset):
    out_df = evaluate(tuned_df, eval_subset).layer_rates[-1]
    out_sf = evaluate(tuned_sf, eval_subset).layer_rates[-1]
    out_dr = evaluate(smoke_dr, eval_subset, mode="rate").layer_rates[-1]
    assert out_df < out_dr
    assert out_sf < out_dr


@needs_mnist
def test_criterion_8_noise_robustness(smoke_df, smoke_sf, smoke_dr, eval_subset):
    accs = {}
    for tag, ckpt in (("df", smoke_df), ("sf", smoke_sf), ("dr", smoke_dr)):
        clean = evaluate(ckpt, eval_subset, mode=ckpt.spec.coding).accuracy
        rows = dict(noise_sweep(ckpt, eval_subset, [0.0, 1.0]))
        assert rows[0.0] == clean                 # bit-for-bit clean reuse
        assert rows[1.0] < rows[0.0]              # heavy noise hurts every model
        accs[tag] = rows
    assert accs["dr"][1.0] >= accs["df"][1.0]     # rate coding degrades slower


@needs_mnist
def test_criterion_9_determinism_and_resume(mnist_train, mnist_test, tmp_path):
    from spikefirst.train import TrainConfig
    sub = mnist_train.subset(np.arange(3000))
    tsub = mnist_test.subset(np.arange(1000))
    cfg = dict(model_kind="D-F-BPTT", arch="mlp2", epochs=2, batch_size=500,
               lr=1e-3, weight_decay=1e-4, scheduler_step=50,
               scheduler_gamma=0.5, lambda_leak=0.9, horizon=8, seed=11,
               hidden=64)

    def run(tag, config, resume=None):
        ckpt, rows = train(TrainConfig(**config), sub, tsub, resume=resume)
        save_checkpoint(ckpt, tmp_path / f"{tag}.ckpt")
        # wall-clock time cannot be bit-identical across runs by nature
        return ckpt, [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]

    _, rows_a = run("a", cfg)
    _, rows_b = run("b", cfg)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert rows_a == rows_b

    half, _ = run("half", dict(cfg, epochs=1))
    run("resumed", cfg, resume=half)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "resumed.ckpt").read_bytes()


def test_criterion_10_de_tuner_analytic():
    bounds = np.tile([-5.0, 5.0], (3, 1))
    for seed in range(3):
        result = de_minimize(lambda x: float(((x - 1.0) ** 2).sum()), bounds,
                             DeConfig(max_generations=50, seed=seed))
        assert result.best_objective <= 1e-2
        assert np.all(np.diff(result.history) <= 0.0)


def test_criterion_11_out_of_scope_documented():
    # the VGG15/CIFAR-10 configurations exist and build, but their published
    # 1000-epoch schedules are not reproduced at desk scale
    spec = sf.build("vgg15", "D-F-BPTT")
    assert len([l for l in spec.layers if l.kind == "conv"]) == 13
    assert PRESETS["cifar-sf-bptt"].epochs == 1000
    assert PRESETS["cifar-df-bptt"].epochs == 1000
