"""Adam, LR schedule, training loop determinism, resume, divergence handling."""

import importlib

import numpy as np
import pytest

# the package re-exports the train() function under the same name, so fetch
# the module itself for monkeypatching
train_mod = importlib.import_module("spikefirst.train")
from spikefirst.checkpoint import save_checkpoint
from spikefirst.data import Dataset
from spikefirst.errors import NumericalError, ParameterError
from spikefirst.metrics import evaluate
from spikefirst.train import (AdamState, PRESETS, TrainConfig, TrainingDiverged,
                              adam_step, lr_at, train, write_log_csv)


def test_adam_single_step_hand_value():
    # one step, grad 1, lr 0.1: bias correction cancels, update ~= lr
    params = {"w": np.array([1.0])}
    adam_step(params, {"w": np.array([1.0])}, AdamState(), lr=0.1)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-7)


def test_adam_matches_reference_sequence():
    # a few steps against a straightforward reference implementation
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2))
    params = {"w": w.copy()}
    state = AdamState()
    ref = w.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 6):
        g = rng.normal(size=(3, 2))
        adam_step(params, {"w": g.copy()}, state, lr=0.01, weight_decay=0.5)
        gd = g + 0.5 * ref
        m = 0.9 * m + 0.1 * gd
        v = 0.999 * v + 0.001 * gd * gd
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        ref = ref - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    assert np.allclose(params["w"], ref, atol=1e-12)


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(NumericalError):
        adam_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])},
                  AdamState(), lr=0.1)


def test_adam_update_order_is_name_sorted():
    # two parameter orders, identical result: updates iterate sorted names
    g = {"a": np.array([1.0]), "b": np.array([2.0])}
    p1 = {"a": np.array([0.0]), "b": np.array([0.0])}
    p2 = {"b": np.array([0.0]), "a": np.array([0.0])}
    adam_step(p1, g, AdamState(), lr=0.1)
    adam_step(p2, g, AdamState(), lr=0.1)
    assert p1["a"] == p2["a"] and p1["b"] == p2["b"]


def test_lr_schedule_steps():
    cfg = TrainConfig(lr=0.1, scheduler_step=50, scheduler_gamma=0.5, epochs=1)
    assert lr_at(0, cfg) == 0.1
    assert lr_at(49, cfg) == 0.1
    assert lr_at(50, cfg) == pytest.approx(0.05)
    assert lr_at(149, cfg) == pytest.approx(0.1 * 0.5**2)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(batch_size=0)
    with pytest.raises(ParameterError):
        TrainConfig(scheduler_gamma=0.0)
    with pytest.raises(ValueError):
        TrainConfig(model_kind="Q-BPTT")
    # settings that cannot train: a negative width failed inside numpy, and
    # nan or inf rates saved a checkpoint of NaN parameters
    for bad, match in (({"hidden": -5}, "hidden"), ({"hidden": 0}, "hidden"),
                       ({"lr": 0.0}, "lr"), ({"lr": -1e-3}, "lr"),
                       ({"lr": float("nan")}, "lr"), ({"lr": float("inf")}, "lr"),
                       ({"weight_decay": -1e-4}, "weight decay"),
                       ({"weight_decay": float("nan")}, "weight decay"),
                       ({"weight_decay": float("inf")}, "weight decay")):
        with pytest.raises(ParameterError, match=match):
            TrainConfig(**bad)
    assert TrainConfig(hidden=1, weight_decay=0.0).weight_decay == 0.0


@pytest.mark.parametrize("step", [0, -2])
def test_config_rejects_nonpositive_scheduler_step(step):
    # 0 made lr_at divide by zero; -2 made the rate grow (0.4 at epoch 3)
    with pytest.raises(ParameterError, match="scheduler step"):
        TrainConfig(lr=0.1, scheduler_gamma=0.5, scheduler_step=step)


def test_presets_follow_published_schedules():
    sf = PRESETS["mnist-sf-bptt"]
    assert (sf.lr, sf.weight_decay, sf.scheduler_step, sf.scheduler_gamma) == \
        (5e-2, 1e-6, 50, 0.8)
    assert sf.lambda_leak == 0.7 and sf.epochs == 150 and sf.batch_size == 512
    df = PRESETS["mnist-df-bptt"]
    assert (df.lr, df.weight_decay, df.scheduler_gamma) == (1e-3, 1e-4, 0.5)
    assert df.lambda_leak == 0.9
    assert PRESETS["cifar-df-bptt"].weight_decay == 1e-2


def synthetic_mnist_like(n=60, seed=0):
    """Two linearly separable 784-dim classes, MNIST-shaped."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 0.2, size=(n, 1, 28, 28))
    labels = rng.integers(0, 2, size=n)
    images[labels == 0, 0, :14] += 0.6
    images[labels == 1, 0, 14:] += 0.6
    return Dataset(images=images, labels=labels.astype(np.int64))


def tiny_config(**kw):
    base = dict(model_kind="D-R-BPTT", arch="mlp2", epochs=3, batch_size=20,
                lr=1e-3, weight_decay=0.0, scheduler_step=10,
                scheduler_gamma=0.5, lambda_leak=0.9, horizon=5, seed=0,
                hidden=24)
    base.update(kw)
    return TrainConfig(**base)


def test_train_loss_decreases_on_separable_data():
    ds = synthetic_mnist_like()
    ckpt, rows = train(tiny_config(epochs=5), ds)
    losses = [r["train_loss"] for r in rows]
    assert losses[-1] < losses[0]
    assert ckpt.epoch == 5 and ckpt.adam_step == 5 * 3


def test_train_stochastic_model_runs():
    ds = synthetic_mnist_like(40)
    ckpt, rows = train(tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7,
                                   epochs=2), ds)
    assert len(rows) == 2
    assert all(np.isfinite(r["train_loss"]) for r in rows)


def test_train_tracks_best_accuracy():
    ds = synthetic_mnist_like(60)
    test = synthetic_mnist_like(30, seed=1)
    ckpt, rows = train(tiny_config(epochs=4), ds, test)
    assert ckpt.best_accuracy == max(r["test_acc"] for r in rows)


def test_logged_test_acc_equals_evaluate_for_stochastic_model():
    # a stochastic model's predictions depend on the simulation batch, so the
    # log matches `spikefirst eval` only if both use run_network's default
    # batch; the test set is larger than that batch
    ds = synthetic_mnist_like(40)
    test = synthetic_mnist_like(700, seed=1)
    seen = []
    ckpt, rows = train(tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7), ds, test,
                       epoch_hook=lambda row, snap: seen.append(evaluate(snap, test).accuracy))
    assert [r["test_acc"] for r in rows] == seen
    assert ckpt.best_accuracy == evaluate(ckpt, test).accuracy


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_without_test_set_records_zero_best_accuracy(epochs):
    # nothing is ranked without a test set: the returned checkpoint and every
    # epoch's snapshot record 0.0, however many epochs ran
    seen = []
    ckpt, _ = train(tiny_config(epochs=epochs), synthetic_mnist_like(40), None,
                    epoch_hook=lambda row, snap: seen.append(snap.best_accuracy))
    assert ckpt.best_accuracy == 0.0
    assert seen == [0.0] * epochs


def test_returned_checkpoint_does_not_alias_live_arrays():
    # the returned checkpoint holds copies: training on after its epoch
    # never reaches into its arrays
    ds = synthetic_mnist_like(60)
    test = synthetic_mnist_like(30, seed=1)
    seen = []

    def hook(row, ckpt):
        seen.append((ckpt, {k: v.copy() for k, v in ckpt.params.items()},
                     {k: v.copy() for k, v in ckpt.adam_m.items()}))

    for test_ds in (test, None):
        seen.clear()
        ckpt, _ = train(tiny_config(epochs=3), ds, test_ds, epoch_hook=hook)
        own = [s for s in seen if s[0].epoch == ckpt.epoch]
        assert len(own) == 1 and len(seen) == 3
        _, params, adam_m = own[0]
        for k in params:
            assert np.array_equal(ckpt.params[k], params[k])
            assert np.array_equal(ckpt.adam_m[k], adam_m[k])
            for other, _, _ in seen:
                if other.epoch != ckpt.epoch:
                    assert not np.shares_memory(ckpt.params[k], other.params[k])
                    assert not np.shares_memory(ckpt.adam_m[k], other.adam_m[k])
                    assert not np.shares_memory(ckpt.adam_v[k], other.adam_v[k])


def test_train_bit_identical_across_runs(tmp_path):
    ds = synthetic_mnist_like()
    a, _ = train(tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7), ds)
    b, _ = train(tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7), ds)
    save_checkpoint(a, tmp_path / "a.ckpt")
    save_checkpoint(b, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


@pytest.mark.parametrize("kind", ["D-F-BPTT", "S-F-BPTT", "D-R-BPTT"])
def test_resume_is_bit_exact(kind, tmp_path):
    leak = 0.7 if kind.startswith("S") else 0.9
    ds = synthetic_mnist_like()
    cfg = tiny_config(model_kind=kind, lambda_leak=leak, epochs=4)

    straight, _ = train(cfg, ds)
    half, _ = train(tiny_config(model_kind=kind, lambda_leak=leak, epochs=2), ds)
    resumed, _ = train(cfg, ds, resume=half)

    save_checkpoint(straight, tmp_path / "s.ckpt")
    save_checkpoint(resumed, tmp_path / "r.ckpt")
    assert (tmp_path / "s.ckpt").read_bytes() == (tmp_path / "r.ckpt").read_bytes()


def test_divergence_raises_with_last_good_state(monkeypatch):
    ds = synthetic_mnist_like()

    real_backward = train_mod.backward
    calls = {"n": 0}

    def poisoned(tape, loss):
        calls["n"] += 1
        grads = real_backward(tape, loss)
        if calls["n"] > 3:       # NaN partway through the second epoch
            grads = {k: v * np.nan for k, v in grads.items()}
        return grads

    monkeypatch.setattr(train_mod, "backward", poisoned)
    with pytest.raises(TrainingDiverged) as exc:
        train(tiny_config(epochs=3), ds)
    assert exc.value.checkpoint is not None
    assert exc.value.checkpoint.epoch == 1    # the completed first epoch


def test_write_log_csv(tmp_path):
    rows = [{"epoch": 1, "lr": 0.1, "train_loss": 2.0, "test_acc": 0.5,
             "wall_time_s": 1.25}]
    path = tmp_path / "log.csv"
    write_log_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,test_acc,wall_time_s"
    assert lines[1].startswith("1,0.1,2,0.500000")
