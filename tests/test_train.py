"""Adam, LR schedule, training loop determinism, resume, divergence handling."""

import gc
import importlib
import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

# the package re-exports the train() function under the same name, so fetch
# the module itself for monkeypatching
train_mod = importlib.import_module("spikefirst.train")
from spikefirst import network
from spikefirst.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from spikefirst.data import Dataset, encode_direct
from spikefirst.errors import NumericalError, ParameterError
from spikefirst.metrics import evaluate
from spikefirst.network import DEFAULT_HIDDEN, block_rows, build, init_params
from spikefirst.rng import RngStream
from spikefirst.train import (AdamState, PRESETS, TrainConfig, TrainingDiverged,
                              adam_step, lr_at, train)

import oracles


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


@pytest.mark.parametrize("weight_decay", [0.0, 0.5])
def test_adam_is_bit_identical_to_reference(weight_decay):
    # the in-place update keeps the reference's operations and their order,
    # so parameters and moments agree bit for bit, not only to a tolerance
    rng = np.random.default_rng(1)
    shapes = {"a": (7, 5), "b": (3, 2, 2, 2)}
    params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    ref = {k: w.copy() for k, w in params.items()}
    state, ref_state = AdamState(), AdamState()
    for _ in range(5):
        grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        given = {k: g.copy() for k, g in grads.items()}
        adam_step(params, grads, state, lr=0.01, weight_decay=weight_decay)
        oracles.adam_step(ref, given, ref_state, lr=0.01, weight_decay=weight_decay)
        for k in shapes:
            assert grads[k].tobytes() == given[k].tobytes()   # grads are only read
            assert params[k].tobytes() == ref[k].tobytes()
            assert state.m[k].tobytes() == ref_state.m[k].tobytes()
            assert state.v[k].tobytes() == ref_state.v[k].tobytes()
    assert state.step == ref_state.step == 5


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
    with pytest.raises(ParameterError):
        TrainConfig(model_kind="Q-BPTT")
    # settings that cannot train: a negative width failed inside numpy, and
    # nan or inf rates saved a checkpoint of NaN parameters
    for bad, match in (({"hidden": -5}, "hidden"), ({"hidden": 0}, "hidden"),
                       ({"lr": 0.0}, "lr"), ({"lr": -1e-3}, "lr"),
                       ({"lr": float("nan")}, "lr"), ({"lr": float("inf")}, "lr"),
                       ({"weight_decay": -1e-4}, "weight decay"),
                       ({"weight_decay": float("nan")}, "weight decay"),
                       ({"weight_decay": float("inf")}, "weight decay"),
                       # a leak outside [0, 1] failed only inside build, and
                       # nan not at all
                       ({"lambda_leak": 1.5}, "leak"), ({"lambda_leak": -0.1}, "leak"),
                       ({"lambda_leak": float("nan")}, "leak"),
                       # a fraction was truncated, and a string or a
                       # non-string kind raised a bare ValueError or
                       # AttributeError
                       ({"hidden": 2.7}, "hidden"), ({"horizon": 3.9}, "horizon"),
                       ({"hidden": "x"}, "hidden"), ({"horizon": "x"}, "horizon"),
                       ({"lambda_leak": "x"}, "leak"), ({"model_kind": 5}, "model kind")):
        with pytest.raises(ParameterError, match=match):
            TrainConfig(**bad)
    assert TrainConfig(hidden=1, weight_decay=0.0).weight_decay == 0.0
    assert TrainConfig(lambda_leak=0.0).lambda_leak == 0.0
    assert TrainConfig(lambda_leak=1.0).lambda_leak == 1.0


def test_config_rejects_an_unknown_arch_and_a_hidden_width_it_cannot_use():
    # an unknown arch failed only inside build, after the dataset was read;
    # lenet5 and vgg15 have fixed widths, and their hidden was dropped
    with pytest.raises(ParameterError, match="arch"):
        TrainConfig(arch="foo")
    for arch in ("lenet5", "vgg15"):
        with pytest.raises(ParameterError, match="hidden"):
            TrainConfig(arch=arch, hidden=5)
        assert TrainConfig(arch=arch, hidden=DEFAULT_HIDDEN).hidden == DEFAULT_HIDDEN
    assert TrainConfig(arch="mlp2", hidden=5).hidden == 5


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
    # the log and `spikefirst eval` key a stochastic model's draws by the
    # same seed and sample indices; the test set is larger than one batch
    ds = synthetic_mnist_like(40)
    test = synthetic_mnist_like(700, seed=1)
    seen = []
    ckpt, rows = train(tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7), ds, test,
                       epoch_hook=lambda row, snap: seen.append(evaluate(snap, test).accuracy))
    assert [r["test_acc"] for r in rows] == seen
    assert ckpt.best_accuracy == evaluate(ckpt, test).accuracy


def test_stochastic_training_draws_do_not_depend_on_the_batch(monkeypatch):
    # training draws are keyed by (epoch, layer, step, dataset index): with
    # the weights held still, each sample fires the same spikes in an epoch
    # of batches of 20 as of 7, and forward on a reordered subset of a
    # batch's rows gives those rows of forward on the whole batch
    ds = synthetic_mnist_like(40)
    forward = train_mod.net_forward
    monkeypatch.setattr(train_mod, "adam_step", lambda *args, **kwargs: None)
    seen = {}
    for batch_size in (20, 7):
        spikes = seen[batch_size] = {}

        def recording(spec, params, encoded, streams, rows, drive0=None):
            records, tape = forward(spec, params, encoded, streams, rows=rows, drive0=drive0)
            for i, row in enumerate(rows.tolist()):
                spikes[row] = [r[:, i].copy() for r in records]
            return records, tape

        monkeypatch.setattr(train_mod, "net_forward", recording)
        ckpt, _ = train(tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7, epochs=1,
                                    batch_size=batch_size), ds)
    assert sorted(seen[20]) == sorted(seen[7]) == list(range(40))
    for row in range(40):
        for a, b in zip(seen[20][row], seen[7][row]):
            assert np.array_equal(a, b), row
    rate = np.mean([s[0].mean() for s in seen[20].values()])
    assert 0.05 < rate < 0.95

    idx = np.array([31, 4, 17, 9, 22, 38, 0])

    def keyed_forward(rows):
        streams = [RngStream(6, 100 + li) for li in range(2)]
        return forward(ckpt.spec, ckpt.params,
                       encode_direct(ds.images[rows], ckpt.spec.horizon), streams, rows=rows)[0]

    whole = keyed_forward(idx)
    sub = np.array([5, 0, 3])
    for w, part in zip(whole, keyed_forward(idx[sub])):
        assert np.array_equal(w[:, sub], part)


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_without_test_set_records_zero_best_accuracy(epochs):
    # nothing is ranked without a test set: the returned checkpoint and every
    # epoch's snapshot record 0.0, however many epochs ran
    seen = []
    ckpt, _ = train(tiny_config(epochs=epochs), synthetic_mnist_like(40), None,
                    epoch_hook=lambda row, snap: seen.append(snap.best_accuracy))
    assert ckpt.best_accuracy == 0.0
    assert seen == [0.0] * epochs


def test_train_without_test_set_frees_the_initial_snapshot(monkeypatch):
    # without a test set the initial snapshot can be returned only before
    # epoch 1's exists; holding it all run costs a copy of the parameters
    # (114 MB on vgg15)
    snapshot, made, alive = train_mod._snapshot, [], []

    def recording(*args):
        ckpt = snapshot(*args)
        made.append(weakref.ref(ckpt))
        return ckpt

    def hook(row, snap):
        gc.collect()
        alive.append([ref() is not None for ref in made])

    monkeypatch.setattr(train_mod, "_snapshot", recording)
    train(tiny_config(epochs=2), synthetic_mnist_like(40), None, epoch_hook=hook)
    assert alive == [[False, True], [False, False, True]]


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


def test_resume_trains_the_checkpoints_network():
    # a D-F config resuming an S-F checkpoint: the run trains the
    # checkpoint's stochastic network, as the S-F config would, and builds
    # no network of its own
    ds = synthetic_mnist_like()
    sf_cfg = tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7, epochs=2)
    half, _ = train(tiny_config(model_kind="S-F-BPTT", lambda_leak=0.7, epochs=1), ds)
    want, _ = train(sf_cfg, ds, resume=half)
    df_cfg = tiny_config(model_kind="D-F-BPTT", lambda_leak=0.9, epochs=2, hidden=7)
    got, log = train(df_cfg, ds, resume=half)
    assert got.spec == half.spec and len(log) == 1
    for name in want.params:
        assert got.params[name].tobytes() == want.params[name].tobytes(), name
        assert got.adam_m[name].tobytes() == want.adam_m[name].tobytes(), name


def test_every_snapshot_of_a_ranked_run_loads(tmp_path):
    # the CLI saves the last good snapshot of a diverged run: every epoch's
    # snapshot records a best accuracy in [0, 1], which the loader demands
    paths = []

    def save(row, snap):
        paths.append(tmp_path / f"e{row['epoch']}.ckpt")
        save_checkpoint(snap, paths[-1])

    train(tiny_config(epochs=2), synthetic_mnist_like(40), synthetic_mnist_like(30, seed=1),
          epoch_hook=save)
    assert [load_checkpoint(p).epoch for p in paths] == [1, 2]


def test_resume_from_the_best_epochs_snapshot_returns_that_epoch(tmp_path):
    # with 35% of the labels flipped and a large step, epoch 1 scores best
    # and the later epochs fall back.  Each snapshot ranks its own epoch, so
    # a run resumed from epoch 1's snapshot still ranks against epoch 1's
    # accuracy and returns that epoch, as the straight run does
    clean = synthetic_mnist_like(60)
    flip = np.random.default_rng(100).random(60) < 0.35
    ds = Dataset(images=clean.images, labels=np.where(flip, 1 - clean.labels, clean.labels))
    test = synthetic_mnist_like(40, seed=1)
    cfg = tiny_config(epochs=4, lr=3e-2, seed=3)
    paths = []

    def save(row, snap):
        paths.append(tmp_path / f"e{row['epoch']}.ckpt")
        save_checkpoint(snap, paths[-1])

    straight, rows = train(cfg, ds, test, epoch_hook=save)
    accs = [r["test_acc"] for r in rows]
    assert straight.epoch == 1 and max(accs[1:]) < accs[0]
    # every snapshot's best accuracy counts its own epoch
    assert [load_checkpoint(p).best_accuracy for p in paths] == list(itertools.accumulate(accs, max))

    resumed, _ = train(cfg, ds, test, resume=load_checkpoint(paths[0]))
    save_checkpoint(straight, tmp_path / "s.ckpt")
    save_checkpoint(resumed, tmp_path / "r.ckpt")
    assert (tmp_path / "s.ckpt").read_bytes() == (tmp_path / "r.ckpt").read_bytes()


def test_divergence_raises_with_last_good_state(monkeypatch):
    ds = synthetic_mnist_like()

    real_backward = train_mod.backward
    calls = {"n": 0}

    # backward runs once per row block; the 24-neuron network's blocks are
    # 2048 rows, so each batch of 20 is one block and one call, and an epoch
    # of 60 samples is three calls
    def poisoned(tape, g_top):
        calls["n"] += 1
        grads, g_drive0 = real_backward(tape, g_top)
        if calls["n"] > 3:       # NaN partway through the second epoch
            grads = {k: v * np.nan for k, v in grads.items()}
        return grads, g_drive0

    monkeypatch.setattr(train_mod, "backward", poisoned)
    with pytest.raises(TrainingDiverged) as exc:
        train(tiny_config(epochs=3), ds)
    assert calls["n"] == 4                    # Adam rejected the first NaN batch
    assert exc.value.checkpoint is not None
    assert exc.value.checkpoint.epoch == 1    # the completed first epoch


@pytest.mark.parametrize("model_kind", ["D-F-BPTT", "S-F-BPTT", "D-R-BPTT"])
def test_tape_is_freed_before_the_optimizer_step(monkeypatch, model_kind):
    # the tape is the step's largest allocation; the next block's forward
    # pass, Adam's scratch arrays and the end-of-epoch snapshot must not
    # stack on top of it.  8-row blocks cut each batch of 20 into 8 + 8 + 4
    # rows, so every block's tape must be dead before the next block starts
    ds = synthetic_mnist_like(40)
    real_forward, real_adam = train_mod.net_forward, train_mod.adam_step
    taped = []

    def assert_tapes_freed(when):
        assert all(ref() is None for refs in taped for ref in refs), f"tape alive {when}"

    def forward(*args, **kwargs):
        assert_tapes_freed("during the next block's forward")
        records, tape = real_forward(*args, **kwargs)
        arrays = [a for tr in tape.traces for a in (tr.v, tr.spikes, tr.probs)
                  if a is not None]
        taped.append([weakref.ref(tape)] + [weakref.ref(a) for a in arrays])
        return records, tape

    def adam(*args, **kwargs):
        assert_tapes_freed("during adam_step")
        return real_adam(*args, **kwargs)

    monkeypatch.setattr(network, "_L2_BYTES", 0)
    monkeypatch.setattr(network, "_MIN_BLOCK_ROWS", 8)
    monkeypatch.setattr(train_mod, "net_forward", forward)
    monkeypatch.setattr(train_mod, "adam_step", adam)
    leak = 0.7 if model_kind.startswith("S") else 0.9
    train(tiny_config(model_kind=model_kind, lambda_leak=leak, epochs=1), ds)
    assert len(taped) == 6                    # two batches of three blocks


def _mnist_like(n, seed=5):
    """``n`` MNIST-shaped images of sparse random pixels, labels 0-9 in turn."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, size=(n, 1, 28, 28)) * (rng.uniform(size=(n, 1, 28, 28)) < 0.3)
    return Dataset(images=images, labels=np.arange(n) % 10)


def _resumable(arch, model_kind, gain):
    """A fresh checkpoint of ``arch`` with its initial weights times ``gain``."""
    spec = build(arch, model_kind, {"hidden": 800} if arch == "mlp2" else {})
    params = init_params(spec, RngStream(0, 1))
    return Checkpoint(spec=spec, params={k: gain * w for k, w in params.items()})


@pytest.mark.parametrize("model_kind,arch,n,block", [
    ("D-F-BPTT", "mlp2", 128, 64),
    ("S-F-BPTT", "mlp2", 128, 64),
    ("D-R-BPTT", "mlp2", 128, 64),
    ("D-F-BPTT", "lenet5", 32, 16),
])
def test_blocked_step_matches_whole_batch_step(model_kind, arch, n, block):
    # train cuts each batch into block_rows blocks: a step over two blocks
    # against the same step with the whole batch as one block.  The spikes
    # of every sample are equal and the losses' rows are the whole batch's
    # bit for bit; only the order of the sums over rows differs, so the
    # summed weight gradients and loss are equal to a few ulps (at most
    # 2.1e-15 of a weight's largest gradient entry here, 1.8e-15 at batch
    # 512).  The bound, 1e-13 of the largest entry, leaves room for such
    # reorderings of sums over hundreds of rows, and a flipped spike, which
    # changes one sample's contribution, moves a gradient by orders of
    # magnitude more.  The deterministic weights are scaled up so that every
    # layer spikes.
    ckpt = _resumable(arch, model_kind, 1.0 if model_kind.startswith("S") else 4.0)
    ds = _mnist_like(n)
    cfg = TrainConfig(model_kind=model_kind, arch=arch, epochs=1, batch_size=n,
                      lambda_leak=0.7 if model_kind.startswith("S") else 0.9)
    assert block_rows(ckpt.spec, (28, 28)) == block

    def step(whole_batch):
        seen = {"rows": [], "spikes": []}
        forward = train_mod.net_forward

        def recording(*args, **kwargs):
            records, tape = forward(*args, **kwargs)
            seen["rows"].append(len(kwargs["rows"]))
            seen["spikes"].append([r.copy() for r in records])
            return records, tape

        with pytest.MonkeyPatch.context() as m:
            if whole_batch:
                m.setattr(train_mod, "block_rows", lambda spec, input_hw: n)
            m.setattr(train_mod, "net_forward", recording)
            m.setattr(train_mod, "adam_step",
                      lambda params, grads, *args: seen.update(grads=grads))
            _, log = train(cfg, ds, resume=ckpt)
        spikes = [np.concatenate(layer, axis=1) for layer in zip(*seen["spikes"])]
        return seen["rows"], spikes, seen["grads"], log[0]["train_loss"]

    rows, spikes, grads, loss = step(whole_batch=False)
    whole_rows, whole_spikes, whole_grads, whole_loss = step(whole_batch=True)
    assert rows == [block] * (n // block) and whole_rows == [n]
    for layer, (got, want) in enumerate(zip(spikes, whole_spikes)):
        assert np.array_equal(got, want), f"layer {layer}: a spike flipped"
        assert 0.02 < got.mean() < 0.98, layer
    assert abs(loss - whole_loss) <= 1e-13 * abs(whole_loss)
    assert sorted(grads) == sorted(whole_grads)
    for name, want in whole_grads.items():
        err = np.abs(grads[name] - want).max() / np.abs(want).max()
        assert err <= 1e-13, f"{name}: {err:.2e} of its largest entry"


@pytest.mark.parametrize("model_kind", ["D-F-BPTT", "S-F-BPTT", "D-R-BPTT"])
def test_training_step_peak_memory_is_one_blocks_tape(monkeypatch, model_kind):
    # one mlp2-800 step at batch 512, T=20, in its 64-row blocks, counted
    # from the batch's layer-0 drive.  Up to Adam, the peak holds the
    # batch's images and layer-0 drive, which then holds the blocks'
    # layer-0 drive gradients (0.4 units each of one (T, 64, 800) float64
    # buffer), one block's tape (its (T, 64, 800) membranes or
    # probabilities and uint8 spikes, 1.1 units) and per-step buffers, and
    # at the end layer 0's weight gradient (0.6 units): 1.9 units measured,
    # bounded at 3.  A whole-batch tape alone is 9 units.  The batch's
    # arrays are freed before Adam, which then adds weight-sized buffers
    # only, the same whatever the block: its first step holds the gradient,
    # two moments and two scratch arrays of 784 x 800, 2.7 units measured
    # for the step (3.1 with the batch's images still alive), bounded at
    # 3.5.  A whole-batch step peaks at 11.9 units.
    horizon, n, hidden = 20, 512, 800
    unit = horizon * 64 * hidden * 8
    cfg = TrainConfig(model_kind=model_kind, arch="mlp2", epochs=1, batch_size=n,
                      horizon=horizon, hidden=hidden,
                      lambda_leak=0.7 if model_kind.startswith("S") else 0.9)
    ds = _mnist_like(n)
    real_drive, real_adam = train_mod.synaptic_drive, train_mod.adam_step
    peaks = {}

    def drive(*args, **kwargs):
        if "base" not in peaks:
            tracemalloc.reset_peak()
            peaks["base"] = tracemalloc.get_traced_memory()[0]
        return real_drive(*args, **kwargs)

    def adam(*args, **kwargs):
        peaks["blocks"] = tracemalloc.get_traced_memory()[1] - peaks["base"]
        real_adam(*args, **kwargs)
        peaks["step"] = tracemalloc.get_traced_memory()[1] - peaks["base"]

    monkeypatch.setattr(train_mod, "synaptic_drive", drive)
    monkeypatch.setattr(train_mod, "adam_step", adam)
    tracemalloc.start()
    try:
        train(cfg, ds)
    finally:
        tracemalloc.stop()
    assert peaks["blocks"] <= 3 * unit, f"blocks peak {peaks['blocks'] / unit:.2f} units"
    assert peaks["step"] <= 3.5 * unit, f"step peak {peaks['step'] / unit:.2f} units"


def test_resumed_epoch_holds_no_dead_copy_of_the_parameters():
    # one resumed mlp2-800 epoch of one 64-row batch at T=2, counted in
    # parameter bytes.  The run holds its live parameters and Adam moments
    # (3), the batch's gradient (1) and Adam's two scratch arrays of the
    # 784 x 800 weight (2): 6.0 measured, bounded at 7.  The starting
    # snapshot shares the caller's checkpoint, the gradient is dropped after
    # Adam and the last epoch's snapshot takes the live arrays; copying them
    # beside a copied starting snapshot peaked at 10.
    n = 64
    cfg = TrainConfig(arch="mlp2", epochs=1, batch_size=n, horizon=2)
    ds = _mnist_like(n)
    start, _ = train(cfg, ds)
    unit = sum(w.nbytes for w in start.params.values())
    tracemalloc.start()
    try:
        ckpt, _ = train(replace(cfg, epochs=2), ds, resume=start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ckpt.epoch == 2
    assert peak <= 7 * unit, f"peak {peak / unit:.2f} units"


def test_layer0_runs_once_per_batch(monkeypatch):
    # a batch of 512 rows in 64-row blocks runs 8 forward passes, but makes
    # layer 0's drive once and its weight gradient once, each over the
    # whole batch
    n = 512
    cfg = TrainConfig(arch="mlp2", epochs=1, batch_size=n, horizon=2)
    ds = _mnist_like(n)
    calls = {"forward": [], "drive": [], "weight_grad": []}

    def counting(key, fn, rows):
        def wrapped(*args, **kwargs):
            if rows(args) is not None:
                calls[key].append(rows(args))
            return fn(*args, **kwargs)
        return wrapped

    def layer0_rows(args):
        layer, _, x = args
        return len(x) if layer.kind == "linear" and layer.in_features == 784 else None

    for module in (network, train_mod):
        monkeypatch.setattr(module, "synaptic_drive",
                            counting("drive", module.synaptic_drive, layer0_rows))
    monkeypatch.setattr(train_mod, "net_forward",
                        counting("forward", train_mod.net_forward, lambda a: a[2].shape[1]))
    monkeypatch.setattr(train_mod, "synaptic_backward",
                        counting("weight_grad", train_mod.synaptic_backward,
                                 lambda a: len(a[3])))
    train(cfg, ds)
    assert calls == {"forward": [64] * 8, "drive": [n], "weight_grad": [n]}

