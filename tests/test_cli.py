"""Command-line interface: exit codes, artifacts, manifest, subcommands.

The commands read the small synthetic IDX dataset of ``conftest``, so they
run without the real MNIST files."""

import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikefirst
from spikefirst import cli
from spikefirst.checkpoint import load_checkpoint
from spikefirst.cli import EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from spikefirst.errors import ParameterError
from spikefirst.metrics import MetricsReport, noise_variances
from spikefirst.network import parse_spec
from spikefirst.train import PRESETS, TrainConfig
from spikefirst.tuner import DeResult

from conftest import save_mnist_idx
from test_checkpoint import _edit_json, rewrite_section
from test_network import UNUSABLE_SPECS, small_spec, unusable_spec


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, synthetic_mnist):
    """A fast end-to-end training run shared by the checkpoint-consuming tests."""
    out = tmp_path_factory.mktemp("tiny")
    code = run("train", "--model-kind", "D-R-BPTT", "--epochs", "1",
               "--hidden", "16", "--horizon", "3", "--batch-size", "256",
               "--subset", "512", "--lr", "1e-3", "--data", synthetic_mnist,
               "--out", str(out))
    assert code == EXIT_OK
    return out


def test_package_imports_without_scipy():
    # the runtime is numpy only: importing every module, the CLI included,
    # must not pull in scipy (its import alone cost more than a run's set-up)
    src = str(Path(spikefirst.__file__).resolve().parent.parent)
    probe = ("import importlib, pkgutil, sys, spikefirst\n"
             "for m in pkgutil.iter_modules(spikefirst.__path__):\n"
             "    importlib.import_module('spikefirst.' + m.name)\n"
             "assert 'spikefirst.cli' in sys.modules\n"
             "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_train_writes_artifacts(tiny_run):
    assert (tiny_run / "checkpoint.ckpt").exists()
    assert (tiny_run / "train_log.csv").exists()
    manifest = json.loads((tiny_run / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["model_kind"] == "D-R-BPTT"
    assert "checkpoint" in manifest["artifacts"]
    log = (tiny_run / "train_log.csv").read_text().splitlines()
    assert log[0] == "epoch,lr,train_loss,test_acc,wall_time_s"
    assert len(log) == 2


def test_unknown_preset_flag_rejected_by_parser(tmp_path, synthetic_mnist):
    with pytest.raises(SystemExit) as exc:
        run("train", "--preset", "nope", "--data", synthetic_mnist,
            "--out", str(tmp_path))
    assert exc.value.code == EXIT_CONFIG


def test_unknown_preset_in_config_file(tmp_path, synthetic_mnist):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset=nope\n")
    assert run("train", "--config", str(cfg), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CONFIG


def test_bad_config_file_key(tmp_path, synthetic_mnist):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nwat=5\n")
    assert run("train", "--config", str(cfg), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CONFIG


def test_bad_config_value(tmp_path, synthetic_mnist):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=banana\n")
    assert run("train", "--config", str(cfg), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CONFIG
    # values that parse but cannot train
    for flag, value in (("--hidden", "-5"), ("--hidden", "0"), ("--lr", "nan"),
                        ("--lr", "0"), ("--weight-decay", "inf")):
        assert run("train", flag, value, "--epochs", "0", "--data", synthetic_mnist,
                   "--out", str(tmp_path)) == EXIT_CONFIG, flag
        assert not (tmp_path / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_scheduler_step_flag(tmp_path, synthetic_mnist, value):
    assert run("train", "--scheduler-step", value, "--epochs", "0",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_nonpositive_scheduler_step_in_config_file(tmp_path, synthetic_mnist, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scheduler_step={value}\n")
    assert run("train", "--config", str(cfg), "--epochs", "0", "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "checkpoint.ckpt").exists()


def test_train_manifest_records_subset_and_dataset(tmp_path, synthetic_mnist):
    code = run("train", "--epochs", "0", "--hidden", "8", "--subset", "7",
               "--data", synthetic_mnist, "--out", str(tmp_path))
    assert code == EXIT_OK
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config["subset"] == 7 and config["dataset"] == "mnist"
    assert config["hidden"] == 8


def test_train_reads_the_dataset_of_its_arch(tmp_path, monkeypatch):
    # vgg15 trains on CIFAR-10, as eval, tune and noise read it for a vgg15
    # checkpoint; the manifest records the dataset
    root = tmp_path / "cifar"
    root.mkdir()
    rng = np.random.default_rng(0)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        (root / name).write_bytes(rng.integers(0, 10, size=(4, 3073), dtype=np.uint8).tobytes())
    seen = []

    def recording_train(config, train_ds, test_ds):
        seen.append((config.arch, train_ds.name, train_ds.images.shape, test_ds.name))
        spec = spikefirst.build("mlp2", "D-F-BPTT", {"hidden": 2})
        return spikefirst.Checkpoint(spec=spec, params=spikefirst.init_params(
            spec, spikefirst.RngStream(0, 1))), []

    monkeypatch.setattr(cli, "train", recording_train)
    out = tmp_path / "out"
    assert run("train", "--preset", "cifar-sf-bptt", "--data", str(root),
               "--out", str(out)) == EXIT_OK
    assert seen == [("vgg15", "cifar10", (20, 3, 32, 32), "cifar10")]
    assert json.loads((out / "manifest.json").read_text())["config"]["dataset"] == "cifar10"
    # without CIFAR-10 files under the root, a vgg15 run is a dataset error
    assert run("train", "--arch", "vgg15", "--data", str(tmp_path / "nowhere"),
               "--out", str(out)) == EXIT_DATA


def test_dataset_is_not_a_config_key(tmp_path, synthetic_mnist):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dataset=mnist\n")
    assert run("train", "--config", str(cfg), "--epochs", "0", "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CONFIG


def test_config_file_overridden_by_flags(tmp_path, synthetic_mnist):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model_kind=D-R-BPTT\nepochs=3\nhidden=8\nhorizon=3\nsubset=5\n"
                   f"data={tmp_path / 'nowhere'}\nout={tmp_path / 'file_out'}\n")
    out = tmp_path / "out"
    code = run("train", "--config", str(cfg), "--epochs", "0", "--hidden", "6",
               "--subset", "64", "--data", synthetic_mnist, "--out", str(out))
    assert code == EXIT_OK
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["epochs"], config["hidden"], config["subset"]) == (0, 6, 64)
    assert config["horizon"] == 3 and config["model_kind"] == "D-R-BPTT"
    assert not (tmp_path / "file_out").exists()


def test_train_flag_set():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {opt for a in sub.choices["train"]._actions for opt in a.option_strings}
    assert flags == {"-h", "--help", "--preset", "--config", "--data", "--out", "--subset",
                     "--model-kind", "--arch", "--epochs", "--batch-size", "--lr",
                     "--weight-decay", "--scheduler-step", "--scheduler-gamma",
                     "--lambda-leak", "--horizon", "--seed", "--hidden"}


def test_readme_names_every_config_key_and_train_has_a_flag_for_each(capsys):
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    listed = section.split("Its keys are", 1)[1].split(";", 1)[0]
    assert set(re.findall(r"`([a-z_]+)`", listed)) == fields | {"preset", "data", "out",
                                                                 "subset"}
    with pytest.raises(SystemExit):
        run("train", "--help")
    usage = capsys.readouterr().out
    for name in fields:
        assert re.search(rf"--{name.replace('_', '-')}\b", usage), name


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_round_trips_through_config_file(tmp_path, preset):
    want = PRESETS[preset]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in dataclasses.asdict(want).items()))
    config, _ = cli._build_train_config(
        cli.build_parser().parse_args(["train", "--config", str(cfg)]))
    assert config == want
    for f in dataclasses.fields(want):
        assert type(getattr(config, f.name)) is type(getattr(want, f.name)), f.name


def _subset_argv(tmp_path, how, value):
    if how == "flag":
        return ["--subset", value]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"subset={value}\n")
    return ["--config", str(cfg)]


@pytest.mark.parametrize("how,value", [("flag", "0"), ("flag", "-3"), ("config", "0"),
                                       ("config", "-3"), ("config", "abc")])
def test_bad_subset_rejected(tmp_path, synthetic_mnist, how, value):
    argv = _subset_argv(tmp_path, how, value)
    assert run("train", "--epochs", "0", *argv, "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("value,size", [("5", 5), ("5000", 600)])
def test_subset_limits_training_set(tmp_path, synthetic_mnist, monkeypatch, how,
                                    value, size):
    sizes = []
    real_train = cli.train

    def recording_train(config, train_ds, test_ds):
        sizes.append(len(train_ds))
        return real_train(config, train_ds, test_ds)

    monkeypatch.setattr(cli, "train", recording_train)
    argv = _subset_argv(tmp_path, how, value)
    assert run("train", "--epochs", "0", *argv, "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_OK
    assert sizes == [size]


def test_missing_data_root(tmp_path, monkeypatch):
    monkeypatch.delenv("SPIKEFIRST_DATA", raising=False)
    assert run("train", "--epochs", "0", "--out", str(tmp_path)) == EXIT_DATA


@pytest.mark.parametrize("leak", ["1.5", "-0.1", "nan"])
def test_train_rejects_a_leak_outside_the_unit_interval_before_reading_data(
        tmp_path, monkeypatch, leak):
    # such a leak exited 3 ("no dataset root") without data, and with data
    # failed only inside build (nan not at all)
    monkeypatch.delenv("SPIKEFIRST_DATA", raising=False)
    assert run("train", "--lambda-leak", leak, "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("key,value", [("arch", "foo"), ("hidden", "5")])
def test_train_rejects_a_bad_arch_or_hidden_before_reading_data(
        tmp_path, synthetic_mnist, monkeypatch, how, key, value):
    # an unknown arch loaded the dataset and then died in build with a
    # traceback; lenet5 dropped a hidden width and wrote it to the manifest
    monkeypatch.setattr(cli, "_load_splits", lambda *a: pytest.fail("dataset read"))
    values = {"arch": "lenet5", key: value}
    if how == "flag":
        argv = [f"--{k}={v}" for k, v in values.items()]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        argv = ["--config", str(cfg)]
    assert run("train", *argv, "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ("tune", "--pop", "3"), ("tune", "--pop", "-1"), ("tune", "--generations", "0"),
    ("tune", "--beta", "-1"), ("eval", "--timesteps", "0"),
], ids=["pop3", "pop-1", "generations0", "beta-1", "timesteps0"])
def test_bad_options_fail_before_the_dataset_is_read(tiny_run, tmp_path, monkeypatch, argv):
    # each exited 3 ("no dataset root"), its options checked only after the
    # dataset was read
    monkeypatch.delenv("SPIKEFIRST_DATA", raising=False)
    command, *flags = argv
    assert run(command, str(tiny_run / "checkpoint.ckpt"), *flags,
               "--out", str(tmp_path)) == EXIT_CONFIG


def test_manifest_records_numpy_blas_and_thread_settings(tmp_path, synthetic_mnist,
                                                         monkeypatch):
    # a run's bits depend on the numpy and BLAS build and the BLAS thread count
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert run("train", "--epochs", "0", "--hidden", "8", "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["numpy"] == np.__version__
    assert sorted(manifest["blas"]) == ["name", "version"]
    threads = manifest["blas_threads"]
    assert sorted(threads) == ["MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"]
    assert threads["OPENBLAS_NUM_THREADS"] == "1" and threads["MKL_NUM_THREADS"] is None


def test_bad_data_root(tmp_path):
    assert run("train", "--epochs", "0", "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path)) == EXIT_DATA


@pytest.mark.parametrize("command", ["train", "eval", "noise", "tune"])
def test_an_empty_split_is_a_dataset_error(tmp_path, synthetic_mnist, tiny_run, command):
    # an IDX file of 0 images parses: train exited 0 with an untrained
    # checkpoint, and eval, noise and tune exited 2 ("empty dataset")
    root = tmp_path / "data"
    shutil.copytree(synthetic_mnist, root)
    # eval and noise read the test split, train and tune the training split
    prefix = "t10k" if command in ("eval", "noise") else "train"
    empty = spikefirst.Dataset(images=np.zeros((0, 1, 28, 28)), labels=np.zeros(0, np.int64))
    save_mnist_idx(empty, root / f"{prefix}-images-idx3-ubyte",
                   root / f"{prefix}-labels-idx1-ubyte")
    args = (["--epochs", "1", "--hidden", "8", "--horizon", "3"] if command == "train"
            else [str(tiny_run / "checkpoint.ckpt")])
    assert run(command, *args, "--data", str(root), "--out", str(tmp_path / "out")) == EXIT_DATA


def test_eval_missing_checkpoint(tmp_path, synthetic_mnist):
    assert run("eval", str(tmp_path / "none.ckpt"),
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CHECKPOINT


def test_eval_corrupt_checkpoint(tmp_path, synthetic_mnist):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    assert run("eval", str(bad), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CHECKPOINT


def test_eval_checkpoint_without_a_spec_weight(tmp_path, synthetic_mnist):
    spec = spikefirst.build("mlp2", "D-F-BPTT", {"hidden": 4, "horizon": 3})
    params = spikefirst.init_params(spec, spikefirst.RngStream(0, 1))
    del params["layer1.w"]
    path = tmp_path / "partial.ckpt"
    spikefirst.save_checkpoint(spikefirst.Checkpoint(spec=spec, params=params), path)
    assert run("eval", str(path), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CHECKPOINT


def test_eval_checkpoint_with_an_unknown_coding(tmp_path, synthetic_mnist):
    spec = spikefirst.build("mlp2", "D-F-BPTT", {"hidden": 4, "horizon": 3})
    params = spikefirst.init_params(spec, spikefirst.RngStream(0, 1))
    path = tmp_path / "coding.ckpt"
    spikefirst.save_checkpoint(spikefirst.Checkpoint(spec=spec, params=params), path)
    # the model kind states the coding: a spec's own "coding" is an unknown field
    rewrite_section(path, "spec", _edit_json(lambda s: s.update(coding="foo")))
    assert run("eval", str(path), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CHECKPOINT


def test_eval_checkpoint_with_an_unusable_layer_field(tmp_path, synthetic_mnist):
    spec = spikefirst.build("lenet5", "D-F-BPTT", {"horizon": 3})
    params = spikefirst.init_params(spec, spikefirst.RngStream(0, 1))
    spec.layers[1].window = 0           # past LayerSpec's own checks
    path = tmp_path / "window0.ckpt"
    spikefirst.save_checkpoint(spikefirst.Checkpoint(spec=spec, params=params), path)
    assert run("eval", str(path), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CHECKPOINT


@pytest.mark.parametrize("command", ["eval", "tune"])
@pytest.mark.parametrize("arch,kind,edit,error", [c[1:] for c in UNUSABLE_SPECS],
                         ids=[c[0] for c in UNUSABLE_SPECS])
def test_checkpoint_of_a_spec_the_network_cannot_run(tmp_path, synthetic_mnist, capsys,
                                                     command, arch, kind, edit, error):
    path = tmp_path / "unusable.ckpt"
    spec = small_spec(arch, kind)
    spikefirst.save_checkpoint(spikefirst.Checkpoint(spec=spec, params={}), path)
    rewrite_section(path, "spec", lambda _: unusable_spec(arch, kind, edit).encode())
    assert run(command, str(path), "--data", synthetic_mnist,
               "--out", str(tmp_path / "out")) == EXIT_CHECKPOINT
    assert error in capsys.readouterr().err


def test_show_rejects_a_layer_field_its_kind_does_not_read(tmp_path, capsys):
    # show printed a pool layer's v_th though no code reads it
    spec = spikefirst.build("lenet5", "D-F-BPTT", {"horizon": 3})
    path = tmp_path / "pool-v_th.ckpt"
    spikefirst.save_checkpoint(spikefirst.Checkpoint(
        spec=spec, params=spikefirst.init_params(spec, spikefirst.RngStream(0, 1))), path)
    assert run("show", str(path)) == EXIT_OK
    rewrite_section(path, "spec", _edit_json(lambda s: s["layers"][1].update(v_th=5.0)))
    capsys.readouterr()
    assert run("show", str(path)) == EXIT_CHECKPOINT
    captured = capsys.readouterr()
    assert "a pool layer does not read v_th" in captured.err and captured.out == ""


def test_eval_happy_path(tiny_run, tmp_path, capsys, synthetic_mnist):
    code = run("eval", str(tiny_run / "checkpoint.ckpt"),
               "--data", synthetic_mnist, "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "layer_rates.csv").exists()
    text = capsys.readouterr().out
    assert "accuracy" in text and "energy cost" in text


@pytest.mark.parametrize("mode", ["first-to-spike", "rate"])
@pytest.mark.parametrize("timesteps", ["0", "-1"])
def test_eval_rejects_nonpositive_timesteps(tiny_run, tmp_path, synthetic_mnist,
                                            mode, timesteps):
    assert run("eval", str(tiny_run / "checkpoint.ckpt"), "--mode", mode,
               "--timesteps", timesteps, "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CONFIG


def test_show_prints_architecture(tiny_run, capsys):
    assert run("show", str(tiny_run / "checkpoint.ckpt")) == EXIT_OK
    text = capsys.readouterr().out
    assert parse_spec(text.splitlines()[0]) == load_checkpoint(tiny_run / "checkpoint.ckpt").spec
    assert "param layer0.w" in text


def test_noise_bad_variances(tiny_run, tmp_path, synthetic_mnist):
    assert run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", "0,-1",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("variances", ["nan", "0,inf"])
def test_noise_rejects_non_finite_variances(tiny_run, tmp_path, synthetic_mnist, variances):
    assert run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", variances,
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "noise_sweep.csv").exists()


@pytest.mark.parametrize("variances", ["0,,1", "0,1,", "0,-1", "0.5,nan"])
def test_noise_reads_its_variances_by_the_librarys_rule(tiny_run, tmp_path, synthetic_mnist,
                                                       capsys, variances):
    # an empty entry was dropped, so "0,,1" ran two variances; the command
    # and noise_sweep now read a list by one rule and report one message,
    # before the checkpoint is read and anything is written
    out = tmp_path / "out"
    assert run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", variances,
               "--data", synthetic_mnist, "--out", str(out)) == EXIT_CONFIG
    assert not out.exists()
    with pytest.raises(ParameterError) as exc:
        noise_variances(variances.split(","))
    assert capsys.readouterr().err == f"error: bad variance list: {exc.value}\n"


def test_noise_happy_path(tiny_run, tmp_path, synthetic_mnist):
    code = run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", "0,0.5",
               "--data", synthetic_mnist, "--out", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    assert lines[0] == "variance,accuracy" and len(lines) == 3


def test_tune_bad_bounds(tiny_run, tmp_path, synthetic_mnist):
    assert run("tune", str(tiny_run / "checkpoint.ckpt"), "--bounds", "2,1",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("bounds", ["2,1", "1", "0.5,1,2", "a,b", "nan,1"])
def test_tune_checks_bounds_before_reading_the_checkpoint(tmp_path, bounds):
    # --bounds is one range for every layer, so it needs no checkpoint
    missing = str(tmp_path / "none.ckpt")
    assert run("tune", missing, "--bounds", bounds, "--out", str(tmp_path)) == EXIT_CONFIG
    assert run("tune", missing, "--bounds", "0.5,2", "--out", str(tmp_path)) == EXIT_CHECKPOINT


@pytest.mark.parametrize("flag,value", [("--bounds", "nan,1"), ("--bounds", "0.5,inf"),
                                        ("--beta", "nan")])
def test_tune_rejects_non_finite_settings(tiny_run, tmp_path, synthetic_mnist, flag, value):
    # such a run wrote a tuned.ckpt that `show` could not read back.  The
    # settings are checked before any data is read, so a missing data path
    # does not change the exit code
    for data in (synthetic_mnist, str(tmp_path / "no-such-data")):
        assert run("tune", str(tiny_run / "checkpoint.ckpt"), flag, value, "--generations",
                   "1", "--pop", "4", "--data", data, "--out", str(tmp_path)) == EXIT_CONFIG, data
        assert not (tmp_path / "tuned.ckpt").exists()


@pytest.mark.parametrize("generations", ["0", "-3"])
def test_tune_rejects_nonpositive_generations(tiny_run, tmp_path, synthetic_mnist,
                                              generations):
    assert run("tune", str(tiny_run / "checkpoint.ckpt"), "--generations", generations,
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "tuned.ckpt").exists()
    assert not (tmp_path / "de_history.csv").exists()


def test_tune_happy_path(tiny_run, tmp_path, synthetic_mnist):
    code = run("tune", str(tiny_run / "checkpoint.ckpt"), "--generations", "1",
               "--pop", "4", "--bounds", "0.5,2.0",
               "--data", synthetic_mnist, "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "tuned.ckpt").exists()
    lines = (tmp_path / "de_history.csv").read_text().splitlines()
    assert lines[0].startswith("generation,best_objective") and len(lines) == 2
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config["pop"] == 4 and config["bounds"] == "0.5,2.0"
    assert config["generations"] == 1


def copy_split(synthetic_mnist, root: Path, prefix: str) -> str:
    """A dataset root holding only one split ("train" or "t10k") of ``synthetic_mnist``."""
    root.mkdir()
    for kind in ("images-idx3", "labels-idx1"):
        name = f"{prefix}-{kind}-ubyte"
        shutil.copy(Path(synthetic_mnist) / name, root / name)
    return str(root)


def test_eval_and_noise_read_only_the_test_split(tiny_run, tmp_path, synthetic_mnist):
    data = copy_split(synthetic_mnist, tmp_path / "test_only", "t10k")
    ckpt = str(tiny_run / "checkpoint.ckpt")
    assert run("eval", ckpt, "--data", data, "--out", str(tmp_path / "eval")) == EXIT_OK
    assert run("noise", ckpt, "--variances", "0,0.5", "--data", data,
               "--out", str(tmp_path / "noise")) == EXIT_OK


def test_tune_reads_only_the_train_split(tiny_run, tmp_path, synthetic_mnist):
    data = copy_split(synthetic_mnist, tmp_path / "train_only", "train")
    assert run("tune", str(tiny_run / "checkpoint.ckpt"), "--generations", "1",
               "--pop", "4", "--data", data, "--out", str(tmp_path)) == EXIT_OK


# Each result file's exact header and row format.  The results are stand-ins,
# so every formatted digit is known.

def test_train_log_format(tmp_path, synthetic_mnist, monkeypatch):
    def fixed_train(config, train_ds, test_ds):
        spec = spikefirst.build("mlp2", "D-F-BPTT", {"hidden": 2})
        ckpt = spikefirst.Checkpoint(spec=spec, params=spikefirst.init_params(
            spec, spikefirst.RngStream(0, 1)))
        return ckpt, [{"epoch": 1, "lr": 1e-3, "train_loss": 2 / 3, "test_acc": 0.5,
                       "wall_time_s": 1.25},
                      {"epoch": 2, "lr": 5e-4, "train_loss": 0.125, "test_acc": 1 / 3,
                       "wall_time_s": 0.0625}]

    monkeypatch.setattr(cli, "train", fixed_train)
    assert run("train", "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "train_log.csv").read_text() == (
        "epoch,lr,train_loss,test_acc,wall_time_s\n"
        "1,0.001,0.666666666667,0.500000,1.250\n"
        "2,0.0005,0.125,0.333333,0.062\n")


def test_metrics_and_layer_rates_format(tiny_run, tmp_path, synthetic_mnist, monkeypatch):
    report = MetricsReport(accuracy=0.5, mean_latency=29 / 4, layer_rates=[0.125, 1 / 3, 0.0],
                           energy_cost=1 / 16, n_samples=200, mode="rate", horizon=3)
    monkeypatch.setattr(cli, "evaluate", lambda *a, **k: report)
    assert run("eval", str(tiny_run / "checkpoint.ckpt"), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "metrics.csv").read_text() == (
        "model,mode,accuracy,mean_latency,energy_cost,n_samples\n"
        "D-R-BPTT,rate,0.500000,7.250000,0.062500,200\n")
    assert (tmp_path / "layer_rates.csv").read_text() == (
        "layer_index,rate\n0,0.12500000\n1,0.33333333\n2,0.00000000\n")


def test_noise_sweep_format(tiny_run, tmp_path, synthetic_mnist, monkeypatch):
    monkeypatch.setattr(cli, "noise_sweep", lambda *a, **k: [(0.0, 0.5), (0.25, 1 / 3),
                                                             (1e-7, 1.0)])
    assert run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", "0,0.25,1e-7",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "noise_sweep.csv").read_text() == (
        "variance,accuracy\n0,0.500000\n0.25,0.333333\n1e-07,1.000000\n")


def test_de_history_format(tiny_run, tmp_path, synthetic_mnist, monkeypatch):
    # one column per neuron layer: the tiny run's mlp2 has two
    def fixed_de(ckpt, train_ds, config):
        result = DeResult(best_vector=np.array([1.0, 2 / 3]), best_objective=0.5,
                          history=[1 / 3 + 1, 0.5],
                          vectors=[np.array([0.3, 3.0]), np.array([1.0, 2 / 3])])
        return ckpt, result

    monkeypatch.setattr(cli, "de_optimize", fixed_de)
    assert run("tune", str(tiny_run / "checkpoint.ckpt"), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "de_history.csv").read_text() == (
        "generation,best_objective,v0,v1\n"
        "1,1.3333333,0.3,3\n"
        "2,0.5,1,0.66666667\n")
