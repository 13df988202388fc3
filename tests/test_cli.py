"""Command-line interface: exit codes, artifacts, manifest, subcommands.

The commands read the small synthetic IDX dataset of ``conftest``, so they
run without the real MNIST files."""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spikefirst
from spikefirst import cli
from spikefirst.cli import EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from spikefirst.train import PRESETS


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


def test_bad_data_root(tmp_path):
    assert run("train", "--epochs", "0", "--data", str(tmp_path / "nowhere"),
               "--out", str(tmp_path)) == EXIT_DATA


def test_eval_missing_checkpoint(tmp_path, synthetic_mnist):
    assert run("eval", str(tmp_path / "none.ckpt"),
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CHECKPOINT


def test_eval_corrupt_checkpoint(tmp_path, synthetic_mnist):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    assert run("eval", str(bad), "--data", synthetic_mnist,
               "--out", str(tmp_path)) == EXIT_CHECKPOINT


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
    assert "arch=mlp2" in text
    assert "param layer0.w" in text


def test_noise_bad_variances(tiny_run, tmp_path, synthetic_mnist):
    assert run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", "0,-1",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("variances", ["nan", "0,inf"])
def test_noise_rejects_non_finite_variances(tiny_run, tmp_path, synthetic_mnist, variances):
    assert run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", variances,
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG
    assert not (tmp_path / "noise_sweep.csv").exists()


def test_noise_happy_path(tiny_run, tmp_path, synthetic_mnist):
    code = run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", "0,0.5",
               "--data", synthetic_mnist, "--out", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    assert lines[0] == "variance,accuracy" and len(lines) == 3


def test_tune_bad_bounds(tiny_run, tmp_path, synthetic_mnist):
    assert run("tune", str(tiny_run / "checkpoint.ckpt"), "--bounds", "2,1",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG


@pytest.mark.parametrize("flag,value", [("--bounds", "nan,1"), ("--bounds", "0.5,inf"),
                                        ("--beta", "nan")])
def test_tune_rejects_non_finite_settings(tiny_run, tmp_path, synthetic_mnist, flag, value):
    # such a run wrote a tuned.ckpt that `show` could not read back
    assert run("tune", str(tiny_run / "checkpoint.ckpt"), flag, value, "--generations", "1",
               "--pop", "4", "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG
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
