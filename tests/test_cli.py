"""Command-line interface: exit codes, artifacts, manifest, subcommands.

The commands read the small synthetic IDX dataset of ``conftest``, so they
run without the real MNIST files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spikefirst
from spikefirst.cli import EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_DATA, EXIT_OK, main


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


def test_config_file_overridden_by_flags(tmp_path, synthetic_mnist):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model_kind=D-R-BPTT\nepochs=0\nhidden=8\nhorizon=3\n")
    out = tmp_path / "out"
    code = run("train", "--config", str(cfg), "--subset", "64",
               "--data", synthetic_mnist, "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 0 and manifest["config"]["hidden"] == 8


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


def test_show_prints_architecture(tiny_run, capsys):
    assert run("show", str(tiny_run / "checkpoint.ckpt")) == EXIT_OK
    text = capsys.readouterr().out
    assert "arch=mlp2" in text
    assert "param layer0.w" in text


def test_noise_bad_variances(tiny_run, tmp_path, synthetic_mnist):
    assert run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", "0,-1",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG


def test_noise_happy_path(tiny_run, tmp_path, synthetic_mnist):
    code = run("noise", str(tiny_run / "checkpoint.ckpt"), "--variances", "0,0.5",
               "--data", synthetic_mnist, "--out", str(tmp_path))
    assert code == EXIT_OK
    lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
    assert lines[0] == "variance,accuracy" and len(lines) == 3


def test_tune_bad_bounds(tiny_run, tmp_path, synthetic_mnist):
    assert run("tune", str(tiny_run / "checkpoint.ckpt"), "--bounds", "2,1",
               "--data", synthetic_mnist, "--out", str(tmp_path)) == EXIT_CONFIG


def test_tune_happy_path(tiny_run, tmp_path, synthetic_mnist):
    code = run("tune", str(tiny_run / "checkpoint.ckpt"), "--generations", "1",
               "--pop", "4", "--bounds", "0.5,2.0",
               "--data", synthetic_mnist, "--out", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "tuned.ckpt").exists()
    lines = (tmp_path / "de_history.csv").read_text().splitlines()
    assert lines[0].startswith("generation,best_objective") and len(lines) == 2
