"""Command-line entry point: train, eval, tune, noise, show.

Configuration is a flat key=value text file; command-line flags override file
values, and presets bundle the published hyperparameter schedules.  Every
command writes a JSON run manifest before doing any work, sufficient to
reproduce the run.  Exit codes: 0 success, 2 configuration error, 3 dataset
error, 4 checkpoint error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .data import Dataset, load_cifar10_bin, load_mnist_idx
from .errors import CheckpointError, ParameterError, SpikeFirstError
from .metrics import (evaluate, noise_sweep, write_metrics_csv, write_noise_csv,
                      write_rates_csv)
from .network import serialize_spec
from .train import PRESETS, TrainConfig, TrainingDiverged, train, write_log_csv
from .tuner import DeConfig, de_optimize, write_de_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4

DATA_ENV = "SPIKEFIRST_DATA"

# TrainConfig's fields are the training settings: their annotated types cast
# config-file values and type the flags
_CASTS = typing.get_type_hints(TrainConfig)
_TRAIN_FLAGS = ("model_kind", "arch", "epochs", "batch_size", "lr", "weight_decay",
                "scheduler_step", "scheduler_gamma", "lambda_leak", "horizon", "seed",
                "hidden")
_CONFIG_KEYS = set(_CASTS) | {"preset", "dataset", "data", "out", "subset"}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}", EXIT_CONFIG)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}", EXIT_CONFIG)
        values[key] = val.strip()
    return values


def _load_mnist(root: Path, split: str) -> Dataset:
    base = root / "mnist" if (root / "mnist").is_dir() else root
    prefix = "train" if split == "train" else "t10k"
    images = base / f"{prefix}-images-idx3-ubyte"
    labels = base / f"{prefix}-labels-idx1-ubyte"
    try:
        return load_mnist_idx(images, labels, split=split)
    except OSError as exc:
        raise CliError(f"MNIST files not found under {base}: {exc}", EXIT_DATA)
    except SpikeFirstError as exc:
        raise CliError(f"bad MNIST data: {exc}", EXIT_DATA)


def _load_cifar(root: Path, split: str, stats=None):
    base = root / "cifar-10-batches-bin"
    if not base.is_dir():
        base = root
    if split == "train":
        paths = [base / f"data_batch_{i}.bin" for i in range(1, 6)]
    else:
        paths = [base / "test_batch.bin"]
    try:
        return load_cifar10_bin(paths, split=split, stats=stats)
    except OSError as exc:
        raise CliError(f"CIFAR-10 files not found under {base}: {exc}", EXIT_DATA)
    except SpikeFirstError as exc:
        raise CliError(f"bad CIFAR-10 data: {exc}", EXIT_DATA)


def _load_splits(data, name: str, *splits: str) -> list:
    """The named splits of dataset ``name`` under root ``data`` (default
    ``$SPIKEFIRST_DATA``), in order.  CIFAR-10's test split is standardized
    with the training split's statistics, so it reads both."""
    data = data or os.environ.get(DATA_ENV)
    if not data:
        raise CliError(f"no dataset root: pass --data or set {DATA_ENV}", EXIT_DATA)
    root = Path(data)
    if name == "mnist":
        return [_load_mnist(root, split) for split in splits]
    if name == "cifar10":
        train_ds, stats = _load_cifar(root, "train")
        return [train_ds if split == "train" else _load_cifar(root, split, stats=stats)[0]
                for split in splits]
    raise CliError(f"unknown dataset {name!r}", EXIT_CONFIG)


def _dataset_of(ckpt) -> str:
    return "cifar10" if ckpt.spec.arch == "vgg15" else "mnist"


def _out_dir(out) -> Path:
    out = Path(out or "runs")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: dict, seed, artifacts: dict):
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "version": __version__,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _cast(key: str, cast, raw):
    try:
        return cast(raw)
    except ValueError as exc:
        raise CliError(f"bad value for config key {key!r}: {exc}", EXIT_CONFIG)


def _build_train_config(args) -> tuple[TrainConfig, dict]:
    """The run's TrainConfig and its ``dataset``, ``data``, ``out`` and
    ``subset``, from the preset, the config file and the flags; flags win."""
    values = _read_config_file(args.config) if args.config else {}
    for key in (*_TRAIN_FLAGS, "preset", "data", "out", "subset"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    preset = values.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise CliError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}", EXIT_CONFIG)
    extras = {"dataset": values.pop("dataset", "mnist"), "data": values.pop("data", None),
              "out": values.pop("out", None), "subset": values.pop("subset", None)}
    if extras["subset"] is not None:
        extras["subset"] = _cast("subset", int, extras["subset"])
        if extras["subset"] < 1:
            raise CliError(f"subset must be a positive integer, got {extras['subset']}",
                           EXIT_CONFIG)
    kwargs = dataclasses.asdict(PRESETS[preset] if preset else TrainConfig())
    kwargs.update((key, _cast(key, _CASTS[key], raw)) for key, raw in values.items())
    try:
        return TrainConfig(**kwargs), extras
    except (ParameterError, ValueError) as exc:
        raise CliError(str(exc), EXIT_CONFIG)


def cmd_train(args) -> int:
    config, extras = _build_train_config(args)
    train_ds, test_ds = _load_splits(extras["data"], extras["dataset"], "train", "test")
    subset = extras["subset"]
    if subset is not None:
        train_ds = train_ds.subset(np.arange(min(subset, len(train_ds))))
    out = _out_dir(extras["out"])
    ckpt_path = out / "checkpoint.ckpt"
    log_path = out / "train_log.csv"
    _write_manifest(out, "train", dict(dataclasses.asdict(config), subset=subset,
                                       dataset=extras["dataset"]), config.seed,
                    {"checkpoint": ckpt_path, "log": log_path})
    try:
        ckpt, log = train(config, train_ds, test_ds)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        if exc.checkpoint is not None:
            save_checkpoint(exc.checkpoint, ckpt_path)
            print(f"last good checkpoint retained at {ckpt_path}", file=sys.stderr)
        return EXIT_CONFIG
    save_checkpoint(ckpt, ckpt_path)
    write_log_csv(log, log_path)
    if log:
        last = log[-1]
        print(f"trained {config.model_kind} {config.arch}: "
              f"best test accuracy {ckpt.best_accuracy:.4f} "
              f"(final epoch loss {last['train_loss']:.4f})")
    else:
        print(f"initialized {config.model_kind} {config.arch} (0 epochs)")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def _load_ckpt(path):
    try:
        return load_checkpoint(path)
    except OSError as exc:
        raise CliError(f"cannot read checkpoint {path}: {exc}", EXIT_CHECKPOINT)
    except CheckpointError as exc:
        raise CliError(str(exc), EXIT_CHECKPOINT)


def cmd_eval(args) -> int:
    ckpt = _load_ckpt(args.checkpoint)
    (test_ds,) = _load_splits(args.data, _dataset_of(ckpt), "test")
    mode = args.mode or ("rate" if ckpt.spec.coding == "rate" else "first-to-spike")
    out = _out_dir(args.out)
    metrics_path = out / "metrics.csv"
    rates_path = out / "layer_rates.csv"
    _write_manifest(out, "eval", {"checkpoint": str(args.checkpoint), "mode": mode,
                                  "timesteps": args.timesteps},
                    ckpt.seed, {"metrics": metrics_path, "rates": rates_path})
    report = evaluate(ckpt, test_ds, mode=mode, horizon=args.timesteps)
    write_metrics_csv(report, metrics_path, label=ckpt.spec.model_kind)
    write_rates_csv(report, rates_path)
    print(f"model: {ckpt.spec.model_kind} {ckpt.spec.arch} ({mode})")
    print(f"accuracy:     {report.accuracy:.4f}")
    print(f"mean latency: {report.mean_latency:.3f} timesteps")
    print(f"energy cost:  {report.energy_cost:.4f}")
    for i, rate in enumerate(report.layer_rates):
        tag = "input" if i == 0 else f"layer {i}"
        print(f"rate {tag}: {rate:.4f}")
    return EXIT_OK


def cmd_tune(args) -> int:
    ckpt = _load_ckpt(args.checkpoint)
    (train_ds,) = _load_splits(args.data, _dataset_of(ckpt), "train")
    try:
        bounds = None
        if args.bounds:
            lo, hi = (float(x) for x in args.bounds.split(","))
            if hi < lo:
                raise ValueError("upper bound below lower bound")
            n = len(ckpt.spec.neuron_layers())
            bounds = np.tile([lo, hi], (n, 1))
        config = DeConfig(pop_size=args.pop or 0, max_generations=args.generations,
                          latency_weight=args.beta, seed=args.seed, bounds=bounds)
    except (ValueError, ParameterError) as exc:
        raise CliError(f"bad DE configuration: {exc}", EXIT_CONFIG)
    out = _out_dir(args.out)
    tuned_path = out / "tuned.ckpt"
    history_path = out / "de_history.csv"
    _write_manifest(out, "tune", {"checkpoint": str(args.checkpoint),
                                  "beta": args.beta, "generations": args.generations,
                                  "pop": args.pop, "bounds": args.bounds},
                    args.seed, {"tuned": tuned_path, "history": history_path})
    tuned, result = de_optimize(ckpt, train_ds, config)
    save_checkpoint(tuned, tuned_path)
    write_de_csv(result, history_path)
    vals = ", ".join(f"{v:.4f}" for v in result.best_vector)
    print(f"best objective {result.best_objective:.5f} with [{vals}]")
    print(f"tuned checkpoint: {tuned_path}")
    return EXIT_OK


def cmd_noise(args) -> int:
    ckpt = _load_ckpt(args.checkpoint)
    try:
        variances = [float(x) for x in args.variances.split(",") if x.strip()]
        if not variances or not all(math.isfinite(v) and v >= 0 for v in variances):
            raise ValueError("variances must be finite and non-negative")
    except ValueError as exc:
        raise CliError(f"bad variance list: {exc}", EXIT_CONFIG)
    (test_ds,) = _load_splits(args.data, _dataset_of(ckpt), "test")
    out = _out_dir(args.out)
    noise_path = out / "noise_sweep.csv"
    _write_manifest(out, "noise", {"checkpoint": str(args.checkpoint),
                                   "variances": variances},
                    args.seed, {"noise": noise_path})
    rows = noise_sweep(ckpt, test_ds, variances, seed=args.seed)
    write_noise_csv(rows, noise_path)
    for var, acc in rows:
        print(f"variance {var:>6g}: accuracy {acc:.4f}")
    return EXIT_OK


def cmd_show(args) -> int:
    ckpt = _load_ckpt(args.checkpoint)
    print(serialize_spec(ckpt.spec), end="")
    print(f"epoch={ckpt.epoch} best_accuracy={ckpt.best_accuracy:.4f} seed={ckpt.seed}")
    for name in sorted(ckpt.params):
        print(f"param {name}: shape {ckpt.params[name].shape}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikefirst",
                                     description="Spiking network training and "
                                                 "tradeoff analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a preset or config file")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--data", help=f"dataset root (default ${DATA_ENV})")
    p.add_argument("--out", help="output directory (default ./runs)")
    p.add_argument("--subset", type=int, help="train on the first N samples only")
    for key in _TRAIN_FLAGS:
        p.add_argument("--" + key.replace("_", "-"), type=_CASTS[key], dest=key)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--mode", choices=["first-to-spike", "rate"], default=None)
    p.add_argument("--timesteps", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="DE-tune per-layer thresholds/scales")
    p.add_argument("checkpoint")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--generations", type=int, default=30)
    p.add_argument("--pop", type=int, default=None)
    p.add_argument("--bounds", help="lo,hi per-layer bounds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("noise", help="Gaussian input-noise robustness sweep")
    p.add_argument("checkpoint")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--variances", default="0,0.25,0.5,0.75,1.0")
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("show", help="print a checkpoint's architecture and stats")
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_show)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SpikeFirstError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
