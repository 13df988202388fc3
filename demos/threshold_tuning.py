"""Tune per-layer firing thresholds with differential evolution.

After gradient training, the layerwise thresholds (deterministic models) or
membrane scales (stochastic models) still shape the accuracy-latency
tradeoff: lower thresholds fire earlier (cheaper, faster) but noisier.  This
demo first shows DE/rand/1/bin converging on an analytic bowl, then, given a
checkpoint, tunes its thresholds against the tradeoff objective

    (1 - accuracy) + beta * mean_latency / T

on a held-out slice of the training split.
"""

import os
import sys
from pathlib import Path

import numpy as np

from spikefirst import load_mnist_idx
from spikefirst.checkpoint import load_checkpoint
from spikefirst.metrics import evaluate
from spikefirst.tuner import DeConfig, de_minimize, de_optimize

DATA = Path(os.environ.get("SPIKEFIRST_DATA", "/root/data")) / "mnist"


def analytic_warmup():
    bowl = lambda x: float(((x - 1.0) ** 2).sum())  # noqa: E731
    bounds = np.tile([-5.0, 5.0], (3, 1))
    result = de_minimize(bowl, bounds, DeConfig(max_generations=40, seed=0))
    print("analytic warmup: minimize sum((x - 1)^2) over [-5, 5]^3")
    print(f"  best objective {result.best_objective:.2e} at {np.round(result.best_vector, 3)}")
    print(f"  best-so-far history is monotone: {all(np.diff(result.history) <= 0)}")


def tune_checkpoint(path):
    ckpt = load_checkpoint(path)
    train_ds = load_mnist_idx(DATA / "train-images-idx3-ubyte",
                              DATA / "train-labels-idx1-ubyte")
    test_ds = load_mnist_idx(DATA / "t10k-images-idx3-ubyte",
                             DATA / "t10k-labels-idx1-ubyte", split="test")

    before = evaluate(ckpt, test_ds.subset(np.arange(2000)))
    config = DeConfig(pop_size=8, max_generations=8, seed=0, bounds=(0.5, 3.0))
    tuned, result = de_optimize(ckpt, train_ds, config)
    after = evaluate(tuned, test_ds.subset(np.arange(2000)))

    which = "k" if ckpt.spec.model_kind.startswith("S") else "v_th"
    print(f"tuned per-layer {which}: {np.round(result.best_vector, 3)}")
    print(f"  accuracy {before.accuracy:.4f} -> {after.accuracy:.4f}")
    print(f"  latency  {before.mean_latency:.2f} -> {after.mean_latency:.2f} steps")
    print(f"  energy   {before.energy_cost:.4f} -> {after.energy_cost:.4f}")


if __name__ == "__main__":
    analytic_warmup()
    if len(sys.argv) == 2:
        tune_checkpoint(sys.argv[1])
    else:
        print("(pass a checkpoint path to also tune a trained model)")
