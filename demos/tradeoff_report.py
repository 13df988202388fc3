"""Quantify the accuracy / latency / sparsity / energy tradeoff of a model.

Loads a trained checkpoint (train one with demos/train_first_to_spike.py or
`spikefirst train`), runs first-to-spike inference with per-sample early exit
over the MNIST test split, and prints the full tradeoff report: accuracy,
mean first-spike latency, per-layer spiking rates, and the energy cost
relative to an iso-architecture non-spiking network.
"""

import os
import sys
from pathlib import Path

from spikefirst import load_mnist_idx
from spikefirst.checkpoint import load_checkpoint
from spikefirst.metrics import evaluate

DATA = Path(os.environ.get("SPIKEFIRST_DATA", "/root/data")) / "mnist"


def main(path):
    ckpt = load_checkpoint(path)
    test_ds = load_mnist_idx(DATA / "t10k-images-idx3-ubyte",
                             DATA / "t10k-labels-idx1-ubyte", split="test")
    mode = ckpt.spec.coding
    report = evaluate(ckpt, test_ds, mode=mode)

    print(f"{ckpt.spec.model_kind} {ckpt.spec.arch}, {mode} inference, "
          f"{report.n_samples} samples")
    print(f"accuracy:          {report.accuracy:.4f}")
    print(f"mean latency:      {report.mean_latency:.2f} timesteps "
          f"(horizon {report.horizon})")
    print(f"energy cost E:     {report.energy_cost:.4f}")
    print("spiking rates (spikes per neuron per simulated step):")
    for i, rate in enumerate(report.layer_rates):
        tag = "input activation" if i == 0 else f"neuron layer {i}"
        print(f"  {tag}: {rate:.4f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} CHECKPOINT")
    main(sys.argv[1])
