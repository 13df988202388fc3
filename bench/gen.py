"""Workload definitions and the seeded generator of their inputs and weights.

Every draw here comes from numpy's own ``Philox`` bit generator keyed by
(seed, purpose), never through the program's ``rng`` module, so a change to
the program's random streams cannot change a workload.  The program only
receives the arrays made here.

Inputs are MNIST-shaped ``(N, 1, 28, 28)`` images with about 19% of pixels
nonzero and a mean of about 0.13, built from seeded class prototypes
(centre-weighted pixel sets, several per class), with 10-class labels.

Weights are uniform and fan-in scaled, with their row and column means
removed, plus a per-layer constant: ``w = gain * c(u) / sqrt(fan_in) +
shift``.  Centring removes the per-seed luck of which neuron, or which input,
has the largest summed weight, so a layer's mean drive is ``shift`` times its
summed input for every seed.  The mean first-spike step, and with it the
work early exit does, then stays in the workload's band for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IMAGE_SHAPE = (1, 28, 28)
N_CLASSES = 10
# Prototypes per class.  Hidden-layer firing rates average over every
# prototype, so more of them make the workload's latency vary less by seed.
STYLES = 8

# Philox key purposes; one independent stream per kind of draw.
_PROTOTYPES, _WEIGHTS, _SAMPLES = 1, 2, 16


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    model_kind: str            # network trained, FTS-evaluated, noise-swept, DE-tuned
    layers: tuple              # (gain, shift) per weighted layer of that network
    rate_layers: tuple         # (gain, shift) per weighted layer of the D-R network
    band: tuple                # accepted mean first-spike step of FTS eval
    batch: int                 # training batch; one epoch of n_train samples
    n_train: int
    n_eval: int                # FTS eval samples
    n_rate: int                # rate eval samples
    n_noise: int               # samples per noise-sweep variance
    variances: tuple
    n_val: int                 # DE validation subset
    de_pop: int
    de_generations: int
    n_check: int               # untimed oracle-check subset
    lr: float
    why: str


_MLP2_DET = ((1.8, 0.002), (0.3, 0.0012))
_LENET5_DET = ((2.0, 0.05), (2.0, 0.01), (1.8, 0.005), (1.8, 0.01), (0.3, 0.007))

# Sizes keep every operation under about 2 s on one core, so that a run holds
# eight or more rounds and each end-to-end figure is a median of as many
# samples.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="mlp2-det", arch="mlp2", model_kind="D-F-BPTT",
            layers=_MLP2_DET, rate_layers=_MLP2_DET, band=(4.0, 9.0),
            batch=512, n_train=512, n_eval=512, n_rate=512, n_noise=256,
            variances=(0.0, 0.02), n_val=64, de_pop=12, de_generations=2,
            n_check=256, lr=1e-3,
            why="GEMM + LIF, early exit and the DE tuner dominate; no conv and "
                "RNG only in the noise sweep"),
        Workload(
            name="mlp2-stoch", arch="mlp2", model_kind="S-F-BPTT",
            layers=((1.8, 0.0), (0.3, -0.006)), rate_layers=_MLP2_DET, band=(4.0, 12.0),
            batch=512, n_train=512, n_eval=512, n_rate=256, n_noise=128,
            variances=(0.0, 0.02, 0.05, 0.1), n_val=32, de_pop=8, de_generations=2,
            n_check=256, lr=1e-2,
            why="Bernoulli and Gaussian draws and the output sigmoid dominate; "
                "shows what batch-invariant RNG costs"),
        Workload(
            name="lenet5-det", arch="lenet5", model_kind="D-F-BPTT",
            layers=_LENET5_DET, rate_layers=_LENET5_DET, band=(5.0, 13.0),
            batch=64, n_train=64, n_eval=128, n_rate=64, n_noise=64,
            variances=(0.0, 0.02), n_val=16, de_pop=6, de_generations=2,
            n_check=64, lr=1e-3,
            why="conv2d, pooling and the per-timestep conv/pool loops in BPTT "
                "dominate; the mlp2 workloads never touch them"),
    )
}


def _generator(seed: int, purpose: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[int(seed), purpose]))


def make_images(seed: int, n: int, block: int = 0):
    """``n`` images and labels; each ``block`` is an independent sample stream.

    Class prototypes depend only on ``seed``, so the blocks (train, eval,
    check, ...) come from the same distribution.
    """
    g = _generator(seed, _PROTOTYPES)
    yy, xx = np.mgrid[0:28, 0:28]
    centre = np.exp(-(((yy - 13.5) / 7.0) ** 2 + ((xx - 13.5) / 6.0) ** 2)).ravel()
    weight = centre * g.uniform(0.3, 1.0, (N_CLASSES * STYLES, 784))
    protos = weight > np.quantile(weight, 0.80, axis=1, keepdims=True)

    g = _generator(seed, _SAMPLES + block)
    labels = g.integers(0, N_CLASSES, n)
    styles = g.integers(0, STYLES, n)
    keep = g.random((n, 784)) < 0.85
    extra = g.random((n, 784)) < 0.03
    values = g.uniform(0.3, 1.0, (n, 784))
    images = np.where((protos[labels * STYLES + styles] & keep) | extra, values, 0.0)
    return images.reshape((n,) + IMAGE_SHAPE), labels.astype(np.int64)


def make_weights(seed: int, shapes, layers) -> list:
    """One weight array per shape, following the (gain, shift) recipe."""
    if len(shapes) != len(layers):
        raise ValueError(f"{len(shapes)} weighted layers but {len(layers)} recipes")
    g = _generator(seed, _WEIGHTS)
    out = []
    for shape, (gain, shift) in zip(shapes, layers):
        fan_in = int(np.prod(shape[1:]))
        u = g.uniform(-1.0, 1.0, (shape[0], fan_in))
        u = u - u.mean(axis=1, keepdims=True) - u.mean(axis=0, keepdims=True) + u.mean()
        w = gain * u / np.sqrt(fan_in) + shift
        out.append(w.reshape(shape))
    return out
