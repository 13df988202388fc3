"""Training loop: batching, Adam, step LR schedule, checkpointing, presets.

Every source of randomness is a counter-based stream keyed by
(seed, purpose, epoch, ...), a stochastic neuron's also by sample index, so
a run is a pure function of (config, seed, dataset, numpy and BLAS build,
BLAS thread count, on which a GEMM's summation order depends): checkpoints
are byte-identical across repeats and a resumed run continues bit-exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bptt import backward, sign_estimator_backward, synaptic_backward
from .checkpoint import Checkpoint
from .coding import fts_ce_loss_batch, ml_loss_logits_batch, rate_ce_loss_batch
from .data import Dataset, encode_direct
from .errors import NumericalError, ParameterError, integer
from .heap import simulating
from .inference import run_network
from .network import (NetworkSpec, block_rows, build, forward as net_forward, init_params,
                      normalize_model_kind, synaptic_drive)
from .neurons import first_spike_times
from .rng import RngStream, rng_uniform

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Fixed stream ids for the trainer's RNG purposes.
_STREAM_INIT = 1
_STREAM_SHUFFLE_BASE = 1 << 32
_STREAM_TRAIN_BASE = 2 << 32


@dataclass
class TrainConfig:
    model_kind: str = "D-F-BPTT"
    arch: str = "mlp2"
    epochs: int = 150
    batch_size: int = 512
    lr: float = 1e-3
    weight_decay: float = 1e-4
    scheduler_step: int = 50
    scheduler_gamma: float = 0.5
    lambda_leak: float = 0.9
    horizon: int = 20
    seed: int = 0
    hidden: int = 800

    def __post_init__(self):
        self.model_kind = normalize_model_kind(self.model_kind)
        self.network_spec()             # checks arch, hidden, horizon and leak
        self.epochs = integer(self.epochs, "epochs", 0)
        self.batch_size = integer(self.batch_size, "batch size", 1)
        self.scheduler_step = integer(self.scheduler_step, "scheduler step", 1)
        self.seed = integer(self.seed, "seed")
        if not 0.0 < self.lr < np.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ParameterError(f"weight decay must be finite and >= 0, "
                                 f"got {self.weight_decay}")
        if not 0.0 < self.scheduler_gamma <= 1.0:
            raise ParameterError(f"scheduler gamma must be in (0, 1], got {self.scheduler_gamma}")

    def network_spec(self) -> NetworkSpec:
        """The spec this config trains, with its hidden, horizon and leak."""
        return build(self.arch, self.model_kind,
                     {"hidden": self.hidden, "horizon": self.horizon, "leak": self.lambda_leak})


# Full schedules follow the published hyperparameter table; the D-R baseline
# and the -smoke variants (short desk-scale runs) are this artifact's own.
PRESETS: dict[str, TrainConfig] = {
    "mnist-sf-bptt": TrainConfig(model_kind="S-F-BPTT", arch="mlp2", epochs=150,
                                 batch_size=512, lr=5e-2, weight_decay=1e-6,
                                 scheduler_step=50, scheduler_gamma=0.8,
                                 lambda_leak=0.7, horizon=20),
    "mnist-df-bptt": TrainConfig(model_kind="D-F-BPTT", arch="mlp2", epochs=150,
                                 batch_size=512, lr=1e-3, weight_decay=1e-4,
                                 scheduler_step=50, scheduler_gamma=0.5,
                                 lambda_leak=0.9, horizon=20),
    "mnist-dr-bptt": TrainConfig(model_kind="D-R-BPTT", arch="mlp2", epochs=40,
                                 batch_size=512, lr=1e-3, weight_decay=1e-4,
                                 scheduler_step=15, scheduler_gamma=0.5,
                                 lambda_leak=0.9, horizon=15),
    "cifar-sf-bptt": TrainConfig(model_kind="S-F-BPTT", arch="vgg15", epochs=1000,
                                 batch_size=64, lr=1e-2, weight_decay=1e-6,
                                 scheduler_step=200, scheduler_gamma=0.5,
                                 lambda_leak=0.7, horizon=20),
    "cifar-df-bptt": TrainConfig(model_kind="D-F-BPTT", arch="vgg15", epochs=1000,
                                 batch_size=64, lr=5e-5, weight_decay=1e-2,
                                 scheduler_step=120, scheduler_gamma=0.5,
                                 lambda_leak=0.9, horizon=20),
}
# smoke runs keep the published schedules' shape but cut epochs/horizon to
# desk scale; the stochastic one also drops lr, which at 5e-2 spends its
# first epochs recovering from output-sigmoid saturation
PRESETS["mnist-sf-bptt-smoke"] = replace(PRESETS["mnist-sf-bptt"], epochs=20, horizon=10,
                                         lr=1e-2)
PRESETS["mnist-df-bptt-smoke"] = replace(PRESETS["mnist-df-bptt"], epochs=20, horizon=10)
PRESETS["mnist-dr-bptt-smoke"] = replace(PRESETS["mnist-dr-bptt"], epochs=10, horizon=15)
PRESETS["mnist-sf-lenet5"] = replace(PRESETS["mnist-sf-bptt"], arch="lenet5", batch_size=256)
PRESETS["mnist-df-lenet5"] = replace(PRESETS["mnist-df-bptt"], arch="lenet5", batch_size=256)


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


class TrainingDiverged(NumericalError):
    """Loss went NaN; ``.checkpoint`` holds the last good state: the last
    completed epoch's snapshot, or the checkpoint the run started from (the
    config's epoch-0 checkpoint for a fresh run)."""

    def __init__(self, message, checkpoint: Checkpoint):
        super().__init__(message)
        self.checkpoint = checkpoint


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> None:
    """Bias-corrected Adam update in place; L2 decay added to the gradient.

    Each weight's update runs in two scratch arrays, in the order of
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` with ``m += (1 - beta1) * g``
    and ``v += (1 - beta2) * g * g``.  ``grads`` is only read.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name in sorted(params):
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"NaN/Inf gradient for parameter {name!r}")
        p = params[name]
        a = np.empty(p.shape)
        b = np.empty(p.shape)
        if weight_decay:
            g = np.add(g, np.multiply(weight_decay, p, out=a), out=a)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=b)
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=b)
        v += np.multiply(b, g, out=b)
        # a is free: g is no longer read
        np.divide(m, c1, out=a)
        a *= lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        p -= a


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step schedule: lr0 * gamma^(epoch // step)."""
    return config.lr * config.scheduler_gamma ** (epoch // config.scheduler_step)


def _batch_loss(spec, tape, labels, batch_size=None):
    """``spec``'s loss on one taped batch: (value, the (T, N, n) gradient at
    the output layer that ``backward`` takes).  S-F: the ML first-spike loss,
    fused through the output sigmoid to survive saturation; D-R: rate
    cross-entropy, the same gradient at every step; D-F: temporal
    cross-entropy, routed to first-spike steps by the sign estimator.

    The tape may hold a row block of a batch of ``batch_size`` rows (default:
    the tape's own rows): the value is then the block's share of the batch
    mean and the gradient rows are those of the whole batch."""
    out = tape.traces[-1]
    if spec.model_kind == "S-F-BPTT":
        loss = ml_loss_logits_batch(np.moveaxis(out.v, 0, 1), labels, batch_size)
        return loss.value, np.moveaxis(loss.grad, 1, 0)
    if spec.model_kind == "D-R-BPTT":
        loss = rate_ce_loss_batch(out.spikes.sum(axis=0), labels, batch_size)
        return loss.value, np.broadcast_to(loss.grad, (tape.horizon,) + loss.grad.shape)
    times = first_spike_times(out.spikes)
    loss = fts_ce_loss_batch(times, labels, batch_size)
    return loss.value, sign_estimator_backward(loss.grad, times, tape.horizon)


def _snapshot(spec, params, adam, epoch, seed, best_acc, final=False) -> Checkpoint:
    """The run's state after ``epoch`` epochs.  It copies the live parameters
    and Adam moments, which training goes on to update, unless this is the
    ``final`` epoch's: that one takes them as they are."""
    def own(arrays):
        return arrays if final else {k: v.copy() for k, v in arrays.items()}

    return Checkpoint(spec=spec, params=own(params), adam_m=own(adam.m), adam_v=own(adam.v),
                      adam_step=adam.step, epoch=epoch, seed=seed, best_accuracy=best_acc)


def _initial_checkpoint(config: TrainConfig) -> Checkpoint:
    """The epoch-0 checkpoint of ``config``'s run: its spec's parameters
    initialised from the config's seed, no Adam state and a best accuracy of
    0.0, which every accuracy ranks at or above."""
    spec = config.network_spec()
    init = RngStream(config.seed, stream_id=_STREAM_INIT)
    return Checkpoint(spec=spec, params=init_params(spec, init), seed=config.seed)


@simulating()
def train(config: TrainConfig, train_ds: Dataset, test_ds: Dataset | None = None,
          resume: Checkpoint | None = None, epoch_hook=None):
    """Run the full schedule; returns (best_checkpoint, log_rows).

    ``log_rows`` is one dict per epoch: epoch, lr, train_loss, test_acc,
    wall_time_s.  When ``test_ds`` is given the returned checkpoint is the
    best-accuracy epoch snapshot, otherwise the final state.  ``resume``
    continues a run bit-exactly from its stored epoch and trains its spec;
    the config's network settings are then not read.  ``resume``'s arrays
    are only read, and the returned checkpoint may share them.  A fresh run
    is a resume from the config's epoch-0 checkpoint (its spec's initial
    parameters, drawn from the config's seed), down the same path: resuming
    that checkpoint, as ``train`` returns it for ``epochs=0``, gives the same
    bytes as the fresh run.

    Each batch runs block-major, as evaluation does: its rows are cut into
    blocks of ``network.block_rows`` rows, and each block runs forward, loss
    and backward on its own tape, which is freed before the next block's
    forward.  A block's membrane state then stays in cache from one step to
    the next, and the tape, the step's largest allocation, is held for one
    block rather than the batch.  Layer 0's work is done once per batch:
    one GEMM or conv gives the batch's layer-0 drive, and each block's
    forward reads its rows of it; each block's backward hands back layer
    0's drive gradient summed over time, which is written over those rows,
    done with by then, and after the last block one
    ``bptt.synaptic_backward`` turns the whole buffer and the batch's
    images into layer 0's weight gradient.  The
    losses divide by the batch's size, so the other layers' weight
    gradients, summed in place over the blocks, are the batch's up to the
    order of their sums; the batch's images and drive are freed before the
    one Adam step per batch.  Training draws are keyed by dataset index, so
    no draw depends on the blocking.
    """
    if len(train_ds) == 0:
        raise ParameterError("empty training set")
    # a fresh run resumes the config's epoch-0 checkpoint; either one is
    # held only as last_good and only read
    last_good = replace(resume if resume is not None else _initial_checkpoint(config),
                        seed=config.seed)
    spec = last_good.spec
    params = {k: v.copy() for k, v in last_good.params.items()}
    adam = AdamState(m={k: v.copy() for k, v in last_good.adam_m.items()},
                     v={k: v.copy() for k, v in last_good.adam_v.items()},
                     step=last_good.adam_step)
    start_epoch, best_acc = last_good.epoch, last_good.best_accuracy
    n = len(train_ds)
    log_rows = []
    # without a test set nothing is ranked and the final state is returned:
    # the initial checkpoint is then freed as soon as epoch 1's snapshot
    # replaces it
    best_ckpt = last_good if test_ds is not None else None
    n_neuron_layers = len(spec.neuron_layers())
    block = block_rows(spec, train_ds.images.shape[-2:])
    layer0, w0 = spec.layers[0], "layer0.w"

    for epoch in range(start_epoch, config.epochs):
        t0 = time.monotonic()
        lr = lr_at(epoch, config)
        shuffle = RngStream(config.seed, stream_id=_STREAM_SHUFFLE_BASE + epoch)
        order = np.argsort(rng_uniform(shuffle, (n,)), kind="stable")
        epoch_loss = 0.0
        n_batches = 0
        try:
            for b, s in enumerate(range(0, n, config.batch_size)):
                idx = order[s : s + config.batch_size]
                images = train_ds.images[idx]
                # layer 0's drive, once per batch; each block's forward reads
                # its rows, and its backward's layer-0 drive gradient then
                # replaces them
                drive = synaptic_drive(layer0, params[w0], images)
                # block-major: each row block runs forward, loss and backward
                # on its own tape, its per-step state kept in cache, and adds
                # the other layers' weight gradients into the batch's
                loss = 0.0
                grads = {}
                for r in range(0, len(idx), block):
                    rows = idx[r : r + block]
                    # every block draws step t at counter t of one stream per
                    # (epoch, layer), keyed by dataset index
                    streams = [RngStream(config.seed,
                                         stream_id=_STREAM_TRAIN_BASE + (epoch << 8) + li)
                               for li in range(n_neuron_layers)]
                    encoded = encode_direct(images[r : r + block], spec.horizon)
                    tape = net_forward(spec, params, encoded, streams, rows=rows,
                                       drive0=drive[r : r + block])[1]
                    block_loss, g_top = _batch_loss(spec, tape, train_ds.labels[rows], len(idx))
                    loss += block_loss
                    if not np.isfinite(loss):
                        raise NumericalError(f"loss diverged at epoch {epoch} batch {b}")
                    block_grads, drive[r : r + block] = backward(tape, g_top)
                    for name in block_grads:
                        if name in grads:
                            grads[name] += block_grads[name]
                        else:
                            grads[name] = block_grads[name]
                    # the tape is the step's largest allocation: free it, and
                    # the block's weight gradients, before the next block's
                    # forward pass
                    del tape, g_top, block_grads
                _, grads[w0] = synaptic_backward(layer0, params[w0], drive, images,
                                                 need_input=False)
                # Adam's scratch arrays need not stack on the batch's arrays
                # (encoded is a view of images)
                del images, drive, encoded
                adam_step(params, grads, adam, lr, config.weight_decay)
                del grads
                epoch_loss += loss
                n_batches += 1
        except NumericalError as exc:
            raise TrainingDiverged(str(exc), checkpoint=last_good) from exc
        # nothing from here on can diverge: the last snapshot is kept only as
        # the best one, not beside the next one while that is copied
        last_good = None

        train_loss = epoch_loss / n_batches
        acc = (float((run_network(spec, params, test_ds.images, mode=spec.coding,
                                  seed=config.seed).predictions == test_ds.labels).mean())
               if test_ds is not None else float("nan"))
        row = {"epoch": epoch + 1, "lr": lr, "train_loss": train_loss,
               "test_acc": acc, "wall_time_s": time.monotonic() - t0}
        log_rows.append(row)
        # ranked before the snapshot, which records the best accuracy up to
        # and including this epoch, as a run resumed from it must rank against
        improved = test_ds is not None and acc >= best_acc
        if improved:
            best_acc = acc
        last_good = _snapshot(spec, params, adam, epoch + 1, config.seed, best_acc,
                              epoch + 1 == config.epochs)
        if improved:
            best_ckpt = last_good       # never mutated, only replaced
        if epoch_hook is not None:
            epoch_hook(row, last_good)

    return (last_good if test_ds is None else best_ckpt), log_rows

