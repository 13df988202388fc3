"""Measure one workload: set-up, oracle checks, timed rounds, report.

A round runs the five user-facing operations of the package once each, on
the workload's generated inputs: a one-epoch ``train.train``, a
first-to-spike ``metrics.evaluate``, a rate ``metrics.evaluate`` of the
architecture's D-R network, a ``metrics.noise_sweep`` and a few DE
generations (``tuner.de_minimize`` over ``tuner.tradeoff_objective``).
Rounds repeat until ``--seconds`` have passed.  Round 0 warms up and is
not timed; each end-to-end figure is the median over the other rounds.  Every
round's outputs must repeat round 0's bit for bit.

Each timed figure is scaled to nominal host speed by a reference kernel
timed just before and after it (``HostSpeed``); the raw wall-time medians
are kept in the record as ``end_to_end_wall``.

With ``--trace 1`` odd rounds run inside a ``spans.Tracer`` and give the
per-layer figures (medians over traced rounds); even rounds stay untraced,
and the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
import gen
from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "spikefirst"
HIDDEN = 800
BETA = 0.1                  # latency weight of the DE objective
# Per neuron layer: v_th (det) or k (stoch).  Narrow, so that the cost of an
# objective call, which grows with latency, varies little between candidates.
DE_BOUNDS = (0.9, 1.1)
# Seeds the model: the generated weights, and the program's own randomness
# (training shuffles, stochastic-neuron draws, input noise, DE).  The workload
# seed varies the images only.  Eval cost follows the mean first-spike step,
# which moves by +-6% (sd) with lenet5 weight draws and by +-8% with the
# stochastic draws over a few hundred samples, but by about 1% with images.
MODEL_SEED = 1
SETUP_SAMPLES = 3          # imports and set-ups timed before the rounds
OPS = ("train", "eval_fts", "eval_rate", "noise", "de")
MODULES = ("checkpoint", "data", "inference", "metrics", "network", "neurons", "train",
           "tuner")

END_TO_END = {
    "train_samples_per_s": "1/s",
    "eval_fts_samples_per_s": "1/s",
    "eval_rate_samples_per_s": "1/s",
    "noise_eval_samples_per_s": "1/s",
    "de_generation_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "network.forward_s": "s",
    "network.forward_self_s": "s",
    "bptt.backward_s": "s",
    "bptt.backward_self_s": "s",
    "bptt.tape_mb": "MB",
    "tensor.conv2d_s": "s",
    "tensor.conv2d_calls": "count",
    "tensor.conv2d_backward_s": "s",
    "tensor.pool2d_s": "s",
    "tensor.pool2d_backward_s": "s",
    "tensor.pool_calls": "count",
    "neurons.sigmoid_s": "s",
    "neurons.sigmoid_calls": "count",
    "rng.uniform_s": "s",
    "rng.uniform_calls": "count",
    "rng.uniform_values": "count",
    "rng.gaussian_s": "s",
    "rng.gaussian_values": "count",
    "rng.noise_used_ratio": "ratio",
    "coding.loss_s": "s",
    "train.adam_step_s": "s",
    "train.epoch_self_s": "s",
    "inference.run_network_s": "s",
    "inference.run_network_self_s": "s",
    "inference.sample_steps": "count",
    "inference.active_ratio": "ratio",
    "inference.rate_active_ratio": "ratio",
    "inference.mean_latency_steps": "steps",
    "metrics.synops_per_sample": "count",
    "metrics.evaluate_self_s": "s",
    "tuner.objective_evals": "count",
    "tuner.objective_s": "s",
    "tuner.de_self_s": "s",
    "tuner.accept_ratio": "ratio",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "bytes",
    "trace.overhead_pct": "%",
}


class SetupError(RuntimeError):
    """The program could not be found or imported from the checkout."""


# ---------------------------------------------------------------- program

def import_program(root: Path):
    """Import the package from ``root/src`` only; returns (namespace, seconds)."""
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no {PACKAGE} package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        package = importlib.import_module(PACKAGE)
        # The package re-exports functions named like its modules (``train``),
        # so submodules are fetched by their dotted names.
        modules = {n: importlib.import_module(f"{PACKAGE}.{n}") for n in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE}: {exc}") from exc
    seconds = time.perf_counter() - t0
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"{PACKAGE} was imported from {package.__file__}, not {src}")
    return argparse.Namespace(**modules), seconds


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy, scipy; "
                 "t0 = time.perf_counter(); import {}; print(time.perf_counter() - t0)")


def time_import(src: Path) -> float:
    """Seconds to import the package and its modules in a fresh interpreter.

    numpy and scipy are loaded first, as they are here when the package is
    imported, so the figure is the package's own import time."""
    names = ", ".join([PACKAGE] + [f"{PACKAGE}.{n}" for n in MODULES])
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(names), str(src)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


@dataclass
class Setup:
    train_ds: object
    eval_ds: object
    rate_ds: object
    noise_ds: object
    val_ds: object
    check_ds: object
    ckpt: object            # the workload's network, as loaded back from disk
    rate_ckpt: object       # the architecture's D-R network
    ckpt_bytes: int


def _checkpoint(sf, spec, layers):
    weighted = spec.weighted_layers()
    shapes = [sf.network.weight_shape(layer) for _, layer in weighted]
    arrays = gen.make_weights(MODEL_SEED, shapes, layers)
    params = {f"layer{i}.w": a for (i, _), a in zip(weighted, arrays)}
    return sf.checkpoint.Checkpoint(spec=spec, params=params, seed=MODEL_SEED)


def make_setup(sf, w: gen.Workload, seed: int, tmpdir: Path) -> Setup:
    """Generate inputs and weights, round-trip the checkpoint, warm up."""
    def dataset(n, block):
        images, labels = gen.make_images(seed, n, block)
        return sf.data.Dataset(images=images, labels=labels, split="bench", name=w.name)

    sets = [dataset(n, block) for block, n in enumerate(
        (w.n_train, w.n_eval, w.n_rate, w.n_noise, w.n_val, w.n_check))]
    spec = sf.network.build(w.arch, w.model_kind, {"hidden": HIDDEN})
    rate_spec = sf.network.build(w.arch, "D-R-BPTT", {"hidden": HIDDEN})
    path = tmpdir / "init.ckpt"
    sf.checkpoint.save_checkpoint(_checkpoint(sf, spec, w.layers), path)
    ckpt = sf.checkpoint.load_checkpoint(path)
    rate_ckpt = _checkpoint(sf, rate_spec, w.rate_layers)
    warm = sets[-1].subset(slice(0, 32))
    sf.metrics.evaluate(ckpt, warm)
    sf.metrics.evaluate(rate_ckpt, warm, mode="rate")
    return Setup(*sets, ckpt=ckpt, rate_ckpt=rate_ckpt, ckpt_bytes=path.stat().st_size)


# ---------------------------------------------------------------- host speed

# Seconds the reference kernel takes at the nominal host speed: about its
# median on the 2-vCPU Xeon host the bounds were set on, one BLAS thread.
REF_NOMINAL_S = 0.075


class HostSpeed:
    """Times a fixed kernel of the program's kinds of work to track how fast
    the shared host runs right now.

    On a host whose cores are shared with other tenants, the speed of the
    same code drifts by +-20% within seconds, and by different amounts for
    BLAS, elementwise, random-number and interpreter-bound code.  The kernel
    does some of each: a GEMM with leaky integration, threshold and reset; a
    sigmoid; Philox Gaussian and uniform draws; and a small convolution built
    from 25 strided copies (im2col), a batched GEMM and 2x2 max pooling.
    Each timed figure is scaled by the kernel's time measured just before
    and just after it (``timed``), which cancels most of the drift.  The
    kernel is the benchmark's own numpy code, so a change to the program
    cannot move it.
    """

    # A sample taken at most this long before an operation starts serves as
    # its "before" sample, so back-to-back operations share one sample.
    REUSE_S = 0.05

    def __init__(self):
        g = np.random.Generator(np.random.Philox(key=[0, 0xBE]))
        self.x = np.where(g.random((256, 784)) < 0.2, g.random((256, 784)), 0.0)
        self.w = g.uniform(-0.05, 0.05, (784, 800))
        self.maps = np.where(g.random((64, 6, 14, 14)) < 0.2, 1.0, 0.0)
        self.filters = g.uniform(-0.2, 0.2, (16, 6 * 5 * 5))
        self.samples: list[float] = []
        self._last = (float("-inf"), float("nan"))      # (end time, seconds)

    def sample(self) -> float:
        t0 = time.perf_counter()
        v = np.zeros((self.x.shape[0], self.w.shape[1]))
        for _ in range(4):
            v = 0.9 * v + self.x @ self.w
            v = np.where(v >= 1.0, 0.0, v)
        p = 1.0 / (1.0 + np.exp(-v))
        g = np.random.Generator(np.random.Philox(key=[0, 0xBF]))
        g.normal(0.0, 0.1, (1024, 784))
        _ = g.random((1024, 800)) < np.resize(p, (1024, 800))
        for _ in range(4):
            cols = np.empty((64, 6, 5, 5, 10, 10))
            for i in range(5):
                for j in range(5):
                    cols[:, :, i, j] = self.maps[:, :, i:i + 10, j:j + 10]
            u = self.filters @ cols.reshape(64, 6 * 5 * 5, 100)
            u.reshape(64, 16, 5, 2, 5, 2).max(axis=(3, 5))
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = (t1, t1 - t0)
        return t1 - t0

    def timed(self, fn):
        """``fn()`` between two kernel timings; returns (result, scale).

        ``scale`` is the mean kernel time over ``REF_NOMINAL_S``: above 1
        when the host runs slow.  Seconds divided by it, and rates
        multiplied by it, read as at nominal speed."""
        end, before = self._last
        if time.perf_counter() - end > self.REUSE_S:
            before = self.sample()
        result = fn()
        return result, (before + self.sample()) / (2 * REF_NOMINAL_S)


# ---------------------------------------------------------------- operations

@dataclass
class OpResult:
    seconds: float
    value: float                # the op's end-to-end figure for this round
    problems: list
    digest: str
    extra: dict
    scale: float = 1.0          # HostSpeed scale measured around the op


RATE_OPS = {"train": "train_samples_per_s", "eval_fts": "eval_fts_samples_per_s",
            "eval_rate": "eval_rate_samples_per_s", "noise": "noise_eval_samples_per_s"}


class Runner:
    def __init__(self, sf, w: gen.Workload, setup: Setup):
        self.sf, self.w, self.s = sf, w, setup
        self.tracer: Tracer | None = None

    def _paused(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def train(self) -> OpResult:
        spec = self.s.ckpt.spec
        cfg = self.sf.train.TrainConfig(
            model_kind=spec.model_kind, arch=spec.arch, epochs=1, batch_size=self.w.batch,
            lr=self.w.lr, horizon=spec.horizon, seed=MODEL_SEED, hidden=HIDDEN,
            lambda_leak=spec.neuron_layers()[0].leak)
        t0 = time.perf_counter()
        out, log = self.sf.train.train(cfg, self.s.train_ds, resume=self.s.ckpt)
        dt = time.perf_counter() - t0
        loss = log[-1]["train_loss"]
        names = sorted(out.params)
        problems = [] if np.isfinite(loss) else [f"train loss is {loss}"]
        problems += [f"parameter {k} is not finite" for k in names
                     if not np.all(np.isfinite(out.params[k]))]
        return OpResult(dt, self.w.n_train / dt, problems,
                        checks.digest(*(out.params[k] for k in names)), {"loss": loss})

    def eval_fts(self) -> OpResult:
        t0 = time.perf_counter()
        rep = self.sf.metrics.evaluate(self.s.ckpt, self.s.eval_ds)
        dt = time.perf_counter() - t0
        problems = []
        if not checks.latency_in_band(rep.mean_latency, self.w.band):
            problems.append(f"mean first-spike step {rep.mean_latency:.3f} "
                            f"outside band {self.w.band}")
        ops = self.sf.metrics.network_op_counts(self.s.ckpt.spec, gen.IMAGE_SHAPE[1:])
        synops = rep.energy_cost * float(sum(ops))
        return OpResult(dt, self.w.n_eval / dt, problems, _report_digest(rep),
                        {"accuracy": rep.accuracy, "mean_latency": rep.mean_latency,
                         "synops_per_sample": synops})

    def eval_rate(self) -> OpResult:
        t0 = time.perf_counter()
        rep = self.sf.metrics.evaluate(self.s.rate_ckpt, self.s.rate_ds, mode="rate")
        dt = time.perf_counter() - t0
        horizon = self.s.rate_ckpt.spec.horizon
        problems = [] if rep.mean_latency == horizon else [
            f"rate eval latency {rep.mean_latency} != horizon {horizon}"]
        return OpResult(dt, self.w.n_rate / dt, problems, _report_digest(rep),
                        {"accuracy": rep.accuracy})

    def noise(self) -> OpResult:
        variances = self.w.variances
        t0 = time.perf_counter()
        rows = self.sf.metrics.noise_sweep(self.s.ckpt, self.s.noise_ds, variances,
                                           seed=MODEL_SEED)
        dt = time.perf_counter() - t0
        problems = []
        if [v for v, _ in rows] != list(variances):
            problems.append(f"noise sweep returned variances {[v for v, _ in rows]}")
        problems += [f"accuracy {a} at variance {v}" for v, a in rows if not 0 <= a <= 1]
        return OpResult(dt, self.w.n_noise * len(variances) / dt, problems,
                        checks.digest(np.asarray(rows, dtype=np.float64)),
                        {"accuracy": [a for _, a in rows]})

    def de(self) -> OpResult:
        sf, s, w = self.sf, self.s, self.w
        ends, values = [], []

        def objective(vec):
            val = sf.tuner.tradeoff_objective(s.ckpt, vec, s.val_ds, beta=BETA)
            ends.append(time.perf_counter())
            values.append(val)
            return val

        dims = len(s.ckpt.spec.neuron_layers())
        cfg = sf.tuner.DeConfig(pop_size=w.de_pop, max_generations=w.de_generations,
                                seed=MODEL_SEED, latency_weight=BETA)
        t0 = time.perf_counter()
        res = sf.tuner.de_minimize(objective, np.tile(DE_BOUNDS, (dims, 1)), cfg)
        dt = time.perf_counter() - t0

        pop, gens = w.de_pop, w.de_generations
        problems = []
        if len(values) != pop * (gens + 1):
            problems.append(f"{len(values)} objective calls, expected {pop * (gens + 1)}")
            gen_times, accepted = [], 0
        else:
            # Generation g ends with objective call pop * (g + 2) - 1; its time
            # includes building that generation's trials.
            gen_times = [ends[pop * (g + 2) - 1] - ends[pop * (g + 1) - 1] for g in range(gens)]
            accepted = accepted_trials(values, pop)
        if not checks.non_increasing(res.history):
            problems.append(f"DE history increases: {res.history}")
        with self._paused():
            again = sf.tuner.tradeoff_objective(s.ckpt, res.best_vector, s.val_ds, beta=BETA)
        if again != res.best_objective:
            problems.append(f"best vector re-evaluates to {again!r}, "
                            f"reported {res.best_objective!r}")
        # Later generations are cheaper as thresholds converge, so a round's
        # figure is its mean generation time.
        return OpResult(dt, statistics.fmean(gen_times) if gen_times else float("nan"),
                        problems, checks.digest(res.best_vector, np.asarray(res.history)),
                        {"generation_s": gen_times, "objective_evals": len(values),
                         "accepted": accepted, "trials": pop * gens,
                         "best_objective": res.best_objective})


def accepted_trials(values, pop: int) -> int:
    """Trials greedy DE selection keeps, replayed from the objective values in call order."""
    fitness = list(values[:pop])
    accepted = 0
    for k, val in enumerate(values[pop:]):
        i = k % pop
        if val <= fitness[i]:
            fitness[i] = val
            accepted += 1
    return accepted


def _report_digest(rep) -> str:
    return checks.digest(np.asarray([rep.accuracy, rep.mean_latency, rep.energy_cost]
                                    + list(rep.layer_rates), dtype=np.float64))


# ---------------------------------------------------------------- oracle checks

def check_fts(sf, s: Setup) -> OpResult:
    """Early-exit inference against a full-horizon forward pass (deterministic
    networks), or against a repeat of itself (stochastic ones, whose forward
    pass draws from other streams)."""
    images = s.check_ds.images
    spec, params = s.ckpt.spec, s.ckpt.params
    t0 = time.perf_counter()
    res = sf.inference.run_network(spec, params, images)
    dt = time.perf_counter() - t0
    problems = []
    if not np.array_equal(res.steps, res.latencies):
        problems.append("steps simulated differ from first-spike latencies")
    if spec.model_kind.startswith("D"):
        _, tape = sf.network.forward(spec, params, sf.data.encode_direct(images, spec.horizon))
        out = tape.traces[-1]
        pred, lat = checks.fts_from_full_horizon(sf.neurons.first_spike_times(out.spikes), out.v)
        for what, want, got in (("predictions", pred, res.predictions),
                                ("latencies", lat, res.latencies)):
            if not np.array_equal(want, got):
                problems.append(f"{int((want != got).sum())} early-exit {what} differ "
                                "from full-horizon forward")
    else:
        again = sf.inference.run_network(spec, params, images)
        if not (np.array_equal(again.predictions, res.predictions)
                and np.array_equal(again.latencies, res.latencies)):
            problems.append("stochastic early-exit inference does not repeat exactly")
    return OpResult(dt, len(images) / dt, problems, checks.digest(res.predictions, res.latencies),
                    {"sample_steps": int(res.steps.sum())})


def check_rate(sf, s: Setup) -> OpResult:
    """Rate inference against spike counts of a full-horizon forward pass."""
    images = s.check_ds.images
    spec, params = s.rate_ckpt.spec, s.rate_ckpt.params
    t0 = time.perf_counter()
    res = sf.inference.run_network(spec, params, images, mode="rate")
    dt = time.perf_counter() - t0
    records, _ = sf.network.forward(spec, params, sf.data.encode_direct(images, spec.horizon))
    want = checks.rate_from_full_horizon(records[-1])
    problems = [] if np.array_equal(want, res.predictions) else [
        f"{int((want != res.predictions).sum())} rate predictions differ from "
        "full-horizon spike counts"]
    return OpResult(dt, len(images) / dt, problems, checks.digest(res.predictions), {})


# ---------------------------------------------------------------- tracing

def _count_values(key):
    def hook(tracer, call, result):
        tracer.count(key, np.size(result))
    return hook


def _on_forward(tracer, call, result):
    _, tape = result
    nbytes = sum(a.nbytes for t in tape.traces
                 for a in (t.inputs, t.v, t.spikes, t.probs) if a is not None)
    counts = tracer.counts[tracer.op]
    counts["bptt.tape_bytes"] = max(counts["bptt.tape_bytes"], nbytes)


def _on_run_network(tracer, call, res):
    spec = call.args[0]
    images = call.args[2]
    horizon = call.kwargs.get("horizon") or spec.horizon
    n = len(res.steps)
    steps = int(res.steps.sum())
    tracer.count("inference.samples", n)
    tracer.count("inference.sample_steps", steps)
    tracer.count("inference.horizon_steps", n * horizon)
    tracer.count("inference.latency_sum", float(res.latencies.sum()))
    if call.kwargs.get("input_noise_std", 0.0) > 0:
        key = "rng.gaussian_values"
        drawn = tracer.counts[tracer.op][key] - call.counts_before.get(key, 0.0)
        tracer.count("rng.noise_drawn", drawn)
        tracer.count("rng.noise_used", steps * int(np.prod(images.shape[1:])))


TRACE_TARGETS = (
    ("network.forward", "network", "forward", _on_forward),
    ("bptt.backward", "bptt", "backward", None),
    ("tensor.conv2d", "tensor", "conv2d", None),
    ("tensor.conv2d_backward", "tensor", "conv2d_backward", None),
    ("tensor.pool2d", "tensor", "pool2d", None),
    ("tensor.pool2d_backward", "tensor", "pool2d_backward", None),
    ("neurons.sigmoid", "neurons", "sigmoid", None),
    ("rng.uniform", "rng", "rng_uniform", _count_values("rng.uniform_values")),
    ("rng.gaussian", "rng", "rng_gaussian", _count_values("rng.gaussian_values")),
    ("coding.loss", "coding", "fts_ce_loss_batch", None),
    ("coding.loss", "coding", "ml_loss_logits_batch", None),
    ("coding.loss", "coding", "rate_ce_loss_batch", None),
    ("train.adam_step", "train", "adam_step", None),
    ("train.train", "train", "train", None),
    ("inference.run_network", "inference", "run_network", _on_run_network),
    ("metrics.evaluate", "metrics", "evaluate", None),
    ("metrics.noise_sweep", "metrics", "noise_sweep", None),
    ("tuner.de_minimize", "tuner", "de_minimize", None),
    ("tuner.objective", "tuner", "tradeoff_objective", None),
    ("checkpoint.save", "checkpoint", "save_checkpoint", None),
    ("checkpoint.load", "checkpoint", "load_checkpoint", None),
)


def make_tracer() -> Tracer:
    tracer = Tracer(PACKAGE)
    for name, module, attr, hook in TRACE_TARGETS:
        tracer.wrap(name, f"{PACKAGE}.{module}", attr, hook)
    return tracer


def layer_figures(spans, selfs, counts: dict, ops: dict) -> dict:
    """Per-layer figures of one traced round.

    ``spans`` are the round's spans, ``counts`` maps op name to its counts,
    ``ops`` maps op name to its OpResult.  Times are seconds per round,
    except network.forward / bptt.backward, which are per call (one
    training step).
    """
    total, own, calls, per_call, per_call_self = {}, {}, {}, {}, {}
    for s in spans:
        d = s.end - s.start
        total[s.name] = total.get(s.name, 0.0) + d
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        per_call.setdefault(s.name, []).append(d)
        per_call_self.setdefault(s.name, []).append(selfs[s.id])

    def med(d, name):
        return statistics.median(d[name]) if name in d else 0.0

    def c(op, key):
        return counts.get(op, {}).get(key, 0.0)

    def all_ops(key):
        return sum(v.get(key, 0.0) for v in counts.values())

    de = ops["de"].extra
    return {
        "network.forward_s": med(per_call, "network.forward"),
        "network.forward_self_s": med(per_call_self, "network.forward"),
        "bptt.backward_s": med(per_call, "bptt.backward"),
        "bptt.backward_self_s": med(per_call_self, "bptt.backward"),
        "bptt.tape_mb": c("train", "bptt.tape_bytes") / 2**20,
        "tensor.conv2d_s": total.get("tensor.conv2d", 0.0),
        "tensor.conv2d_calls": calls.get("tensor.conv2d", 0),
        "tensor.conv2d_backward_s": total.get("tensor.conv2d_backward", 0.0),
        "tensor.pool2d_s": total.get("tensor.pool2d", 0.0),
        "tensor.pool2d_backward_s": total.get("tensor.pool2d_backward", 0.0),
        "tensor.pool_calls": calls.get("tensor.pool2d", 0) + calls.get("tensor.pool2d_backward", 0),
        "neurons.sigmoid_s": total.get("neurons.sigmoid", 0.0),
        "neurons.sigmoid_calls": calls.get("neurons.sigmoid", 0),
        "rng.uniform_s": total.get("rng.uniform", 0.0),
        "rng.uniform_calls": calls.get("rng.uniform", 0),
        "rng.uniform_values": all_ops("rng.uniform_values"),
        "rng.gaussian_s": total.get("rng.gaussian", 0.0),
        "rng.gaussian_values": all_ops("rng.gaussian_values"),
        "rng.noise_used_ratio": _ratio(c("noise", "rng.noise_used"), c("noise", "rng.noise_drawn")),
        "coding.loss_s": total.get("coding.loss", 0.0),
        "train.adam_step_s": total.get("train.adam_step", 0.0),
        "train.epoch_self_s": own.get("train.train", 0.0),
        "inference.run_network_s": total.get("inference.run_network", 0.0),
        "inference.run_network_self_s": own.get("inference.run_network", 0.0),
        "inference.sample_steps": c("eval_fts", "inference.sample_steps"),
        "inference.active_ratio": _ratio(c("eval_fts", "inference.sample_steps"),
                                         c("eval_fts", "inference.horizon_steps")),
        "inference.rate_active_ratio": _ratio(c("eval_rate", "inference.sample_steps"),
                                              c("eval_rate", "inference.horizon_steps")),
        "inference.mean_latency_steps": _ratio(c("eval_fts", "inference.latency_sum"),
                                               c("eval_fts", "inference.samples")),
        "metrics.synops_per_sample": ops["eval_fts"].extra.get("synops_per_sample", float("nan")),
        "metrics.evaluate_self_s": own.get("metrics.evaluate", 0.0),
        "tuner.objective_evals": de.get("objective_evals", float("nan")),
        "tuner.objective_s": total.get("tuner.objective", 0.0),
        "tuner.de_self_s": own.get("tuner.de_minimize", 0.0),
        "tuner.accept_ratio": _ratio(de.get("accepted", 0), de.get("trials", 0)),
    }


# ---------------------------------------------------------------- environment

def git_sha(root: Path):
    """HEAD commit read from ``root/.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / PACKAGE).rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(root: Path, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


# ---------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_round(runner: Runner, speed: HostSpeed, tracer: Tracer | None, r: int) -> dict:
    results = {}
    for name in OPS:
        def call(op=getattr(runner, name), name=name):
            if tracer is None:
                return _guarded(op)
            with tracer.operation(f"r{r}.{name}"), tracer.span(f"bench.{name}"):
                return _guarded(op)
        res, scale = speed.timed(call)
        res.scale = scale
        results[name] = res
    return results


def _guarded(op):
    try:
        return op()
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        return OpResult(float("nan"), float("nan"), [traceback.format_exc()], "", {})


def main(argv, blas_threads: int) -> int:
    args = parse_args(argv)
    w = gen.WORKLOADS[args.workload]
    try:
        sf, import_s = import_program(ROOT)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = environment(ROOT, blas_threads)
    tracer = make_tracer() if args.trace else None

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp") as tmp:
        speed = HostSpeed()
        import_times, setup_times = [], []      # (wall seconds, HostSpeed scale)

        def one_setup(k):
            t0 = time.perf_counter()
            if tracer is None:
                result = make_setup(sf, w, args.seed, Path(tmp))
            else:
                with tracer, tracer.operation(f"setup{k}"):
                    result = make_setup(sf, w, args.seed, Path(tmp))
            return result, time.perf_counter() - t0

        for k in range(SETUP_SAMPLES):
            import_times.append(speed.timed(lambda: time_import(ROOT / "src")))
            (setup, seconds), scale = speed.timed(lambda: one_setup(k))
            setup_times.append((seconds, scale))

        oracle = {name: _guarded(lambda fn=fn: fn(sf, setup))
                  for name, fn in (("fts_oracle", check_fts), ("rate_oracle", check_rate))}
        runner = Runner(sf, w, setup)
        rounds, traced = [], []
        deadline = time.perf_counter() + args.seconds
        # Round 0 warms up and is checked but not timed; trace mode also needs
        # a traced and a plain round.
        min_rounds = 2 if tracer is None else 3
        last = 0.0
        # Stop once another round would overrun the deadline by more than half
        # its length, so a run lasts about --seconds whatever a round costs.
        while len(rounds) < min_rounds or time.perf_counter() + last / 2 < deadline:
            r = len(rounds)
            t0 = time.perf_counter()
            if tracer is not None and r % 2 == 1:
                runner.tracer = tracer
                with tracer:
                    rounds.append(run_round(runner, speed, tracer, r))
                runner.tracer = None
                traced.append(r)
            else:
                rounds.append(run_round(runner, speed, None, r))
            last = rounds[-1]["_seconds"] = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = collect_failures(oracle, rounds)
    timed = [res for r, res in enumerate(rounds) if r > 0 and r not in traced]
    # Rates times the scale and seconds over it read as at nominal host speed.
    e2e = {metric: _median(res[op].value * res[op].scale for res in timed)
           for op, metric in RATE_OPS.items()}
    e2e["de_generation_s"] = _median(res["de"].value / res["de"].scale for res in timed)
    e2e["setup_s"] = (statistics.median(t / k for t, k in import_times)
                      + statistics.median(t / k for t, k in setup_times))
    e2e["peak_rss_mb"] = peak_rss_mb
    wall = {metric: _median(res[op].value for res in timed) for op, metric in RATE_OPS.items()}
    wall["de_generation_s"] = _median(res["de"].value for res in timed)
    wall["setup_s"] = (statistics.median(t for t, _ in import_times)
                       + statistics.median(t for t, _ in setup_times))
    first = rounds[0]
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "rounds": len(rounds), "timed_rounds": len(timed),
        "import_s": import_s, "import_samples_s": import_times, "setup_samples_s": setup_times,
        "host_speed": {"nominal_s": REF_NOMINAL_S, "samples_s": speed.samples},
        "per_round": [{name: {"seconds": res[name].seconds, "value": res[name].value,
                              "scale": res[name].scale, "extra": res[name].extra}
                       for name in OPS}
                      | {"_seconds": res["_seconds"]} for res in rounds],
        "digests": {name: first[name].digest for name in OPS}
                   | {f"check.{k}": v.digest for k, v in oracle.items()},
        "exact": {
            "check.sample_steps": oracle["fts_oracle"].extra.get("sample_steps"),
            "tuner.objective_evals": first["de"].extra.get("objective_evals"),
            "metrics.synops_per_sample": first["eval_fts"].extra.get("synops_per_sample"),
            "eval_fts.mean_latency": first["eval_fts"].extra.get("mean_latency"),
        },
        "failures": failures,
        "end_to_end": e2e,
        "end_to_end_wall": wall,
    }
    if tracer is None:
        metrics = {k: (e2e[k], END_TO_END[k]) for k in END_TO_END}
    else:
        layer = trace_metrics(tracer, rounds, traced, setup, record)
        metrics = {k: (layer[k], PER_LAYER[k]) for k in PER_LAYER}

    out_path = ROOT / f"BENCH_{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=_json_default) + "\n")
    summary = {k: record[k] for k in ("workload", "seed", "rounds", "environment",
                                      "digests", "exact")}
    summary["failures"] = {k: [p.splitlines()[-1] for p in v] for k, v in failures.items()}
    print(json.dumps(summary, default=_json_default))
    missing = [k for k, (v, _) in metrics.items() if v is None or not np.isfinite(v)]
    if missing:
        print(f"bench: no measurement for {missing}; see {out_path.name}", file=sys.stderr)
        return 1
    result = {"correct": not failures, "attempted": len(oracle) + len(rounds) * len(OPS),
              "failed": len(failures),
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def collect_failures(oracle: dict, rounds: list) -> dict:
    """Problems per failed operation: its own checks, plus any round whose
    output differs from round 0's."""
    failures = {f"check.{k}": v.problems for k, v in oracle.items() if v.problems}
    for r, res in enumerate(rounds):
        for name in OPS:
            problems = list(res[name].problems)
            if res[name].digest != rounds[0][name].digest:
                problems.append(f"output differs from round 0 ({res[name].digest[:16]} "
                                f"vs {rounds[0][name].digest[:16]})")
            if problems:
                failures[f"r{r}.{name}"] = problems
    return failures


def trace_metrics(tracer: Tracer, rounds, traced, setup: Setup, record: dict) -> dict:
    """Per-layer figures: medians over traced rounds, plus set-up and overhead.

    Adds the per-round figures, the traced/untraced comparison and the spans
    to ``record``.
    """
    selfs = self_times(tracer.spans)
    per_round = []
    for r in traced:
        prefix = f"r{r}."
        spans = [s for s in tracer.spans if s.op.startswith(prefix)]
        counts = {op[len(prefix):]: dict(v) for op, v in tracer.counts.items()
                  if op.startswith(prefix)}
        per_round.append(layer_figures(spans, selfs, counts, rounds[r]))
    layer = {k: statistics.median(fig[k] for fig in per_round) for k in per_round[0]}
    setup_spans = [s for s in tracer.spans if s.op.startswith("setup")]
    for name in ("save", "load"):
        layer[f"checkpoint.{name}_s"] = _median(
            s.end - s.start for s in setup_spans if s.name == f"checkpoint.{name}")
    layer["checkpoint.bytes"] = setup.ckpt_bytes
    plain = [r for r in range(1, len(rounds)) if r not in traced]
    layer["trace.overhead_pct"] = 100.0 * (
        statistics.median(rounds[r]["_seconds"] for r in traced)
        / statistics.median(rounds[r]["_seconds"] for r in plain) - 1.0)
    record["per_layer_rounds"] = per_round
    record["trace_overhead"] = {
        name: {"untraced": _median(rounds[r][name].value for r in plain),
               "traced": _median(rounds[r][name].value for r in traced)}
        for name in OPS}
    record["spans"] = tracer.dump()
    return layer


def _median(values):
    values = [v for v in values if np.isfinite(v)]
    return statistics.median(values) if values else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def _json_default(o):
    if isinstance(o, np.generic):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"cannot serialise {type(o).__name__}")
