"""The benchmark's oracle checks pass on the program as it stands.

``bench/harness.py`` drives the package through its public modules; a change
to a function or an option it uses, an early-exit result that no longer
matches a full-horizon forward pass, or a training step whose result moves
by one bit, would otherwise show only when the benchmark is run.  Its
tracer reads the arguments and results of wrapped package functions, so a
change to those would otherwise show only in a traced run.
"""

import math
import sys
import time
from pathlib import Path

import pytest

from spikefirst.rng import RngStream

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_bench_oracle_checks_pass(tmp_path, workload):
    sf, _ = harness.import_program(ROOT)
    setup = harness.make_setup(sf, gen.WORKLOADS[workload], 43, tmp_path)
    for check in (harness.check_fts, harness.check_rate):
        assert check(sf, setup).problems == [], check.__name__


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_bench_train_digest_matches_reference_step(tmp_path, monkeypatch, workload):
    # the bench's one-epoch train at its own shapes, once as is and once with
    # the reference backward and Adam: the trained weights agree bit for bit
    sf, _ = harness.import_program(ROOT)
    w = gen.WORKLOADS[workload]
    runner = harness.Runner(sf, w, harness.make_setup(sf, w, 43, tmp_path))
    got = runner.train()
    monkeypatch.setattr(sf.train, "backward", oracles.backward)
    monkeypatch.setattr(sf.train, "adam_step", oracles.adam_step)
    want = runner.train()
    assert got.problems == [] and want.problems == []
    assert got.digest == want.digest


def _reference_det_lif_step(state, layer, drive, out=None):
    return oracles.det_lif_step(state, layer, drive)


def _reference_stoch_lif_step(state, layer, drive, stream, *, rows, out=None):
    return oracles.stoch_lif_step(state, layer, drive, stream, rows=rows)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_bench_eval_digests_match_reference_lif_steps(tmp_path, monkeypatch, workload):
    # the bench's evaluations at their own shapes, once as is and once with
    # the reference LIF steps, which leave their state alone and allocate a
    # new one at every step: the reports agree bit for bit
    sf, _ = harness.import_program(ROOT)
    w = gen.WORKLOADS[workload]
    runner = harness.Runner(sf, w, harness.make_setup(sf, w, 43, tmp_path))
    ops = (runner.eval_fts, runner.eval_rate, runner.noise)
    got = [op() for op in ops]
    monkeypatch.setattr(sf.network, "det_lif_step", _reference_det_lif_step)
    monkeypatch.setattr(sf.network, "stoch_lif_step", _reference_stoch_lif_step)
    want = [op() for op in ops]
    for op, g, r in zip(ops, got, want):
        assert g.problems == [] and r.problems == [], op.__name__
        assert g.digest == r.digest, op.__name__


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_bench_traced_round_gives_every_per_layer_figure(tmp_path, workload):
    # a warm-up, a traced and a plain round, as `bench/run.py --trace 1` runs
    # them: every per-layer figure comes out finite, so a tracer hook that
    # no longer fits the program fails here and not only in a traced run
    sf, _ = harness.import_program(ROOT)
    w = gen.WORKLOADS[workload]
    tracer = harness.make_tracer()
    with tracer, tracer.operation("setup0"):
        setup = harness.make_setup(sf, w, 43, tmp_path)
    runner = harness.Runner(sf, w, setup)
    speed = harness.HostSpeed()
    rounds = []
    for r in range(3):
        t0 = time.perf_counter()
        if r == 1:
            runner.tracer = tracer
            with tracer:
                rounds.append(harness.run_round(runner, speed, tracer, r))
            runner.tracer = None
        else:
            rounds.append(harness.run_round(runner, speed, None, r))
        rounds[-1]["_seconds"] = time.perf_counter() - t0
    assert harness.collect_failures({}, rounds) == {}
    layer = harness.trace_metrics(tracer, rounds, [1], setup, {})
    assert sorted(layer) == sorted(harness.PER_LAYER)
    assert [k for k, v in layer.items() if v is None or not math.isfinite(v)] == []
    # the tape figure is one training block's tape, each array counted once
    spec, params = setup.ckpt.spec, setup.ckpt.params
    images = setup.train_ds.images[:sf.network.block_rows(spec, (28, 28))]
    streams = [RngStream(0, i) for i in range(len(spec.neuron_layers()))]
    _, tape = sf.network.forward(spec, params, sf.data.encode_direct(images, spec.horizon),
                                 streams)
    taped = {id(a): a for tr in tape.traces for a in (tr.inputs, tr.v, tr.spikes, tr.probs)
             if a is not None}
    assert layer["bptt.tape_mb"] * 2**20 == sum(a.nbytes for a in taped.values())
