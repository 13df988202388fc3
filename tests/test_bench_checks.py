"""The benchmark's oracle checks pass on the program as it stands.

``bench/harness.py`` drives the package through its public modules; a change
to a function or an option it uses, an early-exit result that no longer
matches a full-horizon forward pass, or a training step whose result moves
by one bit, would otherwise show only when the benchmark is run.
"""

import sys
from pathlib import Path

import pytest

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
