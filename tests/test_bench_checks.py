"""The benchmark's oracle checks pass on the program as it stands.

``bench/harness.py`` drives the package through its public modules; a change
to a function or an option it uses, or an early-exit result that no longer
matches a full-horizon forward pass, would otherwise show only when the
benchmark is run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
import harness  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_bench_oracle_checks_pass(tmp_path, workload):
    sf, _ = harness.import_program(ROOT)
    setup = harness.make_setup(sf, gen.WORKLOADS[workload], 43, tmp_path)
    for check in (harness.check_fts, harness.check_rate):
        assert check(sf, setup).problems == [], check.__name__
