"""Benchmark entry point; run from the root of a checkout.

    python3 bench/run.py --workload mlp2-det --seed 1 --seconds 38 --trace 0

BLAS runs on one thread, set before numpy is imported; everything else lives
in ``harness.py``.  On a few cores shared with other tenants, threads that
wait on each other at every GEMM turn any core taken away into a stall of the
whole call, so one thread gives much steadier figures.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


if __name__ == "__main__":
    blas_threads = pin_blas_threads()
    import harness

    sys.exit(harness.main(sys.argv[1:], blas_threads))
