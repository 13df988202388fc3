"""How glibc's malloc places the package's large arrays.

By default glibc raises its mmap threshold to the size of the largest
mapped block freed so far (up to 32 MiB), and its heap-trim threshold to
twice that.  After the first large array is freed, arrays of a few MiB
(weights, datasets, gradients, tapes) are cut from the heap.  Freed,
they leave holes that later arrays may or may not fit, and the heap top
is trimmed or not depending on what happens to sit above it.  The
resident set then depends on the order and the addresses of earlier
allocations, down to the length of the working directory's name: one
mlp2-800 benchmark run peaked at 134, 151 or 160 MB under different
directory names.

``configure``, called when the package is imported, fixes both settings.
Arrays of ``MAPPED_BYTES`` (4 MiB) or more are mapped on their own when
no free heap chunk fits them, so a freed one goes back to the OS at once
and leaves no hole.  4 MiB is below a 784x800 weight matrix (5 MB) and
above the 3.3 MB layer-0 drive of a 512-row mlp2-800 batch.  The heap top
is trimmed only past ``TRIM_BYTES``, twice the largest mmap threshold, so
memory a step frees at the top is not handed back and faulted in again
at the next.

``simulating`` raises the mmap threshold to ``SIMULATION_MAPPED_BYTES``
(32 MiB, glibc's maximum) while ``train.train`` or
``inference.run_network`` runs.  Both free and allocate the same arrays
at every block, batch or step: an 8 MB tape buffer per mlp2-800 training
block, a 5 MB weight gradient per batch, and up to 4.7 MB of im2col
columns per run of samples of a vgg15 conv.  Mapping each afresh zeroes
its pages every time, which cost 16% of an mlp2-800 training step.  On
the heap they reuse the chunks freed before them.

Elsewhere than glibc (no ``mallopt``) both are no-ops.
"""

from __future__ import annotations

import contextlib
import ctypes

M_TRIM_THRESHOLD = -1               # mallopt parameters, from glibc's malloc.h
M_MMAP_THRESHOLD = -3

MAPPED_BYTES = 4 << 20
SIMULATION_MAPPED_BYTES = 32 << 20
TRIM_BYTES = 2 * SIMULATION_MAPPED_BYTES


def _find_mallopt():
    try:
        return ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None


_MALLOPT = _find_mallopt()


def _set(param: int, value: int) -> None:
    if _MALLOPT is not None:
        _MALLOPT(param, value)


def configure() -> None:
    """Fix the mmap and trim thresholds described above."""
    _set(M_TRIM_THRESHOLD, TRIM_BYTES)
    _set(M_MMAP_THRESHOLD, MAPPED_BYTES)


_depth = 0                          # simulations running, nested ones included


@contextlib.contextmanager
def simulating():
    """Keep arrays below ``SIMULATION_MAPPED_BYTES`` on the heap until the
    outermost simulation ends; usable as a decorator."""
    global _depth
    if _depth == 0:
        _set(M_MMAP_THRESHOLD, SIMULATION_MAPPED_BYTES)
    _depth += 1
    try:
        yield
    finally:
        _depth -= 1
        if _depth == 0:
            _set(M_MMAP_THRESHOLD, MAPPED_BYTES)
