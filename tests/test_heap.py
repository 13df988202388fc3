"""Where glibc's malloc puts large arrays once the package is imported
(spikefirst.heap): mapped on their own from 4 MiB, on the heap below
32 MiB while training or evaluation runs.

Each check runs in a fresh interpreter, whose heap holds no free chunk
large enough to serve the arrays probed: malloc maps an array only when
no free heap chunk fits it, whatever the threshold."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spikefirst
from spikefirst import heap

PROBE_HEAD = """
import ctypes
import numpy as np
import spikefirst
from spikefirst import heap

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2

def is_mapped(mib):
    before = mallinfo2().hblks
    a = np.empty(mib << 20, np.uint8)
    mapped = mallinfo2().hblks - before
    del a
    return mapped == 1

MiB = 1 << 20
"""


def _has_mallinfo2() -> bool:
    try:
        import ctypes
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except (OSError, TypeError):
        return False


pytestmark = pytest.mark.skipif(heap._MALLOPT is None or not _has_mallinfo2(),
                                reason="needs glibc's mallopt and mallinfo2 (2.33+)")


def probe(body: str) -> list:
    """Run PROBE_HEAD + ``body`` in a fresh interpreter; ``body`` prints a list."""
    src = str(Path(spikefirst.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE_HEAD + body], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return eval(out.stdout.strip())


def test_arrays_of_4_mib_and_more_are_mapped_on_their_own():
    # glibc's default would raise its threshold to 6 MiB once the 6 MiB
    # mapping is freed, and cut the 5 MiB array from the heap
    assert probe("print([heap.MAPPED_BYTES == 4 * MiB, is_mapped(2), is_mapped(4),"
                 " is_mapped(6), is_mapped(5)])") == [True, False, True, True, True]


def test_simulations_keep_block_sized_arrays_on_the_heap_until_the_outermost_ends():
    # an mlp2-800 block's tape buffer is 8 MiB; after it is freed the heap
    # top holds those 8 MiB, so each later probe is larger than every free
    # chunk before it
    assert probe("""
seen = []
with heap.simulating():
    seen += [is_mapped(8), is_mapped(32)]
    with heap.simulating():             # training evaluates the test set
        seen.append(is_mapped(9))
    seen.append(is_mapped(10))
seen.append(is_mapped(12))
try:
    with heap.simulating():
        raise ValueError
except ValueError:
    seen.append(is_mapped(16))
print(seen)
""") == [False, True, False, False, True, True]


def test_train_and_run_network_are_simulations():
    assert probe("""
import importlib
from spikefirst.data import Dataset
from spikefirst.train import TrainConfig, train
train_mod = importlib.import_module("spikefirst.train")
real_forward, seen = train_mod.net_forward, []

def forward(*args, **kwargs):
    seen.append(is_mapped(8))
    return real_forward(*args, **kwargs)

train_mod.net_forward = forward
rng = np.random.default_rng(0)
ds = Dataset(images=rng.uniform(0, 1, size=(20, 1, 28, 28)), labels=np.arange(20) % 10)
ckpt, _ = train(TrainConfig(model_kind="D-F-BPTT", arch="mlp2", epochs=1,
                            batch_size=20, horizon=4, hidden=24, seed=0), ds)
seen.append(is_mapped(12))
inference = importlib.import_module("spikefirst.inference")
real_step = inference.step

def step(*args, **kwargs):
    seen.append(is_mapped(14))
    return real_step(*args, **kwargs)

inference.step = step
inference.run_network(ckpt.spec, ckpt.params, ds.images[:2], horizon=1)
seen.append(is_mapped(16))
print(seen)
""") == [False, True, False, True]
