"""Oracles that the benchmark's correctness checks compare the program against.

Each function takes plain arrays, so the rules are testable without running
a network.  The tie and timeout rules are those documented in
``spikefirst.inference``: among output neurons first firing at the same
step the highest membrane potential wins, lowest index on exact ties; a
sample with no output spike within the horizon predicts the argmax of its
accumulated output potential and reports the horizon as its latency.
"""

from __future__ import annotations

import hashlib

import numpy as np


def fts_from_full_horizon(first_times: np.ndarray, v: np.ndarray):
    """Early-exit predictions and latencies implied by a full-horizon run.

    ``first_times`` is (N, n) first-spike steps with the silent sentinel
    T + 1 (as ``neurons.first_spike_times`` gives them); ``v`` is the
    (T, N, n) output membrane potential.  Returns (predictions, latencies).
    """
    horizon, n = v.shape[0], v.shape[1]
    first = first_times.min(axis=1)
    fired = first <= horizon
    step = np.minimum(first, horizon).astype(np.int64) - 1
    v_at = v[step, np.arange(n)]
    winners = np.where(first_times == first[:, None], v_at, -np.inf).argmax(axis=1)
    acc = np.zeros(v.shape[1:])
    for t in range(horizon):            # sequential, as early-exit inference sums it
        acc += v[t]
    predictions = np.where(fired, winners, acc.argmax(axis=1))
    latencies = np.where(fired, first, float(horizon))
    return predictions, latencies


def rate_from_full_horizon(spikes: np.ndarray) -> np.ndarray:
    """Rate-coded predictions: argmax of (T, N, n) output spike counts."""
    return spikes.sum(axis=0).argmax(axis=1)


def non_increasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def latency_in_band(mean_latency: float, band) -> bool:
    lo, hi = band
    return bool(lo <= mean_latency <= hi)


def digest(*arrays) -> str:
    """SHA-256 over the raw bytes of each array, in order, with its dtype and shape."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()
