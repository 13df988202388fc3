"""Counter-based random number streams.

A draw is a pure function of its stream's ``(seed, stream_id, counter)``:
replaying a state gives the same values on every platform, and distinct
``stream_id`` values give independent sequences.  Plain uniforms (init,
shuffles, DE) are Philox, keyed per call.  Keyed draws (``rows=ids``) make
row i a pure function of the state and ids[i], whatever the other rows:
Gaussian rows (input noise) come from a Philox block per id, uniform rows
(Bernoulli draws) from SplitMix64's finaliser over a Weyl counter (Steele,
Lea & Flood, OOPSLA 2014).  No draw depends on a sample's batch or block,
so a run is a pure function of (config, seed, dataset, numpy and BLAS
build, BLAS thread count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
# SplitMix64's Weyl increment and finaliser multipliers, and the Weyl step
# between keyed rows: rows under 2**20 apart are over 2**40 increments apart
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_ROW_STEP = 0xDB4F0B9175AE2165


@dataclass
class RngStream:
    """A splittable random stream identified by (seed, stream_id, counter).

    Each sampling call draws from a Philox block or a hash key that is a
    pure function of the three fields, and increments ``counter`` by one.
    Calls therefore never overlap and are individually replayable.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0
    # One Philox generator per stream and the state dict that rewinds it:
    # building a fresh generator for every draw costs several times more.
    _gen: np.random.Generator | None = field(default=None, init=False,
                                             repr=False, compare=False)
    _state: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seed = int(self.seed) & _MASK64
        self.stream_id = int(self.stream_id) & _MASK64
        self.counter = int(self.counter) & _MASK64

    def _generator(self, keyed_rows: bool = False) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(0))
            # an empty output buffer (buffer_pos 4): nothing carries over
            # from one draw to the next
            self._state = self._gen.bit_generator.state
        # Key (seed << 64) | stream_id, counter advanced by counter << 64 from
        # zero: one jump of 2**64 Philox blocks per past call keeps calls
        # disjoint no matter how many values a single call consumes.  Keyed
        # rows tag counter word 3 with 1 and put the row id in word 2, so row
        # blocks never meet each other nor any uniform draw, which leaves
        # words 2 and 3 at 0, whatever the key.
        philox = self._state["state"]
        philox["key"][:] = (self.stream_id, self.seed)
        philox["counter"][:] = (0, self.counter, 0, int(keyed_rows))
        self._gen.bit_generator.state = self._state
        return self._gen

    def _row_generators(self, rows):
        """Yield the generator rewound to each row id's block in turn."""
        gen = self._generator(keyed_rows=True)
        counter = self._state["state"]["counter"]
        for row in rows:
            counter[2] = int(row) & _MASK64
            gen.bit_generator.state = self._state
            yield gen

    def split(self, stream_id: int) -> "RngStream":
        """Derive an independent stream sharing this stream's seed."""
        return RngStream(self.seed, stream_id=stream_id, counter=0)


def _mix64(z):
    """SplitMix64's finaliser of a Python int, or in place of a uint64 array."""
    if isinstance(z, int):
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z = (z ^ z >> shift) * mult & _MASK64
        return z ^ z >> 31
    tmp = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mult
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def rng_uniform(stream: RngStream, shape, *, rows=None) -> np.ndarray:
    """Uniform [0, 1) draws, a new float64 array of ``shape``; advances the
    stream's counter by one call.

    Without ``rows`` the draws are Philox's.  With ``rows``, one integer id
    per entry of ``shape[0]``, entry j of row i is the low (j even) or high
    32 bits of word j // 2 over 2**32.  Word w finalises the stream key plus
    rows[i] row steps and w + 1 Weyl increments; the stream key absorbs
    seed, stream_id and counter, each plus one increment and finalised.
    """
    shape = tuple(shape)
    out = np.empty(shape)
    if rows is None:
        stream._generator().random(out=out)
    else:
        n, m = _row_count(shape, rows), math.prod(shape[1:])
        key = 0
        for word in (stream.seed, stream.stream_id, stream.counter):
            key = _mix64((key + word + _GAMMA) & _MASK64)
        weyl = np.arange(1, (m + 3) // 2, dtype=np.uint64) * _GAMMA + key
        words = _mix64(np.add.outer(np.asarray(rows, dtype=np.uint64) * _ROW_STEP, weyl))
        halves = words.astype("<u8", copy=False).view("<u4")[:, :m]
        np.multiply(halves, 2.0 ** -32, out=out.reshape(n, m))
    stream.counter = (stream.counter + 1) & _MASK64
    return out


def _row_count(shape: tuple, rows) -> int:
    if not shape or len(rows) != shape[0]:
        raise ParameterError(f"need one row id per leading entry of {shape}, "
                             f"got {len(rows)}")
    return shape[0]


def rng_gaussian(stream: RngStream, shape, std: float = 1.0, *, rows) -> np.ndarray:
    """Zero-mean Gaussian draws with non-negative ``std``, keyed per row.

    ``rows`` holds one integer id per entry of ``shape[0]``: ``out[i]`` is
    drawn (ziggurat) from the block keyed by ``rows[i]`` at this call's
    counter, so equal ids give equal rows, whatever the other ids and their
    order.  The counter advances by one call.
    """
    if std < 0:
        raise ParameterError(f"std must be >= 0, got {std}")
    shape = tuple(shape)
    out = np.empty(shape)
    flat = out.reshape(_row_count(shape, rows), math.prod(shape[1:]))
    for gen, values in zip(stream._row_generators(rows), flat):
        gen.standard_normal(out=values)
    out *= std
    stream.counter = (stream.counter + 1) & _MASK64
    return out
