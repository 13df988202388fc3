"""Counter-based random number streams.

Streams are built on the Philox counter-based generator, so a draw is a pure
function of ``(seed, stream_id, counter)``: replaying the same state yields the
same values on every platform, and distinct ``stream_id`` values give
statistically independent sequences.  This is what keeps stochastic-neuron runs
reproducible regardless of batch iteration order or worker scheduling.

A uniform draw is keyed per call.  Gaussian draws are keyed per row only
(``rng_gaussian(..., rows=ids)``): row i comes from its own block, a pure
function of (seed, stream_id, counter, ids[i]), so it does not depend on
which other rows are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError

_MASK64 = (1 << 64) - 1


@dataclass
class RngStream:
    """A splittable random stream identified by (seed, stream_id, counter).

    Each sampling call jumps the underlying Philox counter to a block that is
    a pure function of the three fields, draws, and increments ``counter`` by
    one.  Calls therefore never overlap and are individually replayable.
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


def rng_uniform(stream: RngStream, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform [0, 1) draws; advances the stream's counter by one call.

    ``out``, a C-contiguous float64 array of ``shape``, receives the draws
    in place of a new array: the same values at the same counter.
    """
    shape = tuple(shape)
    if out is not None and not (out.shape == shape and out.dtype == np.float64
                                and out.flags.c_contiguous and out.flags.writeable):
        raise ShapeError(f"uniform draws of shape {shape} need a writable C-contiguous "
                         f"float64 buffer of that shape, got {out.dtype} {out.shape}")
    g = stream._generator()
    if out is None:
        out = g.random(size=shape, dtype=np.float64)
    else:
        g.random(out=out)
    stream.counter = (stream.counter + 1) & _MASK64
    return out


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
    if not shape or len(rows) != shape[0]:
        raise ParameterError(f"need one row id per leading entry of {shape}, "
                             f"got {len(rows)}")
    out = np.empty(shape)
    flat = out.reshape(len(rows), math.prod(shape[1:]))
    for gen, values in zip(stream._row_generators(rows), flat):
        gen.standard_normal(out=values)
    out *= std
    stream.counter = (stream.counter + 1) & _MASK64
    return out
