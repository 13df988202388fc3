"""Counter-based random number streams.

Streams are built on the Philox counter-based generator, so a draw is a pure
function of ``(seed, stream_id, counter)``: replaying the same state yields the
same values on every platform, and distinct ``stream_id`` values give
statistically independent sequences.  This is what keeps stochastic-neuron runs
reproducible regardless of batch iteration order or worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

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

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(0))
            # an empty output buffer (buffer_pos 4): nothing carries over
            # from one draw to the next
            self._state = self._gen.bit_generator.state
        # Key (seed << 64) | stream_id, counter advanced by counter << 64 from
        # zero: one jump of 2**64 Philox blocks per past call keeps calls
        # disjoint no matter how many values a single call consumes.
        philox = self._state["state"]
        philox["key"][:] = (self.stream_id, self.seed)
        philox["counter"][:] = (0, self.counter, 0, 0)
        self._gen.bit_generator.state = self._state
        return self._gen

    def split(self, stream_id: int) -> "RngStream":
        """Derive an independent stream sharing this stream's seed."""
        return RngStream(self.seed, stream_id=stream_id, counter=0)

    def state(self) -> tuple[int, int, int]:
        return (self.seed, self.stream_id, self.counter)

    @classmethod
    def from_state(cls, state) -> "RngStream":
        seed, stream_id, counter = state
        return cls(seed, stream_id, counter)


def rng_uniform(stream: RngStream, shape) -> np.ndarray:
    """Uniform [0, 1) draws; advances the stream's counter by one call."""
    g = stream._generator()
    out = g.random(size=tuple(shape), dtype=np.float64)
    stream.counter = (stream.counter + 1) & _MASK64
    return out


def rng_gaussian(stream: RngStream, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """Gaussian draws via the ziggurat transform of uniform words.

    ``std`` must be non-negative; ``std == 0`` returns an all-``mean`` tensor.
    """
    if std < 0:
        raise ParameterError(f"std must be >= 0, got {std}")
    if std == 0:
        # Still burn a call so the counter advances uniformly.
        stream.counter = (stream.counter + 1) & _MASK64
        return np.full(tuple(shape), float(mean), dtype=np.float64)
    g = stream._generator()
    out = g.normal(loc=mean, scale=std, size=tuple(shape))
    stream.counter = (stream.counter + 1) & _MASK64
    return out
