"""Counter-based stream reproducibility and independence properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefirst.errors import ParameterError
from spikefirst.rng import RngStream, rng_gaussian, rng_uniform


def test_same_state_same_draws():
    a = rng_uniform(RngStream(7, 3), (100,))
    b = rng_uniform(RngStream(7, 3), (100,))
    assert np.array_equal(a, b)


def test_counter_advances_and_changes_output():
    s = RngStream(7, 3)
    first = rng_uniform(s, (10,))
    assert s.counter == 1
    second = rng_uniform(s, (10,))
    assert not np.array_equal(first, second)


def test_replay_from_saved_state():
    s = RngStream(1, 2)
    rng_uniform(s, (5,))
    saved = s.state()
    a = rng_uniform(s, (5,))
    b = rng_uniform(RngStream.from_state(saved), (5,))
    assert np.array_equal(a, b)


def test_draw_independent_of_earlier_shapes():
    # the counter jump isolates calls: call 2 sees the same block whether
    # call 1 drew 3 values or 3 million
    s1 = RngStream(9, 0)
    rng_uniform(s1, (3,))
    a = rng_uniform(s1, (8,))
    s2 = RngStream(9, 0)
    rng_uniform(s2, (100000,))
    b = rng_uniform(s2, (8,))
    assert np.array_equal(a, b)


@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_distinct_stream_ids_differ(seed, id_a, id_b):
    if id_a == id_b:
        return
    a = rng_uniform(RngStream(seed, id_a), (16,))
    b = rng_uniform(RngStream(seed, id_b), (16,))
    assert not np.array_equal(a, b)


def test_split_shares_seed_fresh_counter():
    s = RngStream(5, 1, counter=10)
    child = s.split(42)
    assert child.seed == 5 and child.stream_id == 42 and child.counter == 0


def test_uniform_range_and_rough_mean():
    x = rng_uniform(RngStream(0, 0), (200000,))
    assert x.min() >= 0.0 and x.max() < 1.0
    assert abs(x.mean() - 0.5) < 0.01


def test_gaussian_moments():
    x = rng_gaussian(RngStream(0, 1), (200000,), mean=2.0, std=3.0)
    assert abs(x.mean() - 2.0) < 0.05
    assert abs(x.std() - 3.0) < 0.05


def test_gaussian_zero_std_is_constant_but_advances():
    s = RngStream(0, 2)
    x = rng_gaussian(s, (10,), mean=1.5, std=0.0)
    assert np.array_equal(x, np.full(10, 1.5))
    assert s.counter == 1


def test_gaussian_negative_std_rejected():
    with pytest.raises(ParameterError):
        rng_gaussian(RngStream(0, 0), (3,), std=-1.0)


def _philox_at(state) -> np.random.Generator:
    """Reference: a new Philox keyed (seed << 64) | stream_id, advanced by
    counter << 64 blocks."""
    seed, stream_id, counter = state
    return np.random.Generator(np.random.Philox(key=(seed << 64) | stream_id)
                               .advance(counter << 64))


def test_reused_stream_equals_fresh_streams():
    # a stream rewinds one generator before every draw: interleaved draws of
    # varied shapes and kinds equal draws from a fresh stream at each state,
    # and the reference Philox construction
    s = RngStream(2**64 - 3, 2**63 + 5, counter=2**64 - 2)
    shapes = [(), (1,), (7,), (3, 5), (100003,), (2, 1, 4)]
    for i in range(24):
        shape = shapes[i % len(shapes)]
        saved = s.state()
        if i % 3 == 2:
            a = rng_gaussian(s, shape, mean=0.5, std=2.0)
            b = rng_gaussian(RngStream.from_state(saved), shape, mean=0.5, std=2.0)
            ref = _philox_at(saved).normal(0.5, 2.0, size=shape)
        else:
            a = rng_uniform(s, shape)
            b = rng_uniform(RngStream.from_state(saved), shape)
            ref = _philox_at(saved).random(size=shape)
        assert a.shape == shape, i
        assert np.array_equal(a, b) and np.array_equal(a, ref), i
    assert s.counter == (2**64 - 2 + 24) & (2**64 - 1)
