"""Counter-based stream reproducibility and independence properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefirst.errors import ParameterError
from spikefirst.rng import RngStream, rng_gaussian, rng_uniform

import oracles


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
    saved = (s.seed, s.stream_id, s.counter)
    a = rng_uniform(s, (5,))
    b = rng_uniform(RngStream(*saved), (5,))
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
    x = rng_gaussian(RngStream(0, 1), (200, 1000), std=3.0, rows=np.arange(200))
    assert abs(x.mean()) < 0.05
    assert abs(x.std() - 3.0) < 0.05


def test_gaussian_zero_std_is_constant_but_advances():
    s = RngStream(0, 2)
    x = rng_gaussian(s, (2, 5), std=0.0, rows=[0, 1])
    assert np.array_equal(x, np.zeros((2, 5)))
    assert s.counter == 1


def test_gaussian_negative_std_rejected():
    with pytest.raises(ParameterError):
        rng_gaussian(RngStream(0, 0), (3,), std=-1.0, rows=[0, 1, 2])


def _philox_at(state) -> np.random.Generator:
    """Reference: a new Philox keyed (seed << 64) | stream_id, advanced by
    counter << 64 blocks."""
    seed, stream_id, counter = state
    return np.random.Generator(np.random.Philox(key=(seed << 64) | stream_id)
                               .advance(counter << 64))


def test_reused_stream_equals_fresh_streams():
    # a stream rewinds one generator before every draw: interleaved draws of
    # varied shapes and kinds equal draws from a fresh stream at each state,
    # and the reference Philox constructions
    s = RngStream(2**64 - 3, 2**63 + 5, counter=2**64 - 2)
    shapes = [(), (1,), (7,), (3, 5), (100003,), (2, 1, 4)]
    for i in range(24):
        shape = shapes[i % len(shapes)]
        saved = (s.seed, s.stream_id, s.counter)
        if i % 3 == 2:
            rows = list(range(i, i + shape[0]))
            a = rng_gaussian(s, shape, std=2.0, rows=rows)
            b = rng_gaussian(RngStream(*saved), shape, std=2.0, rows=rows)
            ref = np.stack([np.random.Generator(_row_block(*saved, row))
                            .standard_normal(shape[1:]) * 2.0 for row in rows])
        else:
            a = rng_uniform(s, shape)
            b = rng_uniform(RngStream(*saved), shape)
            ref = _philox_at(saved).random(size=shape)
        assert a.shape == shape, i
        assert np.array_equal(a, b) and np.array_equal(a, ref), i
    assert s.counter == (2**64 - 2 + 24) & (2**64 - 1)


# ------------------------------------------------------- keyed Gaussian rows

def _row_block(seed, stream_id, counter, row) -> np.random.Philox:
    """Reference: the Philox block of one keyed row, counter words
    (0, counter, row, 1)."""
    return np.random.Philox(key=(seed << 64) | stream_id,
                            counter=(1 << 192) | (row << 128) | (counter << 64))


def test_keyed_rows_match_reference_blocks():
    s = RngStream(2**64 - 3, 2**63 + 5, counter=7)
    rows = [0, 5, 2**40 + 1, 2**64 - 1]
    x = rng_gaussian(s, (4, 3, 5), std=0.25, rows=rows)
    assert s.counter == 8
    for i, row in enumerate(rows):
        ref = np.random.Generator(_row_block(2**64 - 3, 2**63 + 5, 7, row))
        assert np.array_equal(x[i], ref.standard_normal((3, 5)) * 0.25), i


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=12, unique=True),
       st.integers(0, 2**20), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_keyed_rows_equal_rows_drawn_one_at_a_time(rows, counter, rnd):
    # any subset, in any order: a row depends only on its own id
    rnd.shuffle(rows)
    s = RngStream(11, 4, counter=counter)
    x = rng_gaussian(s, (len(rows), 7), std=0.3, rows=np.array(rows))
    for i, row in enumerate(rows):
        one = rng_gaussian(RngStream(11, 4, counter=counter), (1, 7), std=0.3,
                           rows=[row])
        assert np.array_equal(x[i], one[0]), row


def test_keyed_rows_moments():
    # 200 x 784 = 156800 values: the standard errors of the mean and the
    # std are 7.6e-4 and 5.4e-4, so both bounds sit about 6 errors out
    sigma = 0.3
    x = rng_gaussian(RngStream(3), (200, 784), std=sigma, rows=np.arange(200))
    assert abs(x.mean()) < 0.005
    assert abs(x.std() - sigma) < 0.003


def test_keyed_rows_uncorrelated_across_ids_and_steps():
    # neighbouring sample ids at one step, and one id at consecutive steps;
    # 199 x 784 pairs give a correlation standard error of 2.5e-3
    s = RngStream(3)
    ids = np.arange(1000, 1200)
    a = rng_gaussian(s, (200, 784), rows=ids)
    b = rng_gaussian(s, (200, 784), rows=ids)
    neighbours = np.corrcoef(a[:-1].ravel(), a[1:].ravel())[0, 1]
    steps = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert abs(neighbours) < 0.0125 and abs(steps) < 0.0125


def test_keyed_rows_need_one_id_per_row():
    with pytest.raises(ParameterError):
        rng_gaussian(RngStream(0), (3, 2), rows=[0, 1])
    with pytest.raises(ParameterError):
        rng_gaussian(RngStream(0), (), rows=[0])


# ------------------------------------------------------ keyed uniform rows

@pytest.mark.parametrize("seed,stream_id,counter", [
    (0, 0, 0), (7, 3, 1), (2**64 - 3, 2**63 + 5, 2**64 - 1), (99, 2**33 + 5, 20),
])
def test_keyed_uniforms_match_scalar_reference(seed, stream_id, counter):
    # row ids past 2**32 and 2**63, and an odd row width: the last word's
    # high half is drawn and dropped
    rows = np.array([0, 1, 5, 2**32 + 1, 2**40 + 3, 2**63 + 7, 2**64 - 1], dtype=np.uint64)
    s = RngStream(seed, stream_id, counter=counter)
    x = rng_uniform(s, (len(rows), 3, 5), rows=rows)
    assert s.counter == (counter + 1) & (2**64 - 1)
    flat = x.reshape(len(rows), 15)
    for i, row in enumerate(rows.tolist()):
        for col in range(15):
            want = oracles.keyed_uniform(seed, stream_id, counter, row, col)
            assert flat[i, col] == want, (row, col)


@given(st.lists(st.integers(0, 2**40), min_size=1, max_size=12, unique=True),
       st.integers(0, 2**20), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_keyed_uniform_rows_equal_rows_drawn_one_at_a_time(rows, counter, rnd):
    # any subset, in any order: a row depends only on its own id
    rnd.shuffle(rows)
    x = rng_uniform(RngStream(11, 4, counter=counter), (len(rows), 2, 3), rows=np.array(rows))
    for i, row in enumerate(rows):
        one = rng_uniform(RngStream(11, 4, counter=counter), (1, 2, 3), rows=[row])
        assert np.array_equal(x[i], one[0]), row


def test_keyed_uniform_moments():
    # 256 x 800 = 204800 values: the standard errors of the mean and the
    # variance (1/12) are 6.4e-4 and 1.9e-4, so both bounds sit about 6
    # errors out; no value leaves [0, 1), and the deciles fill evenly
    x = rng_uniform(RngStream(3, 1), (256, 800), rows=np.arange(256))
    assert x.min() >= 0.0 and x.max() < 1.0
    assert abs(x.mean() - 0.5) < 0.004
    assert abs(x.var() - 1 / 12) < 0.0012
    counts = np.bincount((x * 10).astype(int).ravel(), minlength=10)
    assert np.abs(counts / x.size - 0.1).max() < 0.004


def test_keyed_uniforms_uncorrelated_across_rows_columns_steps_and_layers():
    # neighbouring sample ids and neurons at one step, one id at consecutive
    # steps, and two layers' streams: 255 x 800 pairs give a correlation
    # standard error of 2.2e-3
    ids = np.arange(5000, 5256)

    def draw(layer, counter):
        return rng_uniform(RngStream(9, layer, counter=counter), (256, 800), rows=ids)

    a = draw(0, 1)
    pairs = {"rows": (a[:-1], a[1:]), "columns": (a[:, :-1], a[:, 1:]),
             "steps": (a, draw(0, 2)), "layers": (a, draw(1, 1))}
    for what, (x, y) in pairs.items():
        assert abs(np.corrcoef(x.ravel(), y.ravel())[0, 1]) < 0.011, what


def test_keyed_rows_are_far_apart_on_the_weyl_counter():
    # row r's words start rows * _ROW_STEP after row 0's, so two rows share
    # a word only if their distance times _ROW_STEP is a small multiple of
    # the increment: for rows under 2**20 apart it is over 2**40 increments
    from spikefirst.rng import _GAMMA, _ROW_STEP
    steps = np.arange(1, 1 << 20, dtype=np.uint64) * np.uint64(
        _ROW_STEP * pow(_GAMMA, -1, 1 << 64) % (1 << 64))
    assert np.minimum(steps, -steps).min() > 1 << 40


def test_keyed_uniforms_need_one_id_per_row():
    with pytest.raises(ParameterError):
        rng_uniform(RngStream(0), (3, 2), rows=[0, 1])
    with pytest.raises(ParameterError):
        rng_uniform(RngStream(0), (), rows=[0])


def test_inference_noise_never_meets_bernoulli_streams(monkeypatch):
    # With noise_seed == seed the noise stream and the first Bernoulli stream
    # share (seed, stream_id), yet they never meet: the noise is Philox and
    # the Bernoulli draws the SplitMix64 hash, and every draw of each kind
    # equals its own reference, keyed by the sample's index in the dataset
    from spikefirst import inference, neurons
    from spikefirst.network import LayerSpec, NetworkSpec

    calls = []

    def recording(kind, fn):
        def draw(stream, shape, *args, **kwargs):
            state = (stream.seed, stream.stream_id, stream.counter)
            out = fn(stream, shape, *args, **kwargs)
            calls.append((kind, state, np.asarray(kwargs["rows"]), out.copy()))
            return out
        return draw

    monkeypatch.setattr(neurons, "rng_uniform", recording("uniform", neurons.rng_uniform))
    monkeypatch.setattr(inference, "rng_gaussian",
                        recording("gaussian", inference.rng_gaussian))
    layers = [LayerSpec(kind="linear", in_features=20, out_features=16, leak=0.7, k=1.0),
              LayerSpec(kind="linear", in_features=16, out_features=10, leak=0.7, k=1.0)]
    spec = NetworkSpec(layers=layers, horizon=6, model_kind="S-F-BPTT", arch="mlp2")
    rng = np.random.default_rng(2)
    params = {"layer0.w": rng.normal(size=(16, 20)) * 0.3,
              "layer1.w": rng.normal(size=(10, 16)) * 0.3}
    seed, std = 5, 0.2
    # rate mode keeps every sample for the whole horizon, in batches of 16
    monkeypatch.setattr(inference, "batch_rows", lambda spec, input_hw: 16)
    inference.run_network(spec, params, rng.uniform(size=(40, 20)), mode="rate",
                          seed=seed, input_noise_std=std, noise_seed=seed)

    keys = {kind: {state[:2] for k, state, _, _ in calls if k == kind}
            for kind in ("uniform", "gaussian")}
    assert keys["uniform"] & keys["gaussian"]
    drawn = {"uniform": set(), "gaussian": set()}
    for kind, state, rows, out in calls:
        assert state[0] == seed
        for row, values in zip(rows.tolist(), out.reshape(len(rows), -1)):
            drawn[kind].add((state[1:], row))
            if kind == "uniform":
                want = [oracles.keyed_uniform(*state, row, col) for col in range(values.size)]
            else:
                want = np.random.Generator(_row_block(*state, row)).standard_normal(
                    values.size) * std
            assert np.array_equal(values, want), (kind, state, row)
    # each sample drew once per step: 16 + 10 Bernoulli values in two layers
    # and 20 noise values
    assert len(drawn["uniform"]) == 40 * 2 * 6 and len(drawn["gaussian"]) == 40 * 6
    assert sum(out.size for kind, *_, out in calls if kind == "uniform") == 40 * 26 * 6
