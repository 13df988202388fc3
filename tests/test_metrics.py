"""Energy-cost arithmetic, op counting, evaluation report, noise sweep."""

import numpy as np
import pytest

from spikefirst.checkpoint import Checkpoint
from spikefirst.data import Dataset
from spikefirst.errors import ParameterError
from spikefirst.metrics import energy_cost, evaluate, network_op_counts, noise_sweep
from spikefirst.network import build, init_params
from spikefirst import inference, metrics
from spikefirst.rng import RngStream, rng_gaussian


def test_energy_cost_toy_example_exact():
    # two weighted layers with OP = [12, 6], feeding rates [0.5, 0.25], T = 4:
    # E = 0.5*4*12/18 + 0.25*4*6/18 = 5/3
    e = energy_cost([0.5, 0.25], horizon=4, layer_op_counts=[12, 6])
    assert e == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert f"{e:.4f}" == "1.6667"


def test_energy_cost_validates():
    with pytest.raises(ParameterError):
        energy_cost([0.5], 4, [12, 6])
    with pytest.raises(ParameterError):
        energy_cost([0.5], 4, [0])


def test_energy_scales_linearly_with_rate_and_horizon():
    base = energy_cost([0.2, 0.2], 10, [5, 5])
    assert energy_cost([0.4, 0.4], 10, [5, 5]) == pytest.approx(2 * base)
    assert energy_cost([0.2, 0.2], 20, [5, 5]) == pytest.approx(2 * base)


def test_network_op_counts_mlp():
    spec = build("mlp2", "D-F-BPTT")
    ops = network_op_counts(spec, (28, 28))
    assert ops == [784 * 800, 800 * 10]
    # the hidden layer dominates the ANN compute on this architecture
    w = np.array(ops) / sum(ops)
    assert w[0] == pytest.approx(0.9874, abs=1e-4)


def test_network_op_counts_lenet_tracks_spatial_dims():
    spec = build("lenet5", "D-F-BPTT")
    ops = network_op_counts(spec, (28, 28))
    assert ops == [1 * 25 * 6 * 28 * 28,        # conv1 with pad 2 keeps 28x28
                   6 * 25 * 16 * 10 * 10,       # after pooling to 14, conv to 10
                   400 * 120, 120 * 84, 84 * 10]


def test_network_op_counts_vgg15():
    spec = build("vgg15", "D-F-BPTT")
    ops = network_op_counts(spec, (32, 32))
    # 3x3 convs with pad 1 keep the size; each channel block ends in a 2x2 pool
    convs = [(3, 64, 32), (64, 64, 32), (64, 128, 16), (128, 128, 16),
             (128, 256, 8), (256, 256, 8), (256, 256, 8),
             (256, 512, 4), (512, 512, 4), (512, 512, 4),
             (512, 512, 2), (512, 512, 2), (512, 512, 2)]
    assert ops == [c_in * 9 * c_out * hw * hw for c_in, c_out, hw in convs] + [
        512 * 512, 512 * 10]


def random_checkpoint(kind="D-F-BPTT", hidden=16, horizon=6, seed=0):
    spec = build("mlp2", kind, {"hidden": hidden, "horizon": horizon})
    params = init_params(spec, RngStream(seed, 1))
    # inflate weights so deterministic neurons actually fire on [0,1] inputs
    params = {k: v * 8.0 for k, v in params.items()}
    return Checkpoint(spec=spec, params=params, seed=seed)


def random_dataset(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(images=rng.uniform(0, 1, size=(n, 1, 28, 28)),
                   labels=rng.integers(0, 10, size=n).astype(np.int64))


def test_evaluate_report_fields():
    ckpt = random_checkpoint()
    ds = random_dataset()
    rep = evaluate(ckpt, ds)
    assert rep.n_samples == 64
    assert 0.0 <= rep.accuracy <= 1.0
    assert 1.0 <= rep.mean_latency <= ckpt.spec.horizon
    assert len(rep.layer_rates) == 3               # input + two neuron layers
    assert all(0.0 <= r for r in rep.layer_rates)
    assert all(r <= 1.0 for r in rep.layer_rates[1:])
    assert rep.energy_cost > 0.0


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(ParameterError):
        evaluate(random_checkpoint(), random_dataset(0))


def test_evaluate_deterministic():
    ckpt = random_checkpoint("S-F-BPTT")
    ds = random_dataset()
    a = evaluate(ckpt, ds)
    b = evaluate(ckpt, ds)
    assert a == b


def test_noise_sweep_zero_variance_equals_clean():
    ckpt = random_checkpoint()
    ds = random_dataset()
    clean = evaluate(ckpt, ds).accuracy
    rows = noise_sweep(ckpt, ds, [0.0, 0.5])
    assert rows[0] == (0.0, clean)


def test_noise_sweep_deterministic_and_validated():
    ckpt = random_checkpoint()
    ds = random_dataset()
    a = noise_sweep(ckpt, ds, [0.0, 0.25, 1.0])
    b = noise_sweep(ckpt, ds, [0.0, 0.25, 1.0])
    assert a == b
    with pytest.raises(ParameterError):
        noise_sweep(ckpt, ds, [-0.1])


@pytest.mark.parametrize("variance", [float("nan"), float("inf"), -float("inf")])
def test_noise_sweep_rejects_non_finite_variance(variance):
    # nan used to return an accuracy row; inf ran the network on NaN drives
    with pytest.raises(ParameterError, match="variance"):
        noise_sweep(random_checkpoint(), random_dataset(), [0.0, variance])


def record_noise(monkeypatch) -> list:
    """Record (std, values) of every input-noise draw of ``run_network``."""
    draws = []

    def draw(stream, shape, *args, **kwargs):
        out = rng_gaussian(stream, shape, *args, **kwargs)
        draws.append((args[-1], out))       # the std is passed last
        return out

    monkeypatch.setattr(inference, "rng_gaussian", draw)
    return draws


def test_noise_sweep_row_does_not_depend_on_other_variances(monkeypatch):
    runs = []

    def run_network(*args, **kwargs):
        runs.append(inference.run_network(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(metrics, "run_network", run_network)
    ckpt, ds = random_checkpoint(), random_dataset(300)
    both = noise_sweep(ckpt, ds, [0.1, 0.5], seed=1)
    alone = noise_sweep(ckpt, ds, [0.5], seed=1)
    assert both[1] == alone[0]
    assert np.array_equal(runs[1].predictions, runs[2].predictions)
    assert np.array_equal(runs[1].latencies, runs[2].latencies)


def test_noise_sweep_scales_one_noise_set_per_seed(monkeypatch):
    # sweeps at neighbouring seeds draw independent noise: variance index 1
    # at seed 1 does not draw the noise of variance index 0 at seed 2
    ckpt, ds = random_checkpoint(), random_dataset(300)
    draws = record_noise(monkeypatch)
    noise_sweep(ckpt, ds, [0.1, 0.5], seed=1)
    first = {std: out for std, out in draws[::-1]}      # each std's step-1 draw
    draws.clear()
    noise_sweep(ckpt, ds, [0.5], seed=2)
    assert not np.array_equal(first[np.sqrt(0.5)], draws[0][1])
    # within a sweep every variance scales the same standard normals
    assert np.allclose(first[np.sqrt(0.1)] / np.sqrt(0.1),
                       first[np.sqrt(0.5)] / np.sqrt(0.5), rtol=1e-14, atol=0)


def test_noise_sweep_rate_model_uses_rate_mode():
    ckpt = random_checkpoint("D-R-BPTT")
    rows = noise_sweep(ckpt, random_dataset(16), [0.0])
    assert len(rows) == 1

