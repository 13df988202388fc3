"""Dense primitives against naive reference implementations and finite differences."""

import numpy as np
import pytest

from spikefirst.data import encode_direct
from spikefirst.errors import ParameterError, ShapeError
from spikefirst.tensor import (_run_samples, conv2d, conv2d_backward, linear, linear_backward,
                               pool2d, pool2d_backward)


def naive_conv2d(x, k, stride=1, pad=0):
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, co, oh, ow))
    for b in range(n):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    patch = x[b, :, i * stride : i * stride + kh,
                              j * stride : j * stride + kw]
                    out[b, o, i, j] = (patch * k[o]).sum()
    return out


def fd_grad(fn, arr, eps=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + eps
        lp = fn()
        arr[idx] = orig - eps
        lm = fn()
        arr[idx] = orig
        g[idx] = (lp - lm) / (2 * eps)
    return g


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 1), (3, 0)])
def test_conv2d_matches_naive(stride, pad):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 9, 9))
    k = rng.normal(size=(4, 3, 3, 3))
    assert np.allclose(conv2d(x, k, stride, pad), naive_conv2d(x, k, stride, pad),
                       atol=1e-12)


def test_conv2d_shape_errors():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 3, 8, 8))
    with pytest.raises(ShapeError):
        conv2d(x, rng.normal(size=(4, 2, 3, 3)))        # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, rng.normal(size=(4, 3, 3, 3)), stride=3)  # non-integral output
    with pytest.raises(ShapeError):
        conv2d(x[0], rng.normal(size=(4, 3, 3, 3)))      # a sample, not a batch
    with pytest.raises(ShapeError):
        pool2d(x[0], 2)


def test_conv2d_backward_finite_difference():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 7, 7))
    k = rng.normal(size=(4, 3, 3, 3))
    gout = rng.normal(size=conv2d(x, k, 2, 1).shape)
    gi, gk = conv2d_backward(gout, x, k, 2, 1)

    loss = lambda: float((conv2d(x, k, 2, 1) * gout).sum())  # noqa: E731
    assert np.allclose(fd_grad(loss, x), gi, atol=1e-6)
    assert np.allclose(fd_grad(loss, k), gk, atol=1e-6)
    none, gk_only = conv2d_backward(gout, x, k, 2, 1, need_input=False)
    assert none is None and np.array_equal(gk_only, gk)


def naive_conv2d_adjoint(g, x, k, stride, pad):
    """Input and kernel gradients of conv2d, each written as one naive_conv2d.

    The output gradient is dilated by the stride, so the forward pass is a
    full stride-1 correlation sampled on a grid.  The kernel gradient then
    correlates the padded input with it, and the input gradient correlates
    its zero-padded copy with the flipped, channel-transposed kernel.
    """
    n, ci, h, w = x.shape
    co, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gd = np.zeros((n, co, xp.shape[2] - kh + 1, xp.shape[3] - kw + 1))
    gd[:, :, ::stride, ::stride] = g
    grad_k = naive_conv2d(xp.transpose(1, 0, 2, 3), gd.transpose(1, 0, 2, 3))
    gdp = np.pad(gd, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    grad_xp = naive_conv2d(gdp, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return grad_xp[:, :, pad : pad + h, pad : pad + w], grad_k.transpose(1, 0, 2, 3)


def test_conv_runs_follow_the_layer_shape():
    # samples per run of im2col columns, (C_I*KH*KW, OH*OW) float64 each,
    # within 2 MiB: lenet5's conv 1 and conv 2, vgg15's first conv and its
    # 64-channel conv at 32x32, whose columns exceed 2 MiB for one sample
    assert _run_samples(1 * 5 * 5, 28 * 28) == 8
    assert _run_samples(6 * 5 * 5, 10 * 10) == 16
    assert _run_samples(3 * 3 * 3, 32 * 32) == 8
    assert _run_samples(64 * 3 * 3, 32 * 32) == 1


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", [
    ((2, 1, 28, 28), (6, 1, 5, 5), 1, 2),     # lenet5 conv 1
    ((2, 6, 14, 14), (16, 6, 5, 5), 1, 0),    # lenet5 conv 2
    ((3, 3, 9, 9), (4, 3, 3, 3), 2, 1),
    ((10, 1, 28, 28), (6, 1, 5, 5), 1, 2),    # runs of 8 and 2 samples
    ((20, 6, 14, 14), (16, 6, 5, 5), 1, 0),   # runs of 16 and 4 samples
])
def test_conv2d_backward_matches_naive_adjoint(x_shape, k_shape, stride, pad):
    rng = np.random.default_rng(7)
    x = rng.normal(size=x_shape)
    k = rng.normal(size=k_shape)
    g = rng.normal(size=conv2d(x, k, stride, pad).shape)
    gi, gk = conv2d_backward(g, x, k, stride, pad)
    want_i, want_k = naive_conv2d_adjoint(g, x, k, stride, pad)
    assert np.allclose(gi, want_i, rtol=1e-12, atol=1e-12)
    assert np.allclose(gk, want_k, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", [
    ((64, 1, 28, 28), (6, 1, 5, 5), 1, 2),
    ((64, 6, 14, 14), (16, 6, 5, 5), 1, 0),
    ((33, 3, 9, 9), (4, 3, 3, 3), 2, 1),
    ((40, 1, 28, 28), (6, 1, 5, 5), 1, 2),    # lenet5 conv 1: five runs of 8
    ((4, 64, 32, 32), (64, 64, 3, 3), 1, 1),  # vgg15 at 32x32: runs of 1
])
@pytest.mark.parametrize("spikes", [False, True])
def test_conv2d_and_pool2d_are_batch_invariant(x_shape, k_shape, stride, pad, spikes):
    # early exit convolves only the samples still active: each sample's
    # result must be bit-equal however many others share its batch, and
    # wherever the batch's runs of samples cut it
    rng = np.random.default_rng(8)
    x = rng.random(x_shape)
    if spikes:
        x = (x < 0.2) * 1.0
    k = rng.normal(size=k_shape)
    full = conv2d(x, k, stride, pad)
    pooled = pool2d(x[..., :8, :8], 2)
    subsets = [np.sort(rng.choice(len(x), m, replace=False))
               for m in (1, 2, 3, 7, 20) if m <= len(x)]
    for idx in subsets + [np.array([len(x) - 1, 0, min(5, len(x) // 2)])]:
        assert np.array_equal(conv2d(x[idx], k, stride, pad), full[idx])
        assert np.array_equal(pool2d(x[idx][..., :8, :8], 2), pooled[idx])
    for i in range(len(x)):
        assert np.array_equal(conv2d(x[i : i + 1], k, stride, pad), full[i : i + 1]), i


def test_kernels_accept_non_contiguous_inputs():
    rng = np.random.default_rng(9)
    images = (rng.random((5, 6, 14, 14)) < 0.3) * 1.0
    k = rng.normal(size=(16, 6, 5, 5))
    g = rng.normal(size=(5, 16, 10, 10))
    views = [encode_direct(images, 4)[0],                 # view of a broadcast
             np.asfortranarray(images),
             rng.random((5, 14, 14, 6)).transpose(0, 3, 1, 2),
             np.broadcast_to(images[2], images.shape)]    # stride-0 batch axis
    for view in views:
        dense = np.ascontiguousarray(view)
        assert np.array_equal(conv2d(view, k, 1, 2), conv2d(dense, k, 1, 2))
        assert np.array_equal(pool2d(view, 2), pool2d(dense, 2))
        for got, want in zip(conv2d_backward(g, view, k), conv2d_backward(g, dense, k)):
            assert np.array_equal(got, want)
        assert np.array_equal(pool2d_backward(np.ones((5, 6, 7, 7)), view, 2),
                              pool2d_backward(np.ones((5, 6, 7, 7)), dense, 2))
    gi, _ = conv2d_backward(np.asfortranarray(g), images, k)
    assert np.array_equal(gi, conv2d_backward(g, images, k)[0])


def test_conv2d_backward_rejects_wrong_grad_shape():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 2, 6, 6))
    k = rng.normal(size=(3, 2, 3, 3))
    with pytest.raises(ShapeError):
        conv2d_backward(np.zeros((1, 3, 5, 5)), x, k, 1, 0)


_X = np.zeros((2, 3, 8, 8))


@pytest.mark.parametrize("call", [
    lambda: conv2d_backward(np.zeros((2, 4, 6, 6)), _X, np.zeros((4, 2, 3, 3))),
    lambda: conv2d_backward(np.zeros((2, 4, 6, 6)), _X, np.zeros((4, 3, 3))),
    lambda: pool2d_backward(np.zeros((2, 3, 3, 3)), _X, 2, "average"),
    lambda: pool2d_backward(np.zeros((2, 3, 3, 3)), _X, 2, "max"),
], ids=["conv-backward-channels", "conv-backward-3d-kernel", "pool-backward-average-grad",
        "pool-backward-max-grad"])
def test_backward_ops_reject_mismatched_shapes_with_shape_error(call):
    # each failed inside numpy, or (average pooling) returned a gradient of
    # another shape than its input's
    with pytest.raises(ShapeError):
        call()


def _linear_case(x_shape, n_out, seed=10):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(n_out, int(np.prod(x_shape[1:]))))
    g = rng.normal(size=(x_shape[0], n_out))
    return x, w, g


_LINEAR_SHAPES = [((5, 7), 3), ((4, 2, 3, 3), 6)]     # a conv map feeds a linear layer


@pytest.mark.parametrize("x_shape,n_out", _LINEAR_SHAPES)
def test_linear_and_backward_match_row_by_row_sums(x_shape, n_out):
    x, w, g = _linear_case(x_shape, n_out)
    flat = x.reshape(len(x), -1)
    rows, feats = flat.shape
    want_out = np.array([[sum(flat[b, i] * w[o, i] for i in range(feats))
                          for o in range(n_out)] for b in range(rows)])
    want_gw = sum(np.outer(g[b], flat[b]) for b in range(rows))
    want_gi = np.array([sum(g[b, o] * w[o] for o in range(n_out)) for b in range(rows)])
    assert np.allclose(linear(x, w), want_out, rtol=1e-12, atol=1e-12)
    gi, gw = linear_backward(g, x, w)
    assert gi.shape == x.shape and gw.shape == w.shape
    assert np.allclose(gi, want_gi.reshape(x.shape), rtol=1e-12, atol=1e-12)
    assert np.allclose(gw, want_gw, rtol=1e-12, atol=1e-12)
    none, gw_only = linear_backward(g, x, w, need_input=False)
    assert none is None and np.array_equal(gw_only, gw)


@pytest.mark.parametrize("x_shape,n_out", _LINEAR_SHAPES)
def test_linear_backward_is_the_adjoint(x_shape, n_out):
    # <linear(x), g> = <x, grad_input> = <w, grad_weight>
    x, w, g = _linear_case(x_shape, n_out, seed=11)
    gi, gw = linear_backward(g, x, w)
    out = float((linear(x, w) * g).sum())
    for other in (float((x * gi).sum()), float((w * gw).sum())):
        assert abs(out - other) <= 1e-12 * max(1.0, abs(out))


def test_linear_of_uint8_spikes_equals_its_float64_cast():
    rng = np.random.default_rng(12)
    spikes = (rng.random((9, 40)) < 0.3).astype(np.uint8)
    wide = spikes.astype(np.float64)
    w = rng.normal(size=(10, 40))
    g = rng.normal(size=(9, 10))
    assert np.array_equal(linear(spikes, w), linear(wide, w))
    for got, want in zip(linear_backward(g, spikes, w), linear_backward(g, wide, w)):
        assert np.array_equal(got, want)


def test_linear_shape_errors():
    x, w, g = _linear_case((5, 7), 3)
    wrong = np.zeros((3, 8))
    with pytest.raises(ShapeError):
        linear(x, wrong)                                 # feature mismatch
    with pytest.raises(ShapeError):
        linear_backward(g, x, wrong)
    with pytest.raises(ShapeError):
        linear_backward(g[:, :2], x, w)                  # grad of another output


def test_pool2d_average_and_max_values():
    x = np.array([[[[1.0, 2.0, 5.0, 0.0],
                    [3.0, 4.0, 1.0, 1.0],
                    [0.0, 0.0, 2.0, 2.0],
                    [0.0, 8.0, 2.0, 2.0]]]])
    avg = pool2d(x, 2, "average")
    mx = pool2d(x, 2, "max")
    assert np.array_equal(avg[0, 0], [[2.5, 1.75], [2.0, 2.0]])
    assert np.array_equal(mx[0, 0], [[4.0, 5.0], [8.0, 2.0]])


def test_pool2d_average_window_3_matches_naive_mean():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 9, 12))
    want = np.zeros((2, 3, 3, 4))
    for r in range(3):
        for c in range(4):
            want[:, :, r, c] = x[:, :, 3 * r : 3 * r + 3, 3 * c : 3 * c + 3].mean(axis=(2, 3))
    assert np.allclose(pool2d(x, 3), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("window", [2, 3])
def test_pool2d_average_of_spikes_equals_tile_mean_bitwise(window):
    rng = np.random.default_rng(11)
    x = (rng.random((4, 6, 12, 12)) < 0.4) * 1.0
    n, c, h, w = x.shape
    tiles = x.reshape(n, c, h // window, window, w // window, window)
    assert np.array_equal(pool2d(x, window), tiles.mean(axis=(3, 5)))


def test_pool2d_validates():
    with pytest.raises(ParameterError):
        pool2d(np.zeros((1, 1, 4, 4)), 2, "median")
    with pytest.raises(ShapeError):
        pool2d(np.zeros((1, 1, 5, 5)), 2)


_MAPS, _GRADS = np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 2, 2))


@pytest.mark.parametrize("call", [
    lambda: pool2d(_MAPS, 2, "foo"),
    lambda: pool2d_backward(_GRADS, _MAPS, 2, "foo"),
    lambda: pool2d(_MAPS, 0),
    lambda: pool2d_backward(_GRADS, _MAPS, 0),
    lambda: pool2d(_MAPS, -2),
    lambda: pool2d_backward(_GRADS, _MAPS, -2),
    lambda: conv2d(_MAPS, np.zeros((1, 1, 3, 3)), stride=0),
    lambda: conv2d_backward(_GRADS, _MAPS, np.zeros((1, 1, 3, 3)), stride=0),
    lambda: conv2d(_MAPS, np.zeros((1, 1, 1, 1)), pad=-1),
    lambda: conv2d_backward(_GRADS, _MAPS, np.zeros((1, 1, 1, 1)), pad=-1),
], ids=["pool-mode", "pool-backward-mode", "pool-window-0", "pool-backward-window-0",
        "pool-window-negative", "pool-backward-window-negative", "conv-stride-0",
        "conv-backward-stride-0", "conv-pad-negative", "conv-backward-pad-negative"])
def test_ops_reject_bad_parameters_with_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("mode", ["average", "max"])
def test_pool2d_backward_finite_difference(mode):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 2, 6, 6))
    gout = rng.normal(size=(2, 2, 3, 3))
    gi = pool2d_backward(gout, x, 2, mode)
    loss = lambda: float((pool2d(x, 2, mode) * gout).sum())  # noqa: E731
    assert np.allclose(fd_grad(loss, x), gi, atol=1e-6)


def test_pool2d_max_backward_ties_first_occurrence():
    # all-equal window: gradient must land on exactly one element (the first)
    x = np.ones((1, 1, 2, 2))
    g = pool2d_backward(np.array([[[[1.0]]]]), x, 2, "max")
    assert g.sum() == 1.0
    assert g[0, 0, 0, 0] == 1.0
