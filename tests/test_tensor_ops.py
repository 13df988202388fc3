"""Dense primitives against naive reference implementations and finite differences."""

import numpy as np
import pytest

from spikefirst.data import encode_direct
from spikefirst.errors import ShapeError
from spikefirst.tensor import conv2d, conv2d_backward, pool2d, pool2d_backward


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


@pytest.mark.parametrize("x_shape,k_shape,stride,pad", [
    ((2, 1, 28, 28), (6, 1, 5, 5), 1, 2),     # lenet5 conv 1
    ((2, 6, 14, 14), (16, 6, 5, 5), 1, 0),    # lenet5 conv 2
    ((3, 3, 9, 9), (4, 3, 3, 3), 2, 1),
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
])
@pytest.mark.parametrize("spikes", [False, True])
def test_conv2d_and_pool2d_are_batch_invariant(x_shape, k_shape, stride, pad, spikes):
    # early exit convolves only the samples still active: each sample's
    # result must be bit-equal however many others share its batch
    rng = np.random.default_rng(8)
    x = rng.random(x_shape)
    if spikes:
        x = (x < 0.2) * 1.0
    k = rng.normal(size=k_shape)
    full = conv2d(x, k, stride, pad)
    pooled = pool2d(x[..., :8, :8], 2)
    subsets = [np.sort(rng.choice(len(x), m, replace=False)) for m in (1, 2, 3, 7, 20)]
    for idx in subsets + [np.array([len(x) - 1, 0, 5])]:
        assert np.array_equal(conv2d(x[idx], k, stride, pad), full[idx])
        assert np.array_equal(pool2d(x[idx][..., :8, :8], 2), pooled[idx])


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
    with pytest.raises(ValueError):
        pool2d(np.zeros((1, 1, 4, 4)), 2, "median")
    with pytest.raises(ShapeError):
        pool2d(np.zeros((1, 1, 5, 5)), 2)


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
