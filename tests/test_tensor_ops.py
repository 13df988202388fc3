"""Dense primitives against naive reference implementations and finite differences."""

import numpy as np
import pytest

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


def test_conv2d_single_sample_layout():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 8, 8))
    k = rng.normal(size=(5, 3, 3, 3))
    single = conv2d(x, k, 1, 1)
    batched = conv2d(x[None], k, 1, 1)
    assert single.shape == batched.shape[1:]
    assert np.array_equal(single, batched[0])


def test_conv2d_shape_errors():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 3, 8, 8))
    with pytest.raises(ShapeError):
        conv2d(x, rng.normal(size=(4, 2, 3, 3)))        # channel mismatch
    with pytest.raises(ShapeError):
        conv2d(x, rng.normal(size=(4, 3, 3, 3)), stride=3)  # non-integral output


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
