"""Dense tensor primitives: matmul, 2-D convolution/pooling and their gradients.

All values are 64-bit floats.  Operations are pure and use fixed accumulation
orders (BLAS matmul with a fixed loop structure), so repeated runs on the same
machine are bit-identical.

Convolution uses the cross-correlation convention (no kernel flip) with zero
padding.  ``conv2d``/``pool2d`` accept either a single sample ``(C, H, W)`` or
a batch ``(N, C, H, W)``; gradients mirror the forward layout.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def tensor(data) -> np.ndarray:
    """Build a float64 tensor from external data, rejecting NaN/Inf."""
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor data must be finite (NaN/Inf rejected)")
    return arr


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a (m, k) and b (k, n)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    num = size + 2 * pad - k
    if num < 0 or num % stride != 0:
        raise ShapeError(
            f"conv output size not integral: input {size}, kernel {k}, "
            f"stride {stride}, pad {pad}"
        )
    return num // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """x (N, C, H, W) -> columns (N, C*kh*kw, OH*OW) plus output dims."""
    n, c, h, w = x.shape
    oh = _conv_out_size(h, kh, stride, pad)
    ow = _conv_out_size(w, kw, stride, pad)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Scatter-add columns back to an image; adjoint of _im2col."""
    n, c, h, w = x_shape
    oh = _conv_out_size(h, kh, stride, pad)
    ow = _conv_out_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, i, j]
    if pad:
        xp = xp[:, :, pad : pad + h, pad : pad + w]
    return xp


def _batched(x: np.ndarray, rank: int):
    """Promote a single sample to a batch of one; report whether we did."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == rank - 1:
        return x[None], True
    if x.ndim != rank:
        raise ShapeError(f"expected rank {rank - 1} or {rank}, got shape {x.shape}")
    return x, False


def conv2d(inp: np.ndarray, kernel: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of (N, C_I, H, W) with kernel (C_O, C_I, K_H, K_W)."""
    x, squeeze = _batched(inp, 4)
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 4:
        raise ShapeError(f"kernel must be 4-D, got {k.shape}")
    co, ci, kh, kw = k.shape
    if ci != x.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape[1]}, kernel {ci}")
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    out = np.einsum("ok,nkp->nop", k.reshape(co, ci * kh * kw), cols, optimize=True)
    out = out.reshape(x.shape[0], co, oh, ow)
    return out[0] if squeeze else out


def conv2d_backward(grad_out: np.ndarray, inp: np.ndarray, kernel: np.ndarray,
                    stride: int = 1, pad: int = 0, *, need_input: bool = True):
    """Gradients of conv2d w.r.t. input and kernel.

    Returns ``(grad_input, grad_kernel)`` with the same shapes as ``inp`` and
    ``kernel``; ``grad_input`` is None when ``need_input`` is false.
    """
    x, squeeze = _batched(inp, 4)
    g, gsq = _batched(grad_out, 4)
    if squeeze != gsq:
        raise ShapeError("grad_out and input batching disagree")
    k = np.asarray(kernel, dtype=np.float64)
    co, ci, kh, kw = k.shape
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    if g.shape != (x.shape[0], co, oh, ow):
        raise ShapeError(f"grad_out shape {g.shape} does not match forward output "
                         f"{(x.shape[0], co, oh, ow)}")
    gmat = g.reshape(x.shape[0], co, oh * ow)
    grad_kernel = np.einsum("nop,nkp->ok", gmat, cols, optimize=True).reshape(k.shape)
    if not need_input:
        return None, grad_kernel
    gcols = np.einsum("ok,nop->nkp", k.reshape(co, ci * kh * kw), gmat, optimize=True)
    grad_input = _col2im(gcols, x.shape, kh, kw, stride, pad)
    if squeeze:
        grad_input = grad_input[0]
    return grad_input, grad_kernel


def pool2d(inp: np.ndarray, window: int, mode: str = "average") -> np.ndarray:
    """Non-overlapping 2-D pooling over square windows."""
    if mode not in ("average", "max"):
        raise ValueError(f"unknown pool mode {mode!r}")
    x, squeeze = _batched(inp, 4)
    n, c, h, w = x.shape
    if h % window or w % window:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    tiles = x.reshape(n, c, h // window, window, w // window, window)
    if mode == "average":
        out = tiles.mean(axis=(3, 5))
    else:
        out = tiles.max(axis=(3, 5))
    return out[0] if squeeze else out


def pool2d_backward(grad_out: np.ndarray, inp: np.ndarray, window: int,
                    mode: str = "average") -> np.ndarray:
    """Gradient of pool2d w.r.t. its input.

    Max mode routes gradient to the window argmax (first occurrence on ties),
    matching the indices the forward pass would record.
    """
    x, squeeze = _batched(inp, 4)
    g, _ = _batched(grad_out, 4)
    n, c, h, w = x.shape
    if h % window or w % window:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    tiles = x.reshape(n, c, h // window, window, w // window, window)
    gexp = g.reshape(n, c, h // window, 1, w // window, 1)
    if mode == "average":
        grad = np.broadcast_to(gexp / (window * window), tiles.shape)
    elif mode == "max":
        flat = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // window, w // window, -1)
        arg = flat.argmax(axis=-1)
        mask_flat = np.zeros_like(flat)
        np.put_along_axis(mask_flat, arg[..., None], 1.0, axis=-1)
        mask = mask_flat.reshape(n, c, h // window, w // window, window, window)
        mask = mask.transpose(0, 1, 2, 4, 3, 5)
        grad = mask * gexp
    else:
        raise ValueError(f"unknown pool mode {mode!r}")
    grad = grad.reshape(n, c, h, w)
    return grad[0] if squeeze else grad
