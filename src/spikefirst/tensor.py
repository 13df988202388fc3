"""Dense tensor primitives: 2-D convolution/pooling and their gradients.

All values are 64-bit floats.  Operations are pure and use fixed accumulation
orders, so repeated runs on the same machine are bit-identical.

Convolution uses the cross-correlation convention (no kernel flip) with zero
padding.  ``conv2d``/``pool2d`` take a batch ``(N, C, H, W)`` in any memory
layout; results are C-contiguous.

Layout.  ``_im2col`` unrolls a batch into a ``(C·KH·KW, N·OH·OW)`` matrix: one
row per kernel tap (channel, then tap row, then tap column) and one column per
output pixel, with the samples outside the pixels.  It copies one strided
slice of the zero-padded, channel-major ``(C, N, H+2p, W+2p)`` input per tap.
``_col2im`` is its adjoint and scatter-adds the same slices back.

Accumulation order and batch invariance.  ``conv2d`` multiplies the
``(C_O, C_I·KH·KW)`` kernel matrix by each sample's ``(C_I·KH·KW, OH·OW)``
block of columns, one BLAS GEMM per sample, all of the same shape, so every
output is the same sum in the same order whatever the batch holds: a sample
alone, a fancy-indexed subset and the full batch give bit-equal rows.  Early
exit relies on this, since ``inference.run_network`` convolves only the
samples still active.  (One GEMM over all ``N·OH·OW`` columns is not
batch-invariant: BLAS computes the last partial tile of columns with another
kernel, so which outputs land there depends on N.)  ``conv2d_backward``
reduces over the whole batch, so it uses one GEMM for the kernel gradient
(``gmat @ cols.T``) and one for the column gradient (``kmat.T @ gmat``).
Average pooling adds the ``window²`` strided slices in row-major tap order
and divides by ``window²``.  On 0/1 spike inputs every step is exact, so the
result equals the tile mean bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    num = size + 2 * pad - k
    if num < 0 or num % stride != 0:
        raise ShapeError(
            f"conv output size not integral: input {size}, kernel {k}, "
            f"stride {stride}, pad {pad}"
        )
    return num // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """x (N, C, H, W) -> columns (C*kh*kw, N*OH*OW) plus output dims."""
    n, c, h, w = x.shape
    oh = _conv_out_size(h, kh, stride, pad)
    ow = _conv_out_size(w, kw, stride, pad)
    xp = x.transpose(1, 0, 2, 3)            # channel-major view
    if pad:
        padded = np.zeros((c, n, h + 2 * pad, w + 2 * pad))
        padded[:, :, pad : pad + h, pad : pad + w] = xp
        xp = padded
    cols = np.empty((c, kh, kw, n, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * kh * kw, n * oh * ow), oh, ow


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Scatter-add columns back to an (N, C, H, W) image; adjoint of _im2col."""
    n, c, h, w = x_shape
    oh = _conv_out_size(h, kh, stride, pad)
    ow = _conv_out_size(w, kw, stride, pad)
    cols = cols.reshape(c, kh, kw, n, oh, ow)
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, i, j]
    return np.ascontiguousarray(xp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3))


def _batch(x: np.ndarray) -> np.ndarray:
    """``x`` as a float64 (N, C, H, W) batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"expected an (N, C, H, W) batch, got shape {x.shape}")
    return x


def conv2d(inp: np.ndarray, kernel: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of (N, C_I, H, W) with kernel (C_O, C_I, K_H, K_W)."""
    x = _batch(inp)
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 4:
        raise ShapeError(f"kernel must be 4-D, got {k.shape}")
    co, ci, kh, kw = k.shape
    if ci != x.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape[1]}, kernel {ci}")
    n = x.shape[0]
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    # (C_O, K) @ (N, K, OH*OW): one GEMM per sample, read in place from cols
    out = k.reshape(co, -1) @ cols.reshape(-1, n, oh * ow).transpose(1, 0, 2)
    return out.reshape(n, co, oh, ow)


def conv2d_backward(grad_out: np.ndarray, inp: np.ndarray, kernel: np.ndarray,
                    stride: int = 1, pad: int = 0, *, need_input: bool = True):
    """Gradients of conv2d w.r.t. input and kernel.

    Returns ``(grad_input, grad_kernel)`` with the same shapes as ``inp`` and
    ``kernel``; ``grad_input`` is None when ``need_input`` is false.
    """
    x = _batch(inp)
    g = _batch(grad_out)
    k = np.asarray(kernel, dtype=np.float64)
    co, ci, kh, kw = k.shape
    cols, oh, ow = _im2col(x, kh, kw, stride, pad)
    if g.shape != (x.shape[0], co, oh, ow):
        raise ShapeError(f"grad_out shape {g.shape} does not match forward output "
                         f"{(x.shape[0], co, oh, ow)}")
    gmat = g.transpose(1, 0, 2, 3).reshape(co, -1)      # (C_O, N*OH*OW), a copy
    grad_kernel = (gmat @ cols.T).reshape(k.shape)
    if not need_input:
        return None, grad_kernel
    grad_input = _col2im(k.reshape(co, -1).T @ gmat, x.shape, kh, kw, stride, pad)
    return grad_input, grad_kernel


def pool2d(inp: np.ndarray, window: int, mode: str = "average") -> np.ndarray:
    """Non-overlapping 2-D pooling over square windows."""
    if mode not in ("average", "max"):
        raise ValueError(f"unknown pool mode {mode!r}")
    x = _batch(inp)
    n, c, h, w = x.shape
    if h % window or w % window:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    if mode == "average":
        out = np.zeros((n, c, h // window, w // window))
        for i in range(window):
            for j in range(window):
                out += x[:, :, i::window, j::window]
        out /= window * window
    else:
        out = x.reshape(n, c, h // window, window, w // window, window).max(axis=(3, 5))
    return out


def pool2d_backward(grad_out: np.ndarray, inp: np.ndarray, window: int,
                    mode: str = "average") -> np.ndarray:
    """Gradient of pool2d w.r.t. its input.

    Max mode routes gradient to the window argmax (first occurrence on ties),
    matching the indices the forward pass would record.
    """
    x = _batch(inp)
    g = _batch(grad_out)
    n, c, h, w = x.shape
    if h % window or w % window:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    if mode == "average":
        grad = (g / (window * window)).repeat(window, axis=2).repeat(window, axis=3)
    elif mode == "max":
        tiles = x.reshape(n, c, h // window, window, w // window, window)
        flat = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // window, w // window, -1)
        arg = flat.argmax(axis=-1)
        mask_flat = np.zeros_like(flat)
        np.put_along_axis(mask_flat, arg[..., None], 1.0, axis=-1)
        mask = mask_flat.reshape(n, c, h // window, w // window, window, window)
        mask = mask.transpose(0, 1, 2, 4, 3, 5)
        grad = (mask * g.reshape(n, c, h // window, 1, w // window, 1)).reshape(n, c, h, w)
    else:
        raise ValueError(f"unknown pool mode {mode!r}")
    return grad
