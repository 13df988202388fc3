"""Dense tensor primitives: the two synaptic ops, linear and 2-D convolution,
2-D pooling, and their gradients.

All values are 64-bit floats; a taped input, ``uint8`` spikes or a
``float32`` pooled map, is cast exactly.
Operations are pure and use fixed accumulation orders, so repeated runs on
the same machine are bit-identical.

``linear`` flattens an (N, ...) input to (N, F_I) and multiplies it by the
transposed (F_O, F_I) weight.  Convolution uses the cross-correlation
convention (no kernel flip) with zero padding.  ``conv2d``/``pool2d`` take a
batch ``(N, C, H, W)`` in any memory layout; results are C-contiguous.

Geometry.  ``conv2d`` and ``conv2d_backward`` share one prologue,
``_conv_geometry``: it checks that the kernel is 4-D and takes the input's
channels, and works out the output size (``conv_out_size``) and the run
length (``_run_samples``) once per call.  Both ops then raise ``ShapeError``
for the same mismatches, and ``_im2col`` and ``_col2im`` take the output
size it gives rather than working it out again for every run.

Layout.  ``_im2col`` unrolls a batch into a ``(C·KH·KW, N·OH·OW)`` matrix: one
row per kernel tap (channel, then tap row, then tap column) and one column per
output pixel, with the samples outside the pixels.  It copies one strided
slice of the zero-padded, channel-major ``(C, N, H+2p, W+2p)`` input per tap.
``_col2im`` is its adjoint and scatter-adds the same slices back.

Runs of samples.  ``conv2d`` and ``conv2d_backward`` unroll a batch a run of
samples at a time, and each run's columns are used and freed before the next
run's are built.  ``_run_samples`` sizes the run from the layer's shape: the
largest power of two whose columns fit ``L2_BYTES``, at least one sample (8
samples at lenet5's first conv, 16 at its second, 1 at vgg15's 64-channel
convs at 32x32).  A batch-sized call then streams its columns through cache
once instead of writing them all out and reading them back, and never holds
more than one run's columns.

Accumulation order and batch invariance.  Early exit runs the synaptic ops
on the samples still active only (``inference.run_network``), so a sample's
output should be the same bits whatever else its batch holds.  ``conv2d``
multiplies the ``(C_O, C_I·KH·KW)`` kernel matrix by each sample's
``(C_I·KH·KW, OH·OW)`` block of columns, one BLAS GEMM per sample, all of the
same shape, so a sample alone, a fancy-indexed subset and the full batch
give bit-equal rows however the batch is cut into runs.  (One GEMM over all
``N·OH·OW`` columns is not batch-invariant: BLAS computes the last partial
tile of columns with another kernel, so which outputs land there depends on
N.)  ``linear``, one GEMM over the batch's rows, is not batch-invariant
the same way: one random subset of each size, multiplied alone, gave other
bits than the same rows of the full product at 1/511 subset sizes at
512×784→800, 2/63 at 64×512→512, 47–48/63 at 64×800→10, 120/511 at
512×800→10, and 10/15, 14/15 and 9–11/15 at lenet5's 16-row 400→120,
120→84 and 84→10 (two seeds; random images at 784→800, random 0/1 rows
elsewhere; numpy 2.4.6, OpenBLAS 0.3.31, 1 thread).  So an early-exit hidden drive can
differ in its last bit from a full-batch ``forward``'s and, rarely, flip a
spike at the threshold.  Zero-padded row blocks of a fixed size (8 to 128)
in one stacked ``matmul`` gave bit-equal rows at all of them.
``linear_backward`` makes one GEMM for the weight gradient, a sum over the
batch, and one for the input gradient.  ``conv2d_backward`` reduces over
the batch: per run, one GEMM gives the run's kernel gradient (``gmat @
cols.T``), added in run order into the first run's, and one the run's
column gradient (``kmat.T @ gmat``).  A batch of one run makes exactly the
two GEMMs of an unchunked call.
Average pooling adds the ``window²`` strided slices in row-major tap order
and divides by ``window²``.  On 0/1 spike inputs every step is exact, so the
result equals the tile mean bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError

# the L2 size that one run of im2col columns, and one block of a block-major
# simulation (network.block_rows), are cut to fit
L2_BYTES = 2 << 20


def conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    """A conv's output size along one axis: ``size`` input pixels, a ``k``-tap
    kernel, ``stride`` and zero padding ``pad``, which must tile it exactly."""
    if stride < 1 or pad < 0:
        raise ParameterError(f"conv stride must be >= 1 and pad >= 0, got stride "
                             f"{stride}, pad {pad}")
    num = size + 2 * pad - k
    if num < 0 or num % stride != 0:
        raise ShapeError(
            f"conv output size not integral: input {size}, kernel {k}, "
            f"stride {stride}, pad {pad}"
        )
    return num // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, oh: int, ow: int, stride: int, pad: int):
    """x (N, C, H, W) -> columns (C*kh*kw, N*OH*OW)."""
    n, c, h, w = x.shape
    xp = x.transpose(1, 0, 2, 3)            # channel-major view
    if pad:
        padded = np.zeros((c, n, h + 2 * pad, w + 2 * pad))
        padded[:, :, pad : pad + h, pad : pad + w] = xp
        xp = padded
    cols = np.empty((c, kh, kw, n, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * kh * kw, n * oh * ow)


def pow2_fit(budget: int, unit: int) -> int:
    """The largest power of two whose multiple of ``unit`` bytes fits
    ``budget`` bytes, and at least 1."""
    return 1 << max((budget // unit).bit_length() - 1, 0)


def _run_samples(taps: int, pixels: int) -> int:
    """Samples per run of im2col columns, for ``taps`` (C·KH·KW) rows and
    ``pixels`` (OH·OW) columns per sample: the largest power of two whose
    float64 columns fit ``L2_BYTES``, and at least 1."""
    return pow2_fit(L2_BYTES, 8 * taps * pixels)


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, oh: int, ow: int, stride: int,
            pad: int) -> np.ndarray:
    """Scatter-add columns back to an (N, C, H, W) image; adjoint of _im2col.
    Returns a strided view; the caller copies it where it belongs."""
    n, c, h, w = x_shape
    cols = cols.reshape(c, kh, kw, n, oh, ow)
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3)


def _batch_shape(x: np.ndarray) -> tuple:
    """The (N, C, H, W) shape of batch ``x``, whatever its dtype."""
    shape = np.shape(x)
    if len(shape) != 4:
        raise ShapeError(f"expected an (N, C, H, W) batch, got shape {shape}")
    return shape


def _batch(x: np.ndarray) -> np.ndarray:
    """``x`` as a float64 (N, C, H, W) batch."""
    x = np.asarray(x, dtype=np.float64)
    _batch_shape(x)
    return x


def linear(inp: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """(N, ...) input, flattened to (N, F_I), times the transposed
    (F_O, F_I) weight: the (N, F_O) output."""
    flat = inp.reshape(inp.shape[0], -1)
    if flat.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear layer expects {weight.shape[1]} features, "
                         f"got {flat.shape[1]} (input shape {inp.shape})")
    return flat @ weight.T


def linear_backward(grad_out: np.ndarray, inp: np.ndarray, weight: np.ndarray, *,
                    need_input: bool = True):
    """Gradients of linear w.r.t. input and weight: ``(grad_input,
    grad_weight)``, shaped like ``inp`` and ``weight``; ``grad_input`` is
    None when ``need_input`` is false."""
    flat = inp.reshape(inp.shape[0], -1)
    if flat.shape[1] != weight.shape[1] or grad_out.shape != (len(flat), len(weight)):
        raise ShapeError(f"linear backward: grad_out {grad_out.shape}, input {inp.shape} "
                         f"and weight {weight.shape} do not match")
    grad_weight = grad_out.T @ flat
    if not need_input:
        return None, grad_weight
    return (grad_out @ weight).reshape(inp.shape), grad_weight


def _conv_geometry(x: np.ndarray, kernel, stride: int, pad: int) -> tuple:
    """The prologue ``conv2d`` and ``conv2d_backward`` share: a (C_O, C_I, KH,
    KW) ``kernel`` checked against batch ``x``, and ``(kmat, KH, KW, OH, OW,
    run)``: the float64 (C_O, C_I·KH·KW) kernel matrix, the taps, the output
    size and the samples per run of columns."""
    k = np.asarray(kernel, dtype=np.float64)
    if k.ndim != 4:
        raise ShapeError(f"kernel must be 4-D, got {k.shape}")
    co, ci, kh, kw = k.shape
    if ci != x.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape[1]}, kernel {ci}")
    oh, ow = conv_out_size(x.shape[2], kh, stride, pad), conv_out_size(x.shape[3], kw, stride, pad)
    return k.reshape(co, -1), kh, kw, oh, ow, _run_samples(ci * kh * kw, oh * ow)


def conv2d(inp: np.ndarray, kernel: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of (N, C_I, H, W) with kernel (C_O, C_I, K_H, K_W)."""
    x = _batch(inp)
    kmat, kh, kw, oh, ow, run = _conv_geometry(x, kernel, stride, pad)
    co = len(kmat)
    out = np.empty((len(x), co, oh, ow))
    for s in range(0, len(x), run):
        xs = x[s : s + run]
        m = len(xs)
        cols = _im2col(xs, kh, kw, oh, ow, stride, pad)
        # (C_O, K) @ (m, K, OH*OW): one GEMM per sample, read in place from cols
        np.matmul(kmat, cols.reshape(-1, m, oh * ow).transpose(1, 0, 2),
                  out=out[s : s + m].reshape(m, co, oh * ow))
    return out


def conv2d_backward(grad_out: np.ndarray, inp: np.ndarray, kernel: np.ndarray,
                    stride: int = 1, pad: int = 0, *, need_input: bool = True):
    """Gradients of conv2d w.r.t. input and kernel.

    Returns ``(grad_input, grad_kernel)`` with the same shapes as ``inp`` and
    ``kernel``; ``grad_input`` is None when ``need_input`` is false.
    """
    x = _batch(inp)
    g = _batch(grad_out)
    kmat, kh, kw, oh, ow, run = _conv_geometry(x, kernel, stride, pad)
    co = len(kmat)
    if g.shape != (len(x), co, oh, ow):
        raise ShapeError(f"grad_out shape {g.shape} does not match forward output "
                         f"{(len(x), co, oh, ow)}")
    grad_kernel = None
    grad_input = np.empty(x.shape) if need_input else None
    for s in range(0, len(x), run):
        xs = x[s : s + run]
        cols = _im2col(xs, kh, kw, oh, ow, stride, pad)
        gmat = g[s : s + run].transpose(1, 0, 2, 3).reshape(co, -1)    # (C_O, m*OH*OW), a copy
        part = gmat @ cols.T
        if grad_kernel is None:
            grad_kernel = part
        else:
            grad_kernel += part
        if need_input:
            grad_input[s : s + run] = _col2im(kmat.T @ gmat, xs.shape, kh, kw, oh, ow,
                                              stride, pad)
    if grad_kernel is None:                             # an empty batch
        grad_kernel = np.zeros(kmat.shape)
    return grad_input, grad_kernel.reshape(co, -1, kh, kw)


def _pool_shape(x: np.ndarray, window: int, mode: str) -> tuple:
    """The (N, C, H, W) shape of pool input ``x``, checked against a
    ``window`` of at least 1 that tiles it and a known ``mode``."""
    if mode not in ("average", "max"):
        raise ParameterError(f"unknown pool mode {mode!r}")
    if window < 1:
        raise ParameterError(f"pool window must be >= 1, got {window}")
    n, c, h, w = _batch_shape(x)
    if h % window or w % window:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    return n, c, h, w


def pool2d(inp: np.ndarray, window: int, mode: str = "average") -> np.ndarray:
    """Non-overlapping 2-D pooling over square windows."""
    x = _batch(inp)
    n, c, h, w = _pool_shape(x, window, mode)
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
    matching the indices the forward pass would record.  Average mode reads
    only the shape of ``inp``, which may be of any dtype.  ``grad_out`` must
    have the pooled output's shape, else ShapeError.
    """
    n, c, h, w = _pool_shape(inp, window, mode)
    g = _batch(grad_out)
    if g.shape != (n, c, h // window, w // window):
        raise ShapeError(f"grad_out shape {g.shape} does not match pooled output "
                         f"{(n, c, h // window, w // window)}")
    if mode == "average":
        grad = (g / (window * window)).repeat(window, axis=2).repeat(window, axis=3)
    else:
        tiles = _batch(inp).reshape(n, c, h // window, window, w // window, window)
        flat = tiles.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // window, w // window, -1)
        arg = flat.argmax(axis=-1)
        mask_flat = np.zeros_like(flat)
        np.put_along_axis(mask_flat, arg[..., None], 1.0, axis=-1)
        mask = mask_flat.reshape(n, c, h // window, w // window, window, window)
        mask = mask.transpose(0, 1, 2, 4, 3, 5)
        grad = (mask * g.reshape(n, c, h // window, 1, w // window, 1)).reshape(n, c, h, w)
    return grad
