"""Stateless neural-network operations built on :mod:`repro.nn.tensor`.

Includes the dilated same-padding 1-D convolution at the heart of TriAD's
encoders, numerically-stable softmax family ops with custom backward
rules, dropout, and the loss helpers shared by the baselines.

``conv1d`` ships three implementations behind one contract (see
docs/PERF.md):

- **gemm** — the default fast path.  Small kernels (TriAD's ``K=3``
  encoders) run as ``K`` accumulated batched GEMMs directly against
  strided views of the padded input — no tap matrix is ever
  materialized, and per-call scratch buffers are reused via ``out=``,
  which matters because these convs are memory-bound, not
  compute-bound.  Wide kernels switch to a classic im2col pack: the
  dilated taps exposed as a zero-copy
  :func:`numpy.lib.stride_tricks.sliding_window_view`, packed once into
  a contiguous ``(batch, in_channels * kernel, out_length)`` operand so
  forward and backward are single batched GEMMs.
- **fft** — frequency-domain correlation, auto-selected when the
  dilated kernel span is large enough that the GEMM's ``O(K)`` per-tap
  cost loses to ``O(log n)`` transforms (wide kernels, extreme
  dilations).
- **reference** — the original per-tap ``np.stack`` + einsum gather,
  kept as the equivalence oracle for tests and ``BENCH_nn.json``.

:func:`set_conv1d_mode` / :func:`conv1d_mode` switch between them; the
default ``"auto"`` picks gemm unless the FFT heuristic fires.
"""

from __future__ import annotations

import numpy as np

from .switch import Switch
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "conv1d",
    "conv1d_mode",
    "get_conv1d_mode",
    "set_conv1d_mode",
    "softmax",
    "log_softmax",
    "logsumexp",
    "dropout",
    "mse_loss",
    "l1_loss",
    "binary_cross_entropy",
    "huber_loss",
    "cosine_similarity",
]

_CONV1D_MODES = ("auto", "gemm", "fft", "reference")

# Kernels up to this many taps skip the im2col pack: K accumulated
# batched GEMMs on strided views beat one big GEMM on a packed matrix
# whenever building the matrix costs more memory traffic than it saves.
TAP_GEMM_MAX_K = 8

# Ceiling on the packed im2col operand (batch * C * K * L_out doubles).
# Beyond it the pack's allocation traffic swamps the single-GEMM win, so
# wide kernels fall back to the per-tap loop.
IM2COL_MAX_BYTES = 8 << 20

# FFT auto-selection heuristic: a GEMM multiplies every output sample by
# all K taps, while the FFT path pays ~log2(n_fft) per sample regardless
# of K — so frequency domain wins once the kernel is genuinely wide.
# Measured at encoder shapes (B=32, C=O=64, L=512): K=32 runs ~2.8x
# faster under FFT even at dilation 1, so the span threshold only rules
# out degenerate few-tap-but-dilated kernels where the pointwise product
# barely beats the GEMM yet the transforms still cost in full.  TriAD's
# K=3 encoders never trip either threshold.
FFT_MIN_TAPS = 32
FFT_MIN_SPAN = 24


# Mode switch (see the module docstring): ``set_conv1d_mode`` returns the
# previous mode, ``conv1d_mode`` pins one for a ``with`` block.
_CONV1D = Switch("conv1d", "auto", _CONV1D_MODES)
set_conv1d_mode = _CONV1D.set
get_conv1d_mode = _CONV1D.get
conv1d_mode = _CONV1D.pinned


def _conv1d_geometry(
    length: int, kernel_size: int, dilation: int, padding: str | int, stride: int
) -> tuple[int, int, int, int, int]:
    """Padding amounts and output geometry shared by every conv path."""
    span = dilation * (kernel_size - 1)
    if padding == "same":
        pad_left = span // 2
        pad_right = span - pad_left
    elif padding == "causal":
        pad_left, pad_right = span, 0
    elif padding == "valid":
        pad_left = pad_right = 0
    else:
        pad_left = pad_right = int(padding)
    full_length = length + pad_left + pad_right - span
    if full_length <= 0:
        raise ValueError("input too short for kernel/dilation combination")
    out_length = (full_length - 1) // stride + 1
    return span, pad_left, pad_right, full_length, out_length


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    dilation: int = 1,
    padding: str | int = "same",
    stride: int = 1,
) -> Tensor:
    """Dilated, optionally strided 1-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, length)``.
    weight:
        Kernel of shape ``(out_channels, in_channels, kernel_size)``.
    bias:
        Optional per-output-channel bias of shape ``(out_channels,)``.
    dilation:
        Spacing between kernel taps.  TriAD doubles this per residual
        block to grow the receptive field exponentially.
    padding:
        ``"same"``, ``"valid"``, ``"causal"`` (all padding on the left,
        so output ``t`` never sees input after ``t`` — the TCN
        convention), or an explicit integer amount applied symmetrically.
    stride:
        Hop between output positions.  Output length is
        ``(padded_length - span - 1) // stride + 1`` where
        ``span = dilation * (kernel_size - 1)`` — i.e. the stride-1
        output subsampled from position 0, *ceil-mode* for the
        length-preserving paddings: ``"same"`` and ``"causal"`` yield
        ``ceil(length / stride)`` outputs for any stride, and
        ``"valid"`` yields ``floor((length - span - 1) / stride) + 1``.

    Returns
    -------
    Tensor of shape ``(batch, out_channels, out_length)``.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    batch, in_channels, length = x.shape
    out_channels, w_in, kernel_size = weight.shape
    if w_in != in_channels:
        raise ValueError(
            f"weight expects {w_in} input channels, got {in_channels}"
        )
    if stride < 1:
        raise ValueError("stride must be positive")
    if dilation < 1:
        raise ValueError("dilation must be positive")

    span, pad_left, pad_right, full_length, out_length = _conv1d_geometry(
        length, kernel_size, dilation, padding, stride
    )

    mode = _CONV1D.value
    if mode == "reference":
        impl = _conv1d_reference
    elif mode == "fft" or (
        mode == "auto"
        and stride == 1
        and kernel_size >= FFT_MIN_TAPS
        and span >= FFT_MIN_SPAN
    ):
        impl = _conv1d_fft
    elif kernel_size <= TAP_GEMM_MAX_K or (
        batch * in_channels * kernel_size * out_length * 8 > IM2COL_MAX_BYTES
    ):
        impl = _conv1d_taps
    else:
        impl = _conv1d_im2col
    return impl(
        x, weight, bias, dilation, stride,
        pad_left, pad_right, span, full_length, out_length,
    )


def _pad_input(
    data: np.ndarray, pad_left: int, pad_right: int
) -> np.ndarray:
    """Zero-pad the last axis (allocate + slice-assign; ``np.pad`` costs
    ~100µs of pure-Python shape juggling per call, real money at this
    call rate)."""
    if not (pad_left or pad_right):
        return data
    batch, channels, length = data.shape
    padded = np.zeros((batch, channels, length + pad_left + pad_right))
    padded[:, :, pad_left : pad_left + length] = data
    return padded


def _conv1d_taps(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    dilation: int,
    stride: int,
    pad_left: int,
    pad_right: int,
    span: int,
    full_length: int,
    out_length: int,
) -> Tensor:
    """Small-kernel GEMM path: K accumulated batched GEMMs, no packing.

    Each tap ``k`` contributes ``W[:, :, k] @ x_padded[:, :, k·d :]`` —
    a ``(O, C) @ (B, C, L_out)`` batched GEMM against a strided *view*
    of the padded input.  These convs are memory-bound at TriAD's
    shapes, so skipping the im2col pack (3× the input's traffic for
    ``K=3``) and reusing one scratch buffer per call via ``out=`` is
    worth more than any GEMM-efficiency gain from a single big matrix.
    """
    batch, in_channels, length = x.shape
    out_channels, _, kernel_size = weight.shape
    padded = _pad_input(x.data, pad_left, pad_right)
    # (K, O, C) contiguous so each tap's GEMM operand needs no gather.
    w_taps = np.ascontiguousarray(weight.data.transpose(2, 0, 1))

    out_data = np.matmul(w_taps[0], padded[:, :, 0:full_length:stride])
    if kernel_size > 1:
        scratch = np.empty_like(out_data)
        for k in range(1, kernel_size):
            start = k * dilation
            np.matmul(
                w_taps[k],
                padded[:, :, start : start + full_length : stride],
                out=scratch,
            )
            out_data += scratch
    if bias is not None:
        out_data += bias.data[None, :, None]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            grad_w = np.empty_like(weight.data)
            scratch = np.empty((batch, out_channels, in_channels))
            for k in range(kernel_size):
                start = k * dilation
                tap = padded[:, :, start : start + full_length : stride]
                np.matmul(grad, tap.transpose(0, 2, 1), out=scratch)
                grad_w[:, :, k] = scratch.sum(axis=0)
            weight._accumulate(grad_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_padded = np.zeros_like(padded)
            scratch = np.empty((batch, in_channels, out_length))
            for k in range(kernel_size):
                start = k * dilation
                np.matmul(w_taps[k].transpose(1, 0), grad, out=scratch)
                grad_padded[
                    :, :, start : start + full_length : stride
                ] += scratch
            x._accumulate(grad_padded[:, :, pad_left : pad_left + length])

    return Tensor._make(out_data, parents, backward)


def _conv1d_im2col(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    dilation: int,
    stride: int,
    pad_left: int,
    pad_right: int,
    span: int,
    full_length: int,
    out_length: int,
) -> Tensor:
    """Wide-kernel im2col path: one contiguous tap-matrix, BLAS everywhere.

    ``sliding_window_view`` exposes every dilated tap as a zero-copy
    strided view; a single ``ascontiguousarray`` packs the views into a
    ``(batch, in_channels * kernel, out_length)`` operand (the only data
    movement on the forward path) so the forward pass is one batched
    GEMM producing ``(batch, out_channels, out_length)`` directly, and
    the backward pass is two batched GEMMs plus a K-tap strided
    scatter-add.  Worth the pack only past ``TAP_GEMM_MAX_K`` taps —
    below that :func:`_conv1d_taps` does strictly less memory traffic.
    """
    batch, in_channels, length = x.shape
    out_channels, _, kernel_size = weight.shape
    padded = _pad_input(x.data, pad_left, pad_right)

    # (B, C, K, L_out): tap axis ahead of the output axis, so the packed
    # matrix multiplies against the (O, C*K) kernel with no transposes.
    taps = np.lib.stride_tricks.sliding_window_view(padded, span + 1, axis=2)[
        :, :, ::stride, ::dilation
    ]
    cols = np.ascontiguousarray(taps.transpose(0, 1, 3, 2)).reshape(
        batch, in_channels * kernel_size, out_length
    )
    w2d = weight.data.reshape(out_channels, in_channels * kernel_size)
    out_data = np.matmul(w2d, cols)  # (B, O, L_out)
    if bias is not None:
        out_data += bias.data[None, :, None]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            grad_w = np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_cols = np.matmul(w2d.T, grad)  # (B, C*K, L_out)
            grad_taps = grad_cols.reshape(
                batch, in_channels, kernel_size, out_length
            )
            grad_padded = np.zeros_like(padded)
            for k in range(kernel_size):
                grad_padded[
                    :, :, k * dilation : k * dilation + full_length : stride
                ] += grad_taps[:, :, k, :]
            x._accumulate(grad_padded[:, :, pad_left : pad_left + length])

    return Tensor._make(out_data, parents, backward)


def _conv1d_fft(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    dilation: int,
    stride: int,
    pad_left: int,
    pad_right: int,
    span: int,
    full_length: int,
    out_length: int,
) -> Tensor:
    """FFT path: correlation as a frequency-domain product.

    The dilated kernel is embedded into a dense ``span + 1`` tap buffer,
    both operands are transformed once, and forward/backward each reduce
    to one complex einsum + inverse transform.  Strides > 1 subsample
    the dense output (and zero-stuff the gradient back up), so this path
    is only auto-selected at stride 1 where nothing is wasted.
    """
    from scipy.fft import next_fast_len  # core dependency; lazy keeps import light

    batch, in_channels, length = x.shape
    out_channels, _, kernel_size = weight.shape
    padded = _pad_input(x.data, pad_left, pad_right)
    n_fft = next_fast_len(padded.shape[2])

    freq_x = np.fft.rfft(padded, n_fft, axis=2)  # (B, C, F)
    dense_kernel = np.zeros((out_channels, in_channels, span + 1))
    dense_kernel[:, :, ::dilation] = weight.data
    freq_w = np.fft.rfft(dense_kernel, n_fft, axis=2)  # (O, C, F)

    # Cross-correlation (the NN convention): X * conj(W) in frequency.
    freq_out = np.einsum("bcf,ocf->bof", freq_x, freq_w.conj(), optimize=True)
    dense = np.fft.irfft(freq_out, n_fft, axis=2)[:, :, :full_length]
    out_data = np.ascontiguousarray(dense[:, :, ::stride]) if stride > 1 else dense
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if stride > 1:
            dense_grad = np.zeros((batch, out_channels, full_length))
            dense_grad[:, :, ::stride] = grad
        else:
            dense_grad = grad
        freq_grad = np.fft.rfft(dense_grad, n_fft, axis=2)  # (B, O, F)
        if weight.requires_grad:
            freq_gw = np.einsum(
                "bcf,bof->ocf", freq_x, freq_grad.conj(), optimize=True
            )
            corr = np.fft.irfft(freq_gw, n_fft, axis=2)
            weight._accumulate(corr[:, :, : span + 1 : dilation])
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            # d/dx is the *convolution* of the gradient with the kernel:
            # plain product (no conjugate) in frequency.
            freq_gx = np.einsum("bof,ocf->bcf", freq_grad, freq_w, optimize=True)
            grad_padded = np.fft.irfft(freq_gx, n_fft, axis=2)
            x._accumulate(grad_padded[:, :, pad_left : pad_left + length])

    return Tensor._make(out_data, parents, backward)


def _conv1d_reference(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    dilation: int,
    stride: int,
    pad_left: int,
    pad_right: int,
    span: int,
    full_length: int,
    out_length: int,
) -> Tensor:
    """The original per-tap gather implementation (equivalence oracle).

    Kept verbatim so tests and ``scripts/bench_nn.py`` can pin the fast
    paths against the exact pre-optimization semantics.
    """
    batch, in_channels, length = x.shape
    out_channels, _, kernel_size = weight.shape
    padded = np.pad(x.data, ((0, 0), (0, 0), (pad_left, pad_right)))

    # Gather the K dilated taps as strided views: (B, C_in, K, L_out).
    taps = np.stack(
        [
            padded[:, :, k * dilation : k * dilation + full_length : stride]
            for k in range(kernel_size)
        ],
        axis=2,
    )
    out_data = np.einsum("bckl,ock->bol", taps, weight.data, optimize=True)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate(
                np.einsum("bol,bckl->ock", grad, taps, optimize=True)
            )
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2)))
        if x.requires_grad:
            grad_taps = np.einsum("bol,ock->bckl", grad, weight.data, optimize=True)
            grad_padded = np.zeros_like(padded)
            for k in range(kernel_size):
                grad_padded[
                    :, :, k * dilation : k * dilation + full_length : stride
                ] += grad_taps[:, :, k, :]
            x._accumulate(grad_padded[:, :, pad_left : pad_left + length])

    return Tensor._make(out_data, parents, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - inner))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable ``log(sum(exp(x)))`` along ``axis``."""
    x = as_tensor(x)
    peak = x.data.max(axis=axis, keepdims=True)
    exp = np.exp(x.data - peak)
    total = exp.sum(axis=axis, keepdims=True)
    out_data = np.log(total) + peak
    soft = exp / total
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        g = grad if keepdims else np.expand_dims(grad, axis)
        x._accumulate(g * soft)

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``p``, rescale survivors."""
    if not training or p <= 0.0:
        return x
    x = as_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error over all elements."""
    diff = as_tensor(prediction) - as_tensor(target)
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target) -> Tensor:
    """Mean absolute error over all elements."""
    return (as_tensor(prediction) - as_tensor(target)).abs().mean()


def binary_cross_entropy(prediction: Tensor, target, eps: float = 1e-12) -> Tensor:
    """Elementwise BCE averaged over all elements.

    ``prediction`` must already lie in ``(0, 1)`` (e.g. sigmoid output).
    """
    p = as_tensor(prediction)
    t = as_tensor(target)
    p = p * (1 - 2 * eps) + eps  # keep log() finite at the boundaries
    return -(t * p.log() + (1.0 - t) * (1.0 - p).log()).mean()


def huber_loss(prediction: Tensor, target, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``delta`` of the target, linear beyond.

    Implemented from differentiable primitives (no custom backward):
    ``0.5 r^2`` for |r| <= delta, ``delta (|r| - 0.5 delta)`` otherwise.
    """
    residual = as_tensor(prediction) - as_tensor(target)
    abs_residual = residual.abs()
    clipped = abs_residual - (abs_residual - delta).relu()  # min(|r|, delta)
    return (clipped * abs_residual - 0.5 * clipped * clipped).mean()


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity between ``a`` and ``b`` along ``axis``."""
    a = as_tensor(a)
    b = as_tensor(b)
    dot = (a * b).sum(axis=axis)
    norm_a = ((a * a).sum(axis=axis) + eps).sqrt()
    norm_b = ((b * b).sum(axis=axis) + eps).sqrt()
    return dot / (norm_a * norm_b)
