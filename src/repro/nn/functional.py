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
  kept as the equivalence oracle (``tests/nn/test_conv_fastpath.py``,
  ``tests/nn/test_residual_block.py``).

:func:`set_conv1d_mode` / :func:`conv1d_mode` switch between them; the
default ``"auto"`` picks gemm unless the FFT heuristic fires.  Each
implementation is an array-level forward/backward pair, shared by
``conv1d`` and by :func:`residual_block`, which fuses a whole TriAD
residual block (two convs, biases, ReLUs and the skip add) into one
autograd node.

The per-tap kernel (the one TriAD's convs take) and the reference
kernel return the dtype of their operands: float32 inputs and weights
(the TriAD encoder) stay float32, float64 ones stay float64.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .switch import Switch
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "conv1d",
    "residual_block",
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


class _ConvPlan(NamedTuple):
    """One convolution's geometry plus the kernel pair chosen to run it.

    ``forward(plan, padded, weight) -> (out, saved)`` returns the
    bias-free correlation of the padded input with ``weight`` plus
    whatever its backward needs beyond those two arrays.
    ``backward(plan, grad, padded, weight, saved, need_weight,
    need_input) -> (grad_weight, grad_padded)`` returns ``None`` for a
    gradient it was not asked for; ``grad_padded`` is laid out like
    ``padded`` (the FFT path may run past its end), so callers slice the
    input's own span back out.
    """

    forward: Callable
    backward: Callable
    dilation: int
    stride: int
    pad_left: int
    pad_right: int
    span: int
    full_length: int
    out_length: int


def _plan_conv1d(
    x_shape: tuple[int, ...],
    w_shape: tuple[int, ...],
    dilation: int,
    padding: str | int,
    stride: int,
) -> _ConvPlan:
    """Validate shapes, derive the padding and output geometry, and pick
    the kernel pair from the conv1d mode and the auto heuristics."""
    batch, in_channels, length = x_shape
    out_channels, w_in, kernel_size = w_shape
    if w_in != in_channels:
        raise ValueError(
            f"weight expects {w_in} input channels, got {in_channels}"
        )
    if stride < 1:
        raise ValueError("stride must be positive")
    if dilation < 1:
        raise ValueError("dilation must be positive")

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

    mode = _CONV1D.value
    if mode == "reference":
        kernel = _reference_forward, _reference_backward
    elif mode == "fft" or (
        mode == "auto"
        and stride == 1
        and kernel_size >= FFT_MIN_TAPS
        and span >= FFT_MIN_SPAN
    ):
        kernel = _fft_forward, _fft_backward
    elif kernel_size <= TAP_GEMM_MAX_K or (
        batch * in_channels * kernel_size * out_length * 8 > IM2COL_MAX_BYTES
    ):
        kernel = _taps_forward, _taps_backward
    else:
        kernel = _im2col_forward, _im2col_backward
    return _ConvPlan(
        *kernel, dilation, stride, pad_left, pad_right, span, full_length, out_length
    )


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
    plan = _plan_conv1d(x.shape, weight.shape, dilation, padding, stride)
    padded = _pad_input(x.data, plan.pad_left, plan.pad_right)
    out_data, saved = _conv_forward(plan, padded, weight, bias)
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad_x = _conv_backward(
            plan, grad, padded, weight, bias, saved, x.shape[2], x.requires_grad
        )
        if grad_x is not None:
            x._accumulate(grad_x)

    return Tensor._make(out_data, parents, backward)


def residual_block(
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    dilation: int,
    skip_w: Tensor | None = None,
    skip_b: Tensor | None = None,
) -> Tensor:
    """TriAD's dilated residual block as one autograd node.

    Computes ``relu(conv2(relu(conv1(x) + b1)) + b2 + skip(x))`` where
    both convolutions are dilated by ``dilation`` with same padding and
    stride 1, and ``skip`` is the projection ``conv1d(x, skip_w,
    skip_b)`` or, when ``skip_w`` is ``None``, the identity.

    Each convolution runs the same kernel :func:`conv1d` would pick for
    it (same ``conv1d_mode``, same auto heuristics) and the arithmetic
    happens in the same order, so output and all seven gradients equal
    the layered ``conv1d → relu → conv1d + skip → relu`` composition
    exactly.  What changes is memory: bias and ReLU are applied in place
    on each conv's output, and the node keeps only the padded input, the
    padded hidden map and the output — where the layered graph holds
    about seven activation arrays per block, each with its own gradient.
    conv1's output is padded with one copy rather than computed inside
    the padded buffer: numpy's bias and ReLU passes over that buffer's
    strided interior cost more than the copy saves.
    """
    x = as_tensor(x)
    batch, _, length = x.shape
    plan1 = _plan_conv1d(x.shape, w1.shape, dilation, "same", 1)
    plan2 = _plan_conv1d((batch, w1.shape[0], length), w2.shape, dilation, "same", 1)
    x_padded = _pad_input(x.data, plan1.pad_left, plan1.pad_right)
    hidden, saved1 = _conv_forward(plan1, x_padded, w1, b1)
    _relu_(hidden)
    hidden_padded = _pad_input(hidden, plan2.pad_left, plan2.pad_right)
    del hidden  # freed before conv2 allocates; backward reads hidden_padded
    out_data, saved2 = _conv_forward(plan2, hidden_padded, w2, b2)
    if skip_w is None:
        out_data += x.data
        parents = [x, w1, b1, w2, b2]
    else:
        plan_s = _plan_conv1d(x.shape, skip_w.shape, 1, "same", 1)
        skip_padded = _pad_input(x.data, plan_s.pad_left, plan_s.pad_right)
        skip, saved_s = _conv_forward(plan_s, skip_padded, skip_w, skip_b)
        out_data += skip
        parents = [x, w1, b1, w2, b2, skip_w, skip_b]
    _relu_(out_data)

    def backward(grad: np.ndarray) -> None:
        grad = grad * (out_data > 0)
        need_hidden = x.requires_grad or w1.requires_grad or b1.requires_grad
        grad_hidden = _conv_backward(
            plan2, grad, hidden_padded, w2, b2, saved2, length, need_hidden
        )
        if grad_hidden is not None:
            interior = hidden_padded[:, :, plan2.pad_left : plan2.pad_left + length]
            grad_hidden = grad_hidden * (interior > 0)
            grad_x = _conv_backward(
                plan1, grad_hidden, x_padded, w1, b1, saved1, length, x.requires_grad
            )
            if grad_x is not None:
                x._accumulate(grad_x)
        if skip_w is None:
            grad_x = grad if x.requires_grad else None
        else:
            grad_x = _conv_backward(
                plan_s, grad, skip_padded, skip_w, skip_b, saved_s, length, x.requires_grad
            )
        if grad_x is not None:
            x._accumulate(grad_x)

    return Tensor._make(out_data, parents, backward)


def _conv_forward(
    plan: _ConvPlan, padded: np.ndarray, weight: Tensor, bias: Tensor | None
) -> tuple[np.ndarray, object]:
    """Run the planned kernel on an already padded input and add the bias
    in place; returns ``(out, saved)`` for :func:`_conv_backward`."""
    out, saved = plan.forward(plan, padded, weight.data)
    if bias is not None:
        out += bias.data[None, :, None]
    return out, saved


def _conv_backward(
    plan: _ConvPlan,
    grad: np.ndarray,
    padded: np.ndarray,
    weight: Tensor,
    bias: Tensor | None,
    saved: object,
    length: int,
    need_input: bool,
) -> np.ndarray | None:
    """Accumulate one conv's weight and bias gradients; returns the
    gradient of its unpadded ``length``-sample input when asked for."""
    grad_w, grad_padded = plan.backward(
        plan, grad, padded, weight.data, saved, weight.requires_grad, need_input
    )
    if grad_w is not None:
        weight._accumulate(grad_w)
    if bias is not None and bias.requires_grad:
        bias._accumulate(grad.sum(axis=(0, 2)))
    if grad_padded is None:
        return None
    return grad_padded[:, :, plan.pad_left : plan.pad_left + length]


def _relu_(data: np.ndarray) -> None:
    """In-place ReLU with the exact bits of :meth:`Tensor.relu`."""
    np.multiply(data, data > 0, out=data)


def _pad_input(
    data: np.ndarray, pad_left: int, pad_right: int
) -> np.ndarray:
    """Zero-pad the last axis, keeping the dtype (allocate + slice-assign;
    ``np.pad`` costs ~100µs of pure-Python shape juggling per call, real
    money at this call rate)."""
    if not (pad_left or pad_right):
        return data
    batch, channels, length = data.shape
    padded = np.zeros(
        (batch, channels, length + pad_left + pad_right), dtype=data.dtype
    )
    padded[:, :, pad_left : pad_left + length] = data
    return padded


# Kernel pairs (see _ConvPlan for the contract).  Each exists once and
# serves both conv1d and residual_block.


def _taps_forward(
    plan: _ConvPlan, padded: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Small-kernel GEMM path: K accumulated batched GEMMs, no packing.

    Each tap ``k`` contributes ``W[:, :, k] @ x_padded[:, :, k·d :]`` —
    a ``(O, C) @ (B, C, L_out)`` batched GEMM against a strided *view*
    of the padded input.  These convs are memory-bound at TriAD's
    shapes, so skipping the im2col pack (3× the input's traffic for
    ``K=3``) and reusing one scratch buffer per call via ``out=`` is
    worth more than any GEMM-efficiency gain from a single big matrix.
    """
    dilation, stride, full_length = plan.dilation, plan.stride, plan.full_length
    # (K, O, C) contiguous so each tap's GEMM operand needs no gather.
    w_taps = np.ascontiguousarray(weight.transpose(2, 0, 1))
    out = np.matmul(w_taps[0], padded[:, :, 0:full_length:stride])
    if len(w_taps) > 1:
        scratch = np.empty_like(out)
        for k in range(1, len(w_taps)):
            start = k * dilation
            np.matmul(
                w_taps[k],
                padded[:, :, start : start + full_length : stride],
                out=scratch,
            )
            out += scratch
    return out, w_taps


def _taps_backward(
    plan: _ConvPlan,
    grad: np.ndarray,
    padded: np.ndarray,
    weight: np.ndarray,
    w_taps: np.ndarray,
    need_weight: bool,
    need_input: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    dilation, stride, full_length = plan.dilation, plan.stride, plan.full_length
    batch, in_channels, _ = padded.shape
    out_channels, _, kernel_size = weight.shape
    grad_w = grad_padded = None
    if need_weight:
        grad_w = np.empty_like(weight)
        scratch = np.empty(
            (batch, out_channels, in_channels), dtype=np.result_type(grad, padded)
        )
        for k in range(kernel_size):
            start = k * dilation
            tap = padded[:, :, start : start + full_length : stride]
            np.matmul(grad, tap.transpose(0, 2, 1), out=scratch)
            grad_w[:, :, k] = scratch.sum(axis=0)
    if need_input:
        grad_padded = np.zeros_like(padded)
        scratch = np.empty(
            (batch, in_channels, plan.out_length), dtype=np.result_type(w_taps, grad)
        )
        for k in range(kernel_size):
            start = k * dilation
            np.matmul(w_taps[k].transpose(1, 0), grad, out=scratch)
            grad_padded[:, :, start : start + full_length : stride] += scratch
    return grad_w, grad_padded


def _im2col_forward(
    plan: _ConvPlan, padded: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Wide-kernel im2col path: one contiguous tap-matrix, BLAS everywhere.

    ``sliding_window_view`` exposes every dilated tap as a zero-copy
    strided view; a single ``ascontiguousarray`` packs the views into a
    ``(batch, in_channels * kernel, out_length)`` operand (the only data
    movement on the forward path) so the forward pass is one batched
    GEMM producing ``(batch, out_channels, out_length)`` directly, and
    the backward pass is two batched GEMMs plus a K-tap strided
    scatter-add.  Worth the pack only past ``TAP_GEMM_MAX_K`` taps —
    below that :func:`_taps_forward` does strictly less memory traffic.
    """
    batch, in_channels, _ = padded.shape
    out_channels, _, kernel_size = weight.shape
    # (B, C, K, L_out): tap axis ahead of the output axis, so the packed
    # matrix multiplies against the (O, C*K) kernel with no transposes.
    taps = np.lib.stride_tricks.sliding_window_view(
        padded, plan.span + 1, axis=2
    )[:, :, :: plan.stride, :: plan.dilation]
    cols = np.ascontiguousarray(taps.transpose(0, 1, 3, 2)).reshape(
        batch, in_channels * kernel_size, plan.out_length
    )
    return np.matmul(weight.reshape(out_channels, -1), cols), cols


def _im2col_backward(
    plan: _ConvPlan,
    grad: np.ndarray,
    padded: np.ndarray,
    weight: np.ndarray,
    cols: np.ndarray,
    need_weight: bool,
    need_input: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    dilation, stride, full_length = plan.dilation, plan.stride, plan.full_length
    batch, in_channels, _ = padded.shape
    out_channels, _, kernel_size = weight.shape
    grad_w = grad_padded = None
    if need_weight:
        grad_w = np.matmul(grad, cols.transpose(0, 2, 1)).sum(axis=0)
        grad_w = grad_w.reshape(weight.shape)
    if need_input:
        grad_cols = np.matmul(weight.reshape(out_channels, -1).T, grad)
        grad_taps = grad_cols.reshape(
            batch, in_channels, kernel_size, plan.out_length
        )
        grad_padded = np.zeros_like(padded)
        for k in range(kernel_size):
            grad_padded[
                :, :, k * dilation : k * dilation + full_length : stride
            ] += grad_taps[:, :, k, :]
    return grad_w, grad_padded


def _fft_forward(
    plan: _ConvPlan, padded: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, int]]:
    """FFT path: correlation as a frequency-domain product.

    The dilated kernel is embedded into a dense ``span + 1`` tap buffer,
    both operands are transformed once, and forward/backward each reduce
    to one complex einsum + inverse transform.  Strides > 1 subsample
    the dense output (and zero-stuff the gradient back up), so this path
    is only auto-selected at stride 1 where nothing is wasted.
    """
    from scipy.fft import next_fast_len  # core dependency; lazy keeps import light

    out_channels, in_channels, _ = weight.shape
    n_fft = next_fast_len(padded.shape[2])
    freq_x = np.fft.rfft(padded, n_fft, axis=2)  # (B, C, F)
    dense_kernel = np.zeros((out_channels, in_channels, plan.span + 1))
    dense_kernel[:, :, :: plan.dilation] = weight
    freq_w = np.fft.rfft(dense_kernel, n_fft, axis=2)  # (O, C, F)

    # Cross-correlation (the NN convention): X * conj(W) in frequency.
    freq_out = np.einsum("bcf,ocf->bof", freq_x, freq_w.conj(), optimize=True)
    dense = np.fft.irfft(freq_out, n_fft, axis=2)
    out = np.ascontiguousarray(dense[:, :, : plan.full_length : plan.stride])
    return out, (freq_x, freq_w, n_fft)


def _fft_backward(
    plan: _ConvPlan,
    grad: np.ndarray,
    padded: np.ndarray,
    weight: np.ndarray,
    saved: tuple[np.ndarray, np.ndarray, int],
    need_weight: bool,
    need_input: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    freq_x, freq_w, n_fft = saved
    if plan.stride > 1:
        dense_grad = np.zeros(grad.shape[:2] + (plan.full_length,))
        dense_grad[:, :, :: plan.stride] = grad
    else:
        dense_grad = grad
    freq_grad = np.fft.rfft(dense_grad, n_fft, axis=2)  # (B, O, F)
    grad_w = grad_padded = None
    if need_weight:
        freq_gw = np.einsum("bcf,bof->ocf", freq_x, freq_grad.conj(), optimize=True)
        corr = np.fft.irfft(freq_gw, n_fft, axis=2)
        grad_w = corr[:, :, : plan.span + 1 : plan.dilation]
    if need_input:
        # d/dx is the *convolution* of the gradient with the kernel:
        # plain product (no conjugate) in frequency.
        freq_gx = np.einsum("bof,ocf->bcf", freq_grad, freq_w, optimize=True)
        grad_padded = np.fft.irfft(freq_gx, n_fft, axis=2)
    return grad_w, grad_padded


def _reference_forward(
    plan: _ConvPlan, padded: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The original per-tap gather implementation (equivalence oracle).

    Every fast path must match it in forward values and in the
    gradients it routes to ``x``, ``weight`` and ``bias``
    (``tests/nn/test_conv_fastpath.py``), and whole training runs on it
    must match the fast stack's losses to 1e-9
    (``tests/core/test_trainer.py::TestReferenceStack``).
    """
    dilation, stride, full_length = plan.dilation, plan.stride, plan.full_length
    # Gather the K dilated taps as strided views: (B, C_in, K, L_out).
    taps = np.stack(
        [
            padded[:, :, k * dilation : k * dilation + full_length : stride]
            for k in range(weight.shape[2])
        ],
        axis=2,
    )
    return np.einsum("bckl,ock->bol", taps, weight, optimize=True), taps


def _reference_backward(
    plan: _ConvPlan,
    grad: np.ndarray,
    padded: np.ndarray,
    weight: np.ndarray,
    taps: np.ndarray,
    need_weight: bool,
    need_input: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    dilation, stride, full_length = plan.dilation, plan.stride, plan.full_length
    grad_w = grad_padded = None
    if need_weight:
        grad_w = np.einsum("bol,bckl->ock", grad, taps, optimize=True)
    if need_input:
        grad_taps = np.einsum("bol,ock->bckl", grad, weight, optimize=True)
        grad_padded = np.zeros_like(padded)
        for k in range(weight.shape[2]):
            grad_padded[
                :, :, k * dilation : k * dilation + full_length : stride
            ] += grad_taps[:, :, k, :]
    return grad_w, grad_padded


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
