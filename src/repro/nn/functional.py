"""Stateless neural-network operations built on :mod:`repro.nn.tensor`.

Includes the dilated same-padding 1-D convolution at the heart of TriAD's
encoders, numerically-stable softmax family ops with custom backward
rules, and the loss helpers shared by the baselines.

``conv1d`` runs one kernel, **taps**: ``K`` accumulated batched GEMMs
directly against strided views of the padded input (see docs/PERF.md).
No tap matrix is ever materialized, and per-call scratch buffers are
reused via ``out=``, which matters because these convs are
memory-bound, not compute-bound.  It is an array-level forward/backward
pair, shared by ``conv1d`` and by :func:`residual_block`, which fuses a
whole TriAD residual block (two convs, biases, ReLUs and the skip add)
into one autograd node.  The per-tap gather it is checked against lives
under ``tests/nn`` as the equivalence oracle.

The kernel returns the dtype of its operands: float32 inputs and
weights (the TriAD encoder) stay float32, float64 ones stay float64.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "conv1d",
    "residual_block",
    "softmax",
    "log_softmax",
    "mse_loss",
    "cosine_similarity",
]


class _ConvPlan(NamedTuple):
    """One convolution's validated geometry."""

    dilation: int
    stride: int
    pad_left: int
    pad_right: int
    full_length: int
    out_length: int


def _plan_conv1d(
    x_shape: tuple[int, ...],
    w_shape: tuple[int, ...],
    dilation: int,
    padding: str | int,
    stride: int,
) -> _ConvPlan:
    """Validate shapes and padding and derive the output geometry."""
    _, in_channels, length = x_shape
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
    elif isinstance(padding, (int, np.integer)) and padding >= 0:
        pad_left = pad_right = padding
    else:
        raise ValueError(
            f"padding must be 'same', 'valid', 'causal' or a non-negative "
            f"int, got {padding!r}"
        )
    full_length = length + pad_left + pad_right - span
    if full_length <= 0:
        raise ValueError("input too short for kernel/dilation combination")
    out_length = (full_length - 1) // stride + 1
    return _ConvPlan(dilation, stride, pad_left, pad_right, full_length, out_length)


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

    Each convolution runs the kernel pair :func:`conv1d` runs and the
    arithmetic happens in the same order, so output and all seven
    gradients equal the layered ``conv1d → relu → conv1d + skip → relu``
    composition exactly.  What changes is memory: bias and ReLU are
    applied in place on each conv's output, and the node keeps only the
    padded input, the padded hidden map and the output — where the
    layered graph holds about seven activation arrays per block, each
    with its own gradient.  conv1's output is padded with one copy
    rather than computed inside the padded buffer: numpy's bias and ReLU
    passes over that buffer's strided interior cost more than the copy
    saves.
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
    """Run the taps kernel on an already padded input and add the bias
    in place; returns ``(out, saved)`` for :func:`_conv_backward`."""
    out, saved = _taps_forward(plan, padded, weight.data)
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
    grad_w, grad_padded = _taps_backward(
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


# The taps kernel pair.  ``_taps_forward(plan, padded, weight) -> (out,
# saved)`` returns the bias-free correlation of the padded input with
# ``weight`` plus what its backward needs beyond those two arrays.
# ``_taps_backward(plan, grad, padded, weight, saved, need_weight,
# need_input) -> (grad_weight, grad_padded)`` returns ``None`` for a
# gradient it was not asked for; ``grad_padded`` is laid out like
# ``padded``, so callers slice the input's own span back out.  Both are
# looked up at call time, so a test can swap in its oracle pair.


def _taps_forward(
    plan: _ConvPlan, padded: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """GEMM path: K accumulated batched GEMMs, no packing.

    Each tap ``k`` contributes ``W[:, :, k] @ x_padded[:, :, k·d :]`` —
    a ``(O, C) @ (B, C, L_out)`` batched GEMM against a strided *view*
    of the padded input.  These convs are memory-bound at TriAD's
    shapes, so skipping an im2col pack (3× the input's traffic for
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


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error over all elements."""
    diff = as_tensor(prediction) - as_tensor(target)
    return (diff * diff).mean()


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity between ``a`` and ``b`` along ``axis``."""
    a = as_tensor(a)
    b = as_tensor(b)
    dot = (a * b).sum(axis=axis)
    norm_a = ((a * a).sum(axis=axis) + eps).sqrt()
    norm_b = ((b * b).sum(axis=axis) + eps).sqrt()
    return dot / (norm_a * norm_b)
