"""Equivalence and gradient tests for the ``conv1d`` taps kernel.

The reference implementation below (per-tap ``np.stack`` + einsum) is
the oracle: the taps kernel (accumulated per-tap GEMMs) must agree with
it in forward values and in the gradients it routes to ``x``, ``weight``
and ``bias``, across the full padding × stride × dilation grid.
:func:`reference_conv` swaps it in for the taps pair, so other suites
(the fused residual block, the float32 kernels, whole training runs in
``tests/core/test_trainer.py``) run against the same oracle.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from .gradcheck import check_gradients


def _reference_forward(plan, padded, weight):
    """The original per-tap gather: stack the K dilated taps as strided
    views ``(B, C_in, K, L_out)`` and contract them with one einsum."""
    dilation, stride, full_length = plan.dilation, plan.stride, plan.full_length
    taps = np.stack(
        [
            padded[:, :, k * dilation : k * dilation + full_length : stride]
            for k in range(weight.shape[2])
        ],
        axis=2,
    )
    return np.einsum("bckl,ock->bol", taps, weight, optimize=True), taps


def _reference_backward(plan, grad, padded, weight, taps, need_weight, need_input):
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


@contextlib.contextmanager
def reference_conv():
    """Run every convolution on the reference pair for the ``with``
    block, in place of the taps kernel."""
    taps = F._taps_forward, F._taps_backward
    F._taps_forward, F._taps_backward = _reference_forward, _reference_backward
    try:
        yield
    finally:
        F._taps_forward, F._taps_backward = taps


def conv_context(mode):
    """``reference_conv()`` for ``"reference"``, the taps kernel otherwise."""
    return reference_conv() if mode == "reference" else contextlib.nullcontext()

PADDINGS = ["same", "valid", "causal", 2, 0]
STRIDES = [1, 2, 3]
DILATIONS = [1, 2, 3]


def _run(mode, x_data, w_data, b_data, **kwargs):
    """Forward + backward on the taps kernel (``"gemm"``) or the oracle
    (``"reference"``); returns (out, grads)."""
    with conv_context(mode):
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True) if b_data is not None else None
        out = F.conv1d(x, w, b, **kwargs)
        # A fixed non-uniform cotangent so backward bugs can't cancel.
        seed = np.sin(np.arange(out.data.size)).reshape(out.shape)
        (out * Tensor(seed)).sum().backward()
    grads = [x.grad, w.grad] + ([b.grad] if b is not None else [])
    return out.data, grads


class TestModeEquivalence:
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("dilation", DILATIONS)
    def test_gemm_matches_reference(self, rng, padding, stride, dilation):
        x = rng.normal(size=(2, 3, 23))
        w = rng.normal(size=(4, 3, 3))
        b = rng.normal(size=4)
        ref_out, ref_grads = _run(
            "reference", x, w, b, padding=padding, stride=stride, dilation=dilation
        )
        out, grads = _run(
            "gemm", x, w, b, padding=padding, stride=stride, dilation=dilation
        )
        assert np.allclose(out, ref_out, atol=1e-12)
        for got, want in zip(grads, ref_grads):
            assert np.allclose(got, want, atol=1e-12)

    def test_wide_kernel_large_input_taps_branch(self, rng):
        """A K > 8 kernel on a long input runs the per-tap GEMM and
        matches the reference."""
        k = 10
        length = 26_278
        x = rng.normal(size=(2, 2, length))
        w = rng.normal(size=(1, 2, k))
        ref_out, ref_grads = _run("reference", x, w, None, padding="valid")
        out, grads = _run("gemm", x, w, None, padding="valid")
        assert np.allclose(out, ref_out, atol=1e-11)
        for got, want in zip(grads, ref_grads):
            assert np.allclose(got, want, atol=1e-11)


class TestStridedCeilMode:
    """stride > 1 with length-preserving padding is ceil-mode: the
    stride-1 output subsampled from position 0."""

    @pytest.mark.parametrize("padding", ["same", "causal"])
    @pytest.mark.parametrize("stride", [2, 3, 4])
    def test_output_length_is_ceil(self, rng, padding, stride):
        length = 17
        x = Tensor(rng.normal(size=(1, 1, length)))
        w = Tensor(rng.normal(size=(1, 1, 3)))
        out = F.conv1d(x, w, padding=padding, stride=stride)
        assert out.shape[-1] == -(-length // stride)

    @pytest.mark.parametrize("mode", ["gemm", "reference"])
    def test_strided_is_subsampled_stride1(self, rng, mode):
        x = Tensor(rng.normal(size=(1, 2, 19)))
        w = Tensor(rng.normal(size=(3, 2, 3)))
        with conv_context(mode):
            dense = F.conv1d(x, w, padding="same", dilation=2).data
            strided = F.conv1d(x, w, padding="same", dilation=2, stride=2).data
        assert np.allclose(strided, dense[:, :, ::2])


class TestFastPathGradients:
    """Finite-difference checks on the taps kernel itself, including the
    asymmetric-padding backward branches."""

    @pytest.mark.parametrize("mode", ["gemm"])
    def test_causal_pad_right_zero_backward(self, rng, mode):
        """causal padding gives pad_left > 0, pad_right == 0 — the
        backward slice must still drop the left padding only."""
        x = Tensor(rng.normal(size=(1, 2, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        with conv_context(mode):
            check_gradients(
                lambda a, b: F.conv1d(a, b, padding="causal", dilation=2).sum(),
                [x, w],
            )

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("padding", ["same", "valid", 1])
    def test_gemm_gradients(self, rng, stride, padding):
        x = Tensor(rng.normal(size=(2, 2, 11)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        check_gradients(
            lambda a, c, d: F.conv1d(a, c, d, padding=padding, stride=stride).sum(),
            [x, w, b],
        )


@pytest.mark.parametrize("padding", [-1, "full"])
def test_bad_padding_rejected(padding):
    """An unknown padding name or a negative amount is named in the
    error."""
    x = Tensor(np.zeros((1, 1, 10)))
    w = Tensor(np.zeros((1, 1, 3)))
    with pytest.raises(ValueError, match=f"got {padding!r}"):
        F.conv1d(x, w, padding=padding)
