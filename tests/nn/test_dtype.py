"""``repro.nn`` keeps the float dtype it is given.

A float32 graph stays float32 end to end — data, Python-scalar
operands, gradients, optimizer moments and the conv kernels' scratch
buffers — so the TriAD encoder can run in float32 while the generic
layers and baselines, which get float64 inputs, stay float64.  The
float32 kernels are pinned against the float64 reference oracle at a
float32 tolerance, and the finite-difference gradcheck refuses float32
inputs outright.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.losses import inter_domain_loss, intra_domain_loss
from repro.nn import Parameter, Tensor
from repro.nn import functional as F

from .gradcheck import check_gradients, numerical_gradient
from .test_conv_fastpath import DILATIONS, PADDINGS, STRIDES, conv_context
from .test_residual_block import DILATIONS as BLOCK_DILATIONS
from .test_residual_block import KERNELS, _arrays, _layered, _run

F32 = np.dtype(np.float32)

#: float32 kernels against the float64 reference: unit-scale operands,
#: at most a few dozen products per output, so ~1e-6 relative error.
F32_ATOL = 1e-5


def f32(array, grad=True) -> Tensor:
    return Tensor(np.asarray(array, dtype=np.float32), requires_grad=grad)


class TestTensorDtype:
    def test_float32_data_kept(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == F32

    @pytest.mark.parametrize("data", [[1, 2, 3], np.arange(3), [True, False], 2.5])
    def test_non_float_data_becomes_float64(self, data):
        assert Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x * 0.5,
            lambda x: 0.5 * x,
            lambda x: x + 1,
            lambda x: 1.0 - x,
            lambda x: x - 1e-12,
            lambda x: x / 3.0,
            lambda x: 2.0 / (x + 2.0),
            lambda x: (x**2).sqrt(),
            lambda x: (x * 0.0).sum(),
        ],
        ids=["mul", "rmul", "add", "rsub", "sub", "div", "rdiv", "pow", "zero_sum"],
    )
    def test_python_scalars_do_not_upcast(self, rng, op):
        """NEP 50: a Python number is weak, so it must not turn into a
        float64 array that promotes the float32 graph."""
        x = f32(rng.normal(size=(2, 3)))
        out = op(x)
        out.sum().backward()
        assert out.data.dtype == F32
        assert x.grad.dtype == F32

    def test_grad_follows_data_dtype(self, rng):
        x = f32(rng.normal(size=(3, 4)))
        w = f32(rng.normal(size=(4, 2)))
        (x @ w).relu().mean().backward()
        assert x.grad.dtype == w.grad.dtype == F32

    def test_float64_operand_still_promotes(self, rng):
        """Arrays keep numpy's rules: mixing in float64 data is the
        caller's explicit choice."""
        x = f32(rng.normal(size=3))
        assert (x * np.ones(3)).data.dtype == np.float64

    def test_adam_moments_follow_parameters(self, rng):
        param = Parameter(rng.normal(size=(3, 2)).astype(np.float32))
        optimizer = nn.Adam([param], lr=0.01)
        for _ in range(3):
            optimizer.zero_grad()
            ((param * param).sum() * 0.5).backward()
            optimizer.step()
        assert param.data.dtype == param.grad.dtype == F32
        assert {m.dtype for m in optimizer._m + optimizer._v} == {F32}

    def test_contrastive_losses_stay_float32(self, rng):
        reps = {
            d: f32(rng.normal(size=(4, 6)) / 3.0) for d in ("temporal", "residual")
        }
        intra = intra_domain_loss(reps["temporal"], reps["residual"])
        inter = inter_domain_loss(reps)
        (intra + inter).backward()
        assert intra.data.dtype == inter.data.dtype == F32
        assert {r.grad.dtype for r in reps.values()} == {F32}


def _assert_float32_matches_reference(arrays, **conv_kwargs):
    """conv1d forward and gradients under ``auto`` in float32 against the
    float64 reference kernel, at ``F32_ATOL``."""
    seed = None
    results = []
    for dtype, run_mode in ((np.float64, "reference"), (np.float32, "auto")):
        tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        with conv_context(run_mode):
            out = F.conv1d(*tensors, **conv_kwargs)
            if seed is None:
                seed = np.sin(np.arange(out.data.size)).reshape(out.shape)
            (out * Tensor(seed.astype(dtype))).sum().backward()
        results.append([out.data] + [t.grad for t in tensors])
    for want, got in zip(*results):
        assert got.dtype == F32
        np.testing.assert_allclose(got, want, rtol=0, atol=F32_ATOL)


class TestFloat32Kernels:
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("dilation", DILATIONS)
    def test_taps_float32_matches_float64_reference(
        self, rng, padding, stride, dilation
    ):
        arrays = rng.normal(size=(2, 3, 23)), rng.normal(size=(4, 3, 3)), rng.normal(size=4)
        _assert_float32_matches_reference(
            arrays, padding=padding, stride=stride, dilation=dilation
        )

    @pytest.mark.parametrize("batch, x_grad", [(1, True), (3, True), (3, False)])
    @pytest.mark.parametrize("projection", [True, False], ids=["projection", "identity"])
    @pytest.mark.parametrize("dilation", BLOCK_DILATIONS)
    @pytest.mark.parametrize("kernel_size", KERNELS)
    def test_residual_block_float32_fused_equals_layered(
        self, rng, kernel_size, dilation, projection, batch, x_grad
    ):
        """The fused block equals its layered composition bit for bit in
        float32 too, on the float64 test's full grid up to ``K=48``: the
        same kernels in the same order, in one dtype."""
        arrays = [
            a.astype(np.float32) for a in _arrays(rng, batch, kernel_size, projection)
        ]
        want_out, want_grads = _run(_layered, "auto", arrays, dilation, x_grad)
        got_out, got_grads = _run(F.residual_block, "auto", arrays, dilation, x_grad)
        assert got_out.dtype == F32
        assert np.array_equal(got_out, want_out)
        for got, want in zip(got_grads, want_grads):
            if want is None:
                assert got is None
            else:
                assert got.dtype == F32
                assert np.array_equal(got, want)


class TestGradcheckRefusesFloat32:
    def test_check_gradients_raises_type_error(self, rng):
        x = f32(rng.normal(size=3))
        with pytest.raises(TypeError, match="float64"):
            check_gradients(lambda a: (a * a).sum(), [x])

    def test_numerical_gradient_raises_type_error(self, rng):
        inputs = [Tensor(rng.normal(size=3), requires_grad=True), f32(rng.normal(size=3))]
        with pytest.raises(TypeError, match="input 1 is float32"):
            numerical_gradient(lambda a, b: (a * b).sum(), inputs, 0)

    def test_float64_inputs_still_checked(self, rng):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        check_gradients(lambda a: (a * a * a).sum(), [x])
