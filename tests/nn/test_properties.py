"""Hypothesis property tests for the autodiff engine.

The central invariant: for any composition of supported ops, the
analytic gradient matches central finite differences.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor

from .gradcheck import check_gradients

SETTINGS = dict(max_examples=25, deadline=None)

small_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
    elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@given(small_arrays)
@settings(**SETTINGS)
def test_add_gradient_is_ones(data):
    x = Tensor(data, requires_grad=True)
    (x + x).sum().backward()
    assert np.allclose(x.grad, 2.0)


@given(small_arrays)
@settings(**SETTINGS)
def test_sum_then_backward_matches_numeric(data):
    x = Tensor(data + 0.2, requires_grad=True)  # keep away from kinks
    check_gradients(lambda a: (a * a).sum(), [x])


@given(small_arrays, st.sampled_from(["tanh", "sigmoid", "exp"]))
@settings(**SETTINGS)
def test_smooth_unary_gradients(data, op):
    x = Tensor(np.clip(data, -2.0, 2.0), requires_grad=True)
    check_gradients(lambda a: getattr(a, op)().sum(), [x], atol=1e-4)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
)
@settings(**SETTINGS)
def test_matmul_chain_gradient(data):
    x = Tensor(data, requires_grad=True)
    w = Tensor(np.linspace(-1, 1, data.shape[1] * 2).reshape(data.shape[1], 2))
    check_gradients(lambda a: ((a @ w) ** 2).sum(), [x])


@given(small_arrays)
@settings(**SETTINGS)
def test_reshape_preserves_gradient_mass(data):
    x = Tensor(data, requires_grad=True)
    x.reshape(-1).sum().backward()
    assert np.allclose(x.grad, 1.0)


@given(small_arrays)
@settings(**SETTINGS)
def test_detach_blocks_gradient(data):
    x = Tensor(data, requires_grad=True)
    y = x * 2
    z = y.detach() * 3 + x
    z.sum().backward()
    # Only the direct `+ x` path contributes.
    assert np.allclose(x.grad, 1.0)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 5),),
        elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    )
)
@settings(**SETTINGS)
def test_mean_gradient_uniform(data):
    x = Tensor(data, requires_grad=True)
    x.mean().backward()
    assert np.allclose(x.grad, 1.0 / data.size)
