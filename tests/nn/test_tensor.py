"""Tests for the autodiff engine in repro.nn.tensor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concatenate, no_grad, stack
from repro.nn.tensor import is_grad_enabled

from .gradcheck import check_gradients


def t(data, grad=True) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestBasics:
    def test_wraps_data_as_float64(self):
        x = Tensor([1, 2, 3])
        assert x.data.dtype == np.float64
        assert x.shape == (3,)
        assert x.size == 3
        assert x.ndim == 1

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_detach_cuts_graph(self):
        x = t([1.0, 2.0])
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_as_tensor_idempotent(self):
        x = Tensor([1.0])
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_backward_requires_grad(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_nonscalar_needs_grad(self):
        x = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_no_grad_suppresses_graph(self):
        x = t([1.0, 2.0])
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2
        assert is_grad_enabled()
        assert not y.requires_grad


class TestArithmeticValues:
    def test_add_sub_mul_div(self):
        x = Tensor([2.0, 4.0])
        y = Tensor([1.0, 2.0])
        assert np.allclose((x + y).data, [3, 6])
        assert np.allclose((x - y).data, [1, 2])
        assert np.allclose((x * y).data, [2, 8])
        assert np.allclose((x / y).data, [2, 2])

    def test_scalar_operands(self):
        x = Tensor([2.0])
        assert np.allclose((1 + x).data, [3])
        assert np.allclose((1 - x).data, [-1])
        assert np.allclose((3 * x).data, [6])
        assert np.allclose((4 / x).data, [2])

    def test_pow(self):
        x = Tensor([2.0, 3.0])
        assert np.allclose((x**2).data, [4, 9])
        with pytest.raises(TypeError):
            _ = x ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_matmul_batched(self):
        a = Tensor(np.random.default_rng(0).normal(size=(5, 2, 3)))
        b = Tensor(np.random.default_rng(1).normal(size=(5, 3, 4)))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_comparison_returns_arrays(self):
        x = Tensor([1.0, 3.0])
        assert np.array_equal(x > 2.0, [False, True])
        assert np.array_equal(x < 2.0, [True, False])


class TestGradients:
    """Analytic gradients must match finite differences for every op."""

    def test_add_broadcast(self, rng):
        x = t(rng.normal(size=(3, 4)))
        y = t(rng.normal(size=(4,)))
        check_gradients(lambda a, b: (a + b).sum(), [x, y])

    def test_mul_broadcast(self, rng):
        x = t(rng.normal(size=(2, 3, 4)))
        y = t(rng.normal(size=(3, 1)))
        check_gradients(lambda a, b: (a * b).sum(), [x, y])

    def test_div(self, rng):
        x = t(rng.normal(size=(3, 4)))
        y = t(rng.uniform(1.0, 2.0, size=(3, 4)))
        check_gradients(lambda a, b: (a / b).sum(), [x, y])

    def test_matmul(self, rng):
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        check_gradients(lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_batched_broadcast(self, rng):
        a = t(rng.normal(size=(5, 3, 4)))
        b = t(rng.normal(size=(4, 2)))
        check_gradients(lambda x, y: ((x @ y) ** 2).sum(), [a, b])

    @pytest.mark.parametrize(
        "op",
        ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs"],
    )
    def test_unary_ops(self, rng, op):
        if op in ("log", "sqrt"):
            x = t(rng.uniform(0.5, 2.0, size=(3, 4)))
        else:
            x = t(rng.normal(size=(3, 4)) + 0.1)  # avoid relu/abs kinks at 0
        check_gradients(lambda a: getattr(a, op)().sum(), [x])

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_sum_mean(self, rng, axis, keepdims):
        x = t(rng.normal(size=(3, 4)))
        check_gradients(lambda a: (a.sum(axis=axis, keepdims=keepdims) ** 2).sum(), [x])
        check_gradients(lambda a: (a.mean(axis=axis, keepdims=keepdims) ** 2).sum(), [x])

    def test_max(self, rng):
        x = t(rng.normal(size=(3, 4)))
        check_gradients(lambda a: a.max(axis=1).sum(), [x])

    def test_var(self, rng):
        x = t(rng.normal(size=(3, 4)))
        check_gradients(lambda a: a.var(axis=1).sum(), [x])

    def test_reshape_transpose(self, rng):
        x = t(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda a: (a.reshape(6, 4).transpose() ** 2).sum(), [x])

    def test_swapaxes(self, rng):
        x = t(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda a: (a.swapaxes(0, 2) ** 3).sum(), [x])

    def test_getitem_slice(self, rng):
        x = t(rng.normal(size=(4, 5)))
        check_gradients(lambda a: (a[1:3, ::2] ** 2).sum(), [x])

    def test_getitem_fancy(self, rng):
        x = t(rng.normal(size=(5,)))
        idx = np.array([0, 2, 2, 4])
        check_gradients(lambda a: (a[idx] ** 2).sum(), [x])

    def test_pad(self, rng):
        x = t(rng.normal(size=(2, 3)))
        check_gradients(lambda a: (a.pad(((1, 2), (0, 1))) ** 2).sum(), [x])

    def test_concatenate(self, rng):
        x = t(rng.normal(size=(2, 3)))
        y = t(rng.normal(size=(2, 2)))
        check_gradients(lambda a, b: (concatenate([a, b], axis=1) ** 2).sum(), [x, y])

    def test_stack(self, rng):
        x = t(rng.normal(size=(3,)))
        y = t(rng.normal(size=(3,)))
        check_gradients(lambda a, b: (stack([a, b], axis=1) ** 2).sum(), [x, y])

    def test_grad_accumulates_over_reuse(self):
        x = t([2.0])
        y = x * x + x  # x used three times
        y.backward()
        assert np.allclose(x.grad, [5.0])  # 2x + 1

    def test_diamond_graph(self):
        x = t([3.0])
        a = x * 2
        b = x + 1
        y = (a * b).sum()
        y.backward()
        # d/dx (2x (x+1)) = 4x + 2
        assert np.allclose(x.grad, [14.0])

    def test_zero_grad(self):
        x = t([1.0])
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None


class TestGradBufferRecycling:
    """zero_grad parks the released gradient array and the next backward
    refills that exact storage instead of allocating a fresh one."""

    def test_zero_grad_parks_buffer(self):
        x = t([1.0, 2.0])
        (x * 2).sum().backward()
        released = x.grad
        x.zero_grad()
        assert x.grad is None
        assert x._grad_buffer is released

    def test_accumulate_refills_parked_buffer(self):
        x = t([1.0, 2.0])
        (x * 2).sum().backward()
        first = x.grad
        x.zero_grad()
        (x * 3).sum().backward()
        assert x.grad is first  # same array object, refilled in place
        assert x._grad_buffer is None
        assert np.allclose(x.grad, [3.0, 3.0])

    def test_shape_mismatch_falls_back_to_fresh_array(self):
        x = t([1.0, 2.0])
        (x * 2).sum().backward()
        x.zero_grad()
        x._grad_buffer = np.zeros(5)  # wrong shape: must not be reused
        (x * 3).sum().backward()
        assert x.grad.shape == (2,)
        assert np.allclose(x.grad, [3.0, 3.0])

    def test_recycled_gradient_values_stay_correct(self):
        x = t([[1.0, -2.0], [0.5, 4.0]])
        for scale in (2.0, -1.0, 0.25):
            x.zero_grad()
            (x * scale).sum().backward()
            assert np.allclose(x.grad, scale)


class TestGraphRelease:
    """backward frees each interior node once its own backward has run:
    only leaves keep a gradient, and a graph backpropagates once."""

    @staticmethod
    def _graph():
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(3, 4)))
        w = t(rng.normal(size=(4, 2)))
        h = x @ w
        a = (h * h).tanh()
        loss = (a + h).sum()
        return (x, w), [h, a, loss], loss

    def test_interior_nodes_hold_no_grad_closure_or_parents(self):
        _, interior, loss = self._graph()
        assert all(node._parents for node in interior)
        loss.backward()
        for node in interior:
            assert node.grad is None
            assert node._parents == ()
            assert node._backward.__closure__ is None  # captures no graph

    def test_leaf_grads_match_a_fresh_identical_graph(self):
        leaves, _, loss = self._graph()
        loss.backward()
        fresh_leaves, _, fresh_loss = self._graph()
        fresh_loss.backward()
        for leaf, fresh in zip(leaves, fresh_leaves):
            assert leaf.grad is not None
            assert np.array_equal(leaf.grad, fresh.grad)

    def test_second_backward_raises_and_leaves_grads_alone(self):
        leaves, interior, loss = self._graph()
        loss.backward()
        grads = [leaf.grad.copy() for leaf in leaves]
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            interior[0].backward(np.ones((3, 2)))
        for leaf, grad in zip(leaves, grads):
            assert np.array_equal(leaf.grad, grad)

    def test_new_graph_through_a_released_node_raises(self):
        _, interior, loss = self._graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            (interior[0] * 2).sum().backward()

    def test_leaf_scalar_backward_repeats(self):
        x = t(2.0)
        x.backward()
        x.backward()
        assert x.grad == 2.0
