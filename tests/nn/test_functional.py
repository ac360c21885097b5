"""Tests for repro.nn.functional against scipy/numpy oracles."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import log_softmax as sp_log_softmax
from scipy.special import softmax as sp_softmax

from repro.nn import Tensor
from repro.nn import functional as F

from .gradcheck import check_gradients


class TestConv1d:
    def test_same_padding_preserves_length(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 17)))
        w = Tensor(rng.normal(size=(5, 3, 3)))
        out = F.conv1d(x, w, padding="same")
        assert out.shape == (2, 5, 17)

    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_same_padding_with_dilation(self, rng, dilation):
        x = Tensor(rng.normal(size=(1, 2, 32)))
        w = Tensor(rng.normal(size=(4, 2, 3)))
        assert F.conv1d(x, w, dilation=dilation).shape == (1, 4, 32)

    def test_valid_padding_length(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 10)))
        w = Tensor(rng.normal(size=(1, 1, 3)))
        assert F.conv1d(x, w, padding="valid").shape == (1, 1, 8)

    def test_matches_scipy_correlate(self, rng):
        """conv1d is cross-correlation, the NN convention."""
        x = rng.normal(size=10)
        w = rng.normal(size=3)
        out = F.conv1d(
            Tensor(x[None, None, :]), Tensor(w[None, None, :]), padding="valid"
        ).data.ravel()
        expected = np.correlate(x, w, mode="valid")
        assert np.allclose(out, expected)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 8)))
        w = Tensor(np.zeros((2, 1, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv1d(x, w, b).data
        assert np.allclose(out[0, 0], 1.5)
        assert np.allclose(out[0, 1], -2.0)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 8)))
        w = Tensor(rng.normal(size=(1, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            F.conv1d(x, w)

    def test_too_short_input_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 2)))
        w = Tensor(rng.normal(size=(1, 1, 5)))
        with pytest.raises(ValueError, match="too short"):
            F.conv1d(x, w, padding="valid")

    @pytest.mark.parametrize("dilation,padding", [(1, "same"), (2, "same"), (1, "valid"), (3, 2)])
    def test_gradients(self, rng, dilation, padding):
        x = Tensor(rng.normal(size=(2, 2, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda a, ww, bb: (F.conv1d(a, ww, bb, dilation=dilation, padding=padding) ** 2).sum(),
            [x, w, b],
        )


class TestSoftmaxFamily:
    def test_softmax_matches_scipy(self, rng):
        x = rng.normal(size=(3, 5)) * 10
        assert np.allclose(F.softmax(Tensor(x), axis=-1).data, sp_softmax(x, axis=-1))

    def test_softmax_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(4, 7))), axis=1).data
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_inputs(self):
        out = F.softmax(Tensor([1000.0, 1001.0]), axis=0).data
        assert np.all(np.isfinite(out))

    def test_log_softmax_matches_scipy(self, rng):
        x = rng.normal(size=(2, 6))
        assert np.allclose(
            F.log_softmax(Tensor(x), axis=-1).data, sp_log_softmax(x, axis=-1)
        )

    def test_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda a: (F.softmax(a, axis=-1) * w).sum(), [x])

    def test_log_softmax_gradient(self, rng):
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5)))
        check_gradients(lambda a: (F.log_softmax(a, axis=-1) * w).sum(), [x])


class TestLosses:
    def test_mse(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), np.array([0.0, 0.0]))
        assert np.isclose(loss.item(), 2.5)

    def test_cosine_similarity_identical(self, rng):
        x = Tensor(rng.normal(size=(3, 8)))
        assert np.allclose(F.cosine_similarity(x, x).data, 1.0)

    def test_cosine_similarity_orthogonal(self):
        a = Tensor([[1.0, 0.0]])
        b = Tensor([[0.0, 1.0]])
        assert np.allclose(F.cosine_similarity(a, b).data, 0.0)

    def test_mse_gradient(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        check_gradients(lambda a: F.mse_loss(a, np.zeros(4)), [x])
