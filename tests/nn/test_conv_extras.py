"""Tests for strided and causal conv1d."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F

from .gradcheck import check_gradients


class TestStride:
    def test_output_length(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 20)))
        w = Tensor(rng.normal(size=(1, 1, 3)))
        out = F.conv1d(x, w, padding="valid", stride=2)
        assert out.shape == (1, 1, 9)  # (20-3)//2 + 1

    def test_stride_subsamples_stride_one_result(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 30)))
        w = Tensor(rng.normal(size=(4, 3, 3)))
        dense = F.conv1d(x, w, padding="valid", stride=1).data
        strided = F.conv1d(x, w, padding="valid", stride=3).data
        assert np.allclose(strided, dense[:, :, ::3])

    def test_invalid_stride(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 10)))
        w = Tensor(rng.normal(size=(1, 1, 3)))
        with pytest.raises(ValueError):
            F.conv1d(x, w, stride=0)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_gradcheck(self, rng, stride):
        x = Tensor(rng.normal(size=(2, 2, 14)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        check_gradients(
            lambda a, b: (F.conv1d(a, b, padding="valid", stride=stride) ** 2).sum(),
            [x, w],
        )

    def test_layer_stride_parameter(self, rng):
        layer = nn.Conv1d(1, 2, 3, padding="valid", stride=2, rng=rng)
        out = layer(Tensor(rng.normal(size=(1, 1, 21))))
        assert out.shape == (1, 2, 10)


class TestCausalPadding:
    def test_preserves_length(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 16)))
        w = Tensor(rng.normal(size=(1, 1, 3)))
        assert F.conv1d(x, w, padding="causal", dilation=2).shape == (1, 1, 16)

    def test_no_lookahead(self, rng):
        """Output at t must be unchanged by perturbing the future."""
        x_data = rng.normal(size=(1, 1, 24))
        w = Tensor(rng.normal(size=(2, 1, 3)))
        out_a = F.conv1d(Tensor(x_data), w, padding="causal", dilation=2).data
        perturbed = x_data.copy()
        perturbed[:, :, 12:] += 100.0
        out_b = F.conv1d(Tensor(perturbed), w, padding="causal", dilation=2).data
        assert np.allclose(out_a[:, :, :12], out_b[:, :, :12])

    def test_same_padding_does_look_ahead(self, rng):
        """Contrast: symmetric padding is not causal."""
        x_data = rng.normal(size=(1, 1, 24))
        w = Tensor(rng.normal(size=(1, 1, 3)))
        out_a = F.conv1d(Tensor(x_data), w, padding="same").data
        perturbed = x_data.copy()
        perturbed[:, :, 12:] += 100.0
        out_b = F.conv1d(Tensor(perturbed), w, padding="same").data
        assert not np.allclose(out_a[:, :, :12], out_b[:, :, :12])

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 10)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        check_gradients(
            lambda a, b: (F.conv1d(a, b, padding="causal", dilation=2) ** 2).sum(),
            [x, w],
        )
