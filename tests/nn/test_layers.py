"""Tests for standard layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


@pytest.fixture
def layer_rng():
    return np.random.default_rng(42)


class TestLinear:
    def test_matches_manual_affine(self, layer_rng):
        layer = nn.Linear(4, 3, rng=layer_rng)
        x = layer_rng.normal(size=(5, 4))
        out = layer(nn.Tensor(x)).data
        expected = x @ layer.weight.data.T + layer.bias.data
        assert np.allclose(out, expected)

    def test_no_bias(self, layer_rng):
        layer = nn.Linear(4, 3, bias=False, rng=layer_rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_applies_over_last_axis(self, layer_rng):
        layer = nn.Linear(4, 3, rng=layer_rng)
        out = layer(nn.Tensor(layer_rng.normal(size=(2, 7, 4))))
        assert out.shape == (2, 7, 3)


class TestConv1dLayer:
    def test_same_length_output(self, layer_rng):
        layer = nn.Conv1d(2, 6, 3, dilation=4, rng=layer_rng)
        out = layer(nn.Tensor(layer_rng.normal(size=(3, 2, 25))))
        assert out.shape == (3, 6, 25)

    def test_parameters_registered(self, layer_rng):
        layer = nn.Conv1d(2, 6, 3, rng=layer_rng)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}


class TestLayerNorm:
    def test_normalizes_last_axis(self, layer_rng):
        layer = nn.LayerNorm(16)
        x = layer_rng.normal(size=(4, 16)) * 5 + 3
        out = layer(nn.Tensor(x)).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_affine_parameters_apply(self, layer_rng):
        layer = nn.LayerNorm(4)
        layer.weight.data[:] = 2.0
        layer.bias.data[:] = 1.0
        out = layer(nn.Tensor(layer_rng.normal(size=(3, 4)))).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)


class TestActivationsAndDropout:
    def test_relu(self):
        out = nn.ReLU()(nn.Tensor([-1.0, 2.0])).data
        assert np.allclose(out, [0.0, 2.0])

    def test_identity(self, layer_rng):
        x = nn.Tensor(layer_rng.normal(size=5))
        assert nn.Identity()(x) is not None
        assert np.allclose(nn.Identity()(x).data, x.data)

