"""Tests for multi-head self-attention."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor

from .gradcheck import check_gradients


@pytest.fixture
def attn_rng():
    return np.random.default_rng(3)


class TestMultiHeadSelfAttention:
    def test_output_and_weight_shapes(self, attn_rng):
        attention = nn.MultiHeadSelfAttention(8, num_heads=2, rng=attn_rng)
        out, weights = attention(Tensor(attn_rng.normal(size=(3, 7, 8))))
        assert out.shape == (3, 7, 8)
        assert weights.shape == (3, 2, 7, 7)

    def test_attention_rows_are_distributions(self, attn_rng):
        attention = nn.MultiHeadSelfAttention(8, num_heads=4, rng=attn_rng)
        _, weights = attention(Tensor(attn_rng.normal(size=(2, 5, 8))))
        assert np.allclose(weights.data.sum(axis=-1), 1.0)
        assert np.all(weights.data >= 0)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, num_heads=3)

    def test_gradients_flow(self, attn_rng):
        attention = nn.MultiHeadSelfAttention(4, num_heads=2, rng=attn_rng)
        x = Tensor(attn_rng.normal(size=(1, 3, 4)), requires_grad=True)
        out, _ = attention(x)
        (out * out).sum().backward()
        assert x.grad is not None
        for name, param in attention.named_parameters():
            assert param.grad is not None, name

    def test_gradcheck_small(self, attn_rng):
        attention = nn.MultiHeadSelfAttention(4, num_heads=1, rng=attn_rng)
        x = Tensor(attn_rng.normal(size=(1, 3, 4)), requires_grad=True)
        check_gradients(lambda a: (attention(a)[0] ** 2).sum(), [x], atol=1e-4)

    def test_permutation_equivariance(self, attn_rng):
        """Self-attention without positional encoding is permutation
        equivariant — permuting inputs permutes outputs."""
        attention = nn.MultiHeadSelfAttention(6, num_heads=2, rng=attn_rng)
        x = attn_rng.normal(size=(1, 5, 6))
        perm = np.array([3, 1, 4, 0, 2])
        out, _ = attention(Tensor(x))
        out_perm, _ = attention(Tensor(x[:, perm]))
        assert np.allclose(out.data[:, perm], out_perm.data, atol=1e-10)
