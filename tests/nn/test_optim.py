"""Tests for the Adam optimizer and gradient clipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Parameter, Tensor


def quadratic_loss(param: Parameter) -> Tensor:
    """(p - 3)^2 summed — minimized at 3."""
    diff = param - Tensor(np.full(param.shape, 3.0))
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4))
        optimizer = nn.Adam([p], lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(p).backward()
            optimizer.step()
        assert np.allclose(p.data, 3.0, atol=1e-3)

    def test_bias_correction_first_step(self):
        """First Adam step should move by roughly lr regardless of grad scale."""
        for scale in (1e-3, 1e3):
            p = Parameter(np.zeros(1))
            optimizer = nn.Adam([p], lr=0.1)
            optimizer.zero_grad()
            (p * scale).sum().backward()
            optimizer.step()
            assert np.isclose(abs(float(p.data[0])), 0.1, rtol=1e-3)

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(3))
        p.grad = np.array([3.0, 4.0, 0.0])  # norm 5
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert np.isclose(norm, 5.0)
        assert np.isclose(np.linalg.norm(p.grad), 1.0)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])
        nn.clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, [0.3, 0.4])

    def test_ignores_gradless_parameters(self):
        p = Parameter(np.zeros(2))
        assert nn.clip_grad_norm([p], max_norm=1.0) == 0.0
