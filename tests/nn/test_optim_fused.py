"""Bit-identity tests for the in-place Adam step.

``step()`` replays the textbook update rule with in-place ufuncs over
preallocated scratch — same operations, same rounding order — so
trajectories must be *bit-identical* to the allocation-per-step rule
below, not merely close.  ``np.array_equal`` (no tolerance) is the
whole point of these tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Parameter


def adam_reference(opt: nn.Adam) -> None:
    """The textbook Adam update: the oracle the in-place ``step()`` must
    match.  It reads and advances the optimizer's own state (moments,
    step count)."""
    opt._step_count += 1
    bias1 = 1.0 - opt.beta1**opt._step_count
    bias2 = 1.0 - opt.beta2**opt._step_count
    for param, m, v in zip(opt.parameters, opt._m, opt._v):
        if param.grad is None:
            continue
        grad = param.grad
        m *= opt.beta1
        m += (1.0 - opt.beta1) * grad
        v *= opt.beta2
        v += (1.0 - opt.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


FACTORIES = {"adam": lambda params: nn.Adam(params, lr=0.01)}


def _trajectory(factory, fused: bool, steps: int = 50) -> list[np.ndarray]:
    """Parameter snapshots after each step on a fixed gradient stream."""
    rng = np.random.default_rng(99)
    params = [
        Parameter(rng.normal(size=(4, 3))),
        Parameter(rng.normal(size=7)),
    ]
    optimizer = factory(params)
    grad_rng = np.random.default_rng(7)
    step = optimizer.step if fused else lambda: adam_reference(optimizer)
    snapshots = []
    for _ in range(steps):
        for p in params:
            p.grad = grad_rng.normal(size=p.shape)
        step()
        snapshots.append([p.data.copy() for p in params])
    return snapshots


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_fused_matches_reference_exactly(self, name):
        fused = _trajectory(FACTORIES[name], fused=True)
        reference = _trajectory(FACTORIES[name], fused=False)
        for step, (got, want) in enumerate(zip(fused, reference)):
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (
                    f"{name}: fused step {step} diverged from reference"
                )

    def test_fused_skips_missing_gradients(self):
        p = Parameter(np.ones(3))
        q = Parameter(np.ones(3))
        optimizer = nn.Adam([p, q], lr=0.1)
        p.grad = np.full(3, 0.5)
        optimizer.step()  # q.grad is None — must be left untouched
        assert np.array_equal(q.data, np.ones(3))
        assert not np.array_equal(p.data, np.ones(3))

