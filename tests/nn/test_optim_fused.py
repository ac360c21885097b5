"""Bit-identity tests for the in-place optimizer steps.

Each ``step()`` replays the textbook update rule with in-place ufuncs
over preallocated scratch — same operations, same rounding order — so
trajectories must be *bit-identical* to the allocation-per-step rules
below, not merely close.  ``np.array_equal`` (no tolerance) is the
whole point of these tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Parameter


# Reference update rules: the oracle each in-place ``step()`` must match.
# They read and advance the optimizer's own state (moments, step count).


def _sgd_reference(opt: nn.SGD) -> None:
    for param, velocity in zip(opt.parameters, opt._velocity):
        if param.grad is None:
            continue
        grad = param.grad
        if opt.weight_decay:
            grad = grad + opt.weight_decay * param.data
        if opt.momentum:
            velocity *= opt.momentum
            velocity += grad
            grad = velocity
        param.data -= opt.lr * grad


def _adam_reference(opt: nn.Adam) -> None:
    opt._step_count += 1
    bias1 = 1.0 - opt.beta1**opt._step_count
    bias2 = 1.0 - opt.beta2**opt._step_count
    for param, m, v in zip(opt.parameters, opt._m, opt._v):
        if param.grad is None:
            continue
        grad = param.grad
        if opt.weight_decay:
            grad = grad + opt.weight_decay * param.data
        m *= opt.beta1
        m += (1.0 - opt.beta1) * grad
        v *= opt.beta2
        v += (1.0 - opt.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


def _adamw_reference(opt: nn.AdamW) -> None:
    if opt.decoupled_weight_decay:
        for param in opt.parameters:
            if param.grad is not None:
                param.data -= opt.lr * opt.decoupled_weight_decay * param.data
    _adam_reference(opt)


def _rmsprop_reference(opt: nn.RMSProp) -> None:
    for param, square_avg in zip(opt.parameters, opt._square_avg):
        if param.grad is None:
            continue
        square_avg *= opt.alpha
        square_avg += (1.0 - opt.alpha) * param.grad**2
        param.data -= opt.lr * param.grad / (np.sqrt(square_avg) + opt.eps)


REFERENCE = {
    nn.SGD: _sgd_reference,
    nn.Adam: _adam_reference,
    nn.AdamW: _adamw_reference,
    nn.RMSProp: _rmsprop_reference,
}

FACTORIES = {
    "sgd": lambda params: nn.SGD(params, lr=0.05),
    "sgd_momentum": lambda params: nn.SGD(params, lr=0.05, momentum=0.9),
    "sgd_wd": lambda params: nn.SGD(params, lr=0.05, weight_decay=0.01),
    "sgd_momentum_wd": lambda params: nn.SGD(
        params, lr=0.05, momentum=0.9, weight_decay=0.01
    ),
    "adam": lambda params: nn.Adam(params, lr=0.01),
    "adam_wd": lambda params: nn.Adam(params, lr=0.01, weight_decay=0.01),
    "adamw": lambda params: nn.AdamW(params, lr=0.01, weight_decay=0.02),
    "rmsprop": lambda params: nn.RMSProp(params, lr=0.01),
}


def _trajectory(factory, fused: bool, steps: int = 50) -> list[np.ndarray]:
    """Parameter snapshots after each step on a fixed gradient stream."""
    rng = np.random.default_rng(99)
    params = [
        Parameter(rng.normal(size=(4, 3))),
        Parameter(rng.normal(size=7)),
    ]
    optimizer = factory(params)
    grad_rng = np.random.default_rng(7)
    step = optimizer.step if fused else lambda: REFERENCE[type(optimizer)](optimizer)
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

