"""The Adam optimizer (the paper's) and global-norm gradient clipping.

``Adam.step()`` is a single in-place pass per parameter over
preallocated moment and scratch buffers.  No per-step temporaries
(``m / bias1``, ``grad ** 2`` …) are allocated, which matters when the
step runs once per contrastive batch inside the trainer's hot loop.
The in-place sequence performs the *same floating-point operations in
the same order* as the textbook update rule, so trajectories are
bit-identical to it (``tests/nn/test_optim_fused.py`` keeps that rule
as the oracle and compares with ``np.array_equal``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Parameter

__all__ = ["Adam", "clip_grad_norm"]


class Adam:
    """Adam (Kingma & Ba) with bias correction — the paper's optimizer."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        if self._scratch is None:
            self._scratch = [
                (np.empty_like(p.data), np.empty_like(p.data))
                for p in self.parameters
            ]
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v, (s1, s2) in zip(
            self.parameters, self._m, self._v, self._scratch
        ):
            if param.grad is None:
                continue
            grad = param.grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1.0 - self.beta1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(grad, grad, out=s1)
            np.multiply(s1, 1.0 - self.beta2, out=s1)
            np.multiply(v, self.beta2, out=v)
            np.add(v, s1, out=v)
            # param -= lr * m_hat / (sqrt(v_hat) + eps), rounded in the same
            # order as that expression (the test oracle evaluates it as is).
            np.divide(m, bias1, out=s1)
            np.multiply(s1, self.lr, out=s1)
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, self.eps, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(param.data, s1, out=param.data)


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in parameters:
            param.grad *= scale
    return total
