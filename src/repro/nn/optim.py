"""Gradient-descent optimizers: SGD (with momentum), Adam, AdamW, RMSProp.

Each ``step()`` is a single in-place pass per parameter over
preallocated moment and scratch buffers.  No per-step temporaries
(``grad + wd * param``, ``m / bias1``, ``grad ** 2`` …) are allocated,
which matters when the step runs once per contrastive batch inside the
trainer's hot loop.  The in-place sequence performs the *same
floating-point operations in the same order* as the textbook update
rules, so trajectories are bit-identical to them
(``tests/nn/test_optim_fused.py`` keeps those rules as the oracle and
compares with ``np.array_equal``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .module import Parameter

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "RMSProp",
    "clip_grad_norm",
]


class Optimizer:
    """Base optimizer holding a flat list of parameters."""

    def __init__(self, parameters: Iterable[Parameter]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: list[np.ndarray] | None = None

    def step(self) -> None:
        if self._scratch is None:
            self._scratch = [np.empty_like(p.data) for p in self.parameters]
        for param, velocity, scratch in zip(
            self.parameters, self._velocity, self._scratch
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=scratch)
                np.add(grad, scratch, out=scratch)
                grad = scratch
            if self.momentum:
                np.multiply(velocity, self.momentum, out=velocity)
                np.add(velocity, grad, out=velocity)
                grad = velocity
            np.multiply(grad, self.lr, out=scratch)
            np.subtract(param.data, scratch, out=param.data)


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction — the paper's optimizer."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None

    def _ensure_scratch(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._scratch is None:
            self._scratch = [
                (np.empty_like(p.data), np.empty_like(p.data))
                for p in self.parameters
            ]
        return self._scratch

    def step(self) -> None:
        scratch = self._ensure_scratch()
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v, (s1, s2) in zip(
            self.parameters, self._m, self._v, scratch
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=s2)
                np.add(grad, s2, out=s2)
                grad = s2
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


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    Unlike ``Adam(weight_decay=...)`` — which folds the decay into the
    adaptive gradient — AdamW applies it directly to the weights, which
    keeps the effective decay independent of the gradient scale.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(parameters, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def step(self) -> None:
        if self.decoupled_weight_decay:
            decay = self.lr * self.decoupled_weight_decay
            for param, (s1, _) in zip(self.parameters, self._ensure_scratch()):
                if param.grad is not None:
                    np.multiply(param.data, decay, out=s1)
                    np.subtract(param.data, s1, out=param.data)
        super().step()


class RMSProp(Optimizer):
    """RMSProp with exponentially-decayed squared-gradient normalization."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        alpha: float = 0.99,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.alpha = alpha
        self.eps = eps
        self._square_avg = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None

    def step(self) -> None:
        if self._scratch is None:
            self._scratch = [
                (np.empty_like(p.data), np.empty_like(p.data))
                for p in self.parameters
            ]
        for param, square_avg, (s1, s2) in zip(
            self.parameters, self._square_avg, self._scratch
        ):
            if param.grad is None:
                continue
            grad = param.grad
            np.multiply(square_avg, self.alpha, out=square_avg)
            np.multiply(grad, grad, out=s1)
            np.multiply(s1, 1.0 - self.alpha, out=s1)
            np.add(square_avg, s1, out=square_avg)
            np.multiply(grad, self.lr, out=s2)
            np.sqrt(square_avg, out=s1)
            np.add(s1, self.eps, out=s1)
            np.divide(s2, s1, out=s2)
            np.subtract(param.data, s2, out=param.data)


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
