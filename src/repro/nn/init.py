"""Weight initialization schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform", "uniform_fan_in", "zeros"]


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform init suited to ReLU networks."""
    fan_in, _ = _fans(shape)
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform_fan_in(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style default bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for linear (out,in) or conv (out,in,k) shapes."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 3:
        out_channels, in_channels, kernel = shape
        return in_channels * kernel, out_channels * kernel
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[1] * receptive, shape[0] * receptive
