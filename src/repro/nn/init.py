"""Weight initialization schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform", "uniform_fan_in"]


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform init suited to ReLU networks."""
    bound = math.sqrt(6.0 / _fan_in(shape))
    return rng.uniform(-bound, bound, size=shape)


def uniform_fan_in(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """PyTorch-style default bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _fan_in(shape: tuple[int, ...]) -> int:
    """Fan-in of a linear (out, in) or conv (out, in, k) weight shape."""
    return int(np.prod(shape[1:]))
