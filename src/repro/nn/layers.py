"""Standard layers: Linear, Conv1d, LayerNorm, ReLU and Identity."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = [
    "Linear",
    "Conv1d",
    "LayerNorm",
    "ReLU",
    "Identity",
]


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over the last axis of ``x``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = (
            Parameter(init.uniform_fan_in((out_features,), in_features, rng))
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = as_tensor(x) @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv1d(Module):
    """Dilated 1-D convolution over ``(batch, channels, length)`` input."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int = 1,
        padding: str | int = "same",
        stride: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.padding = padding
        self.stride = stride
        shape = (out_channels, in_channels, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.bias = (
            Parameter(init.uniform_fan_in((out_channels,), in_channels * kernel_size, rng))
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(
            x,
            self.weight,
            self.bias,
            dilation=self.dilation,
            padding=self.padding,
            stride=self.stride,
        )


class LayerNorm(Module):
    """Normalize over the last axis, then scale and shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalized = (x - mean) / (var + self.eps).sqrt()
        return normalized * self.weight + self.bias


class ReLU(Module):
    """Rectified linear unit: max(x, 0)."""
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).relu()


class Identity(Module):
    """Pass-through module (used as a no-op skip connection)."""
    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x)
