"""Module system: parameter registration, train/eval mode, state dicts."""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from . import hooks
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by :class:`Module`."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        # Parameters must stay trainable even if created inside no_grad().
        self.requires_grad = True


class Module:
    """Base class for all neural network components.

    Assigning a :class:`Parameter` or another :class:`Module` as an
    attribute registers it, so :meth:`parameters` and :meth:`state_dict`
    can discover the full tree without manual bookkeeping — mirroring the
    PyTorch convention the paper's code relies on.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"missing parameter {name!r} in state dict")
            if param.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{param.shape} vs {state[name].shape}"
                )
            param.data[...] = state[name]

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        hook = hooks._TIMING_HOOK
        if hook is None:
            return self.forward(*args, **kwargs)
        start = time.perf_counter()
        out = self.forward(*args, **kwargs)
        hook("forward", type(self).__name__, time.perf_counter() - start)
        return out


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: list[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"m{index}", module)
            self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x


class ModuleList(Module):
    """A registered list of submodules (no forward of its own)."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        setattr(self, f"m{len(self._items)}", module)
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
