"""Process-wide implementation switches.

A few hot paths ship a fast implementation next to the reference one
that tests and benchmarks compare it against (``conv1d`` modes, fused
optimizer steps, the fused contrastive forward, discord kernel modes).
Each selection is one :class:`Switch`: ``set`` returns the previous
value, ``get`` reads it, and ``pinned`` holds a value for a ``with``
block.  It lives in :mod:`repro.nn` because ``nn`` is an import leaf
that every layer can reach.
"""

from __future__ import annotations

import contextlib

__all__ = ["Switch"]


class Switch:
    """One named process-wide setting.

    With ``choices`` the value must be one of them (anything else raises
    ``ValueError``); without, values are coerced to ``bool``.
    """

    def __init__(self, name: str, default, choices: tuple | None = None) -> None:
        self.name = name
        self.choices = choices
        self.value = default

    def set(self, value):
        """Select ``value``; returns the previous one."""
        if self.choices is None:
            value = bool(value)
        elif value not in self.choices:
            raise ValueError(
                f"unknown {self.name} mode {value!r}; choose from {self.choices}"
            )
        previous, self.value = self.value, value
        return previous

    def get(self):
        """Return the active value."""
        return self.value

    @contextlib.contextmanager
    def pinned(self, value):
        """Context manager holding ``value`` for the ``with`` block."""
        previous = self.set(value)
        try:
            yield
        finally:
            self.set(previous)
