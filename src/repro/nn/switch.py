"""Process-wide implementation switches.

Two hot paths ship fast implementations next to the reference one
that tests compare them against (``conv1d`` modes, discord kernel
modes).  Each selection is one :class:`Switch`: ``set`` returns the
previous value, ``get`` reads it, and ``pinned`` holds a value for a
``with`` block.  It lives in :mod:`repro.nn` because ``nn`` is an import leaf
that every layer can reach.
"""

from __future__ import annotations

import contextlib

__all__ = ["Switch"]


class Switch:
    """One named process-wide mode; the value must be one of ``choices``
    (anything else raises ``ValueError``)."""

    def __init__(self, name: str, default, choices: tuple) -> None:
        self.name = name
        self.choices = choices
        self.value = default

    def set(self, value):
        """Select ``value``; returns the previous one."""
        if value not in self.choices:
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
