"""Observability sessions and the zero-cost instrumentation facade.

All instrumentation in the codebase goes through the module-level
functions here (:func:`incr`, :func:`gauge`, :func:`observe`,
:func:`span`, :func:`event`).  When no session is
active — the default — every one of them is a single ``is None`` check,
so uninstrumented runs pay ~nothing.  Activating a session
(:func:`install` or the :func:`observed` context manager) routes the
same calls into a :class:`MetricsRegistry` and, optionally, a
:class:`~repro.obs.tracing.Tracer`.

Sessions are process-local and single-threaded (like the rest of the
evaluation stack); the JSONL export schema is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from .metrics import MetricsRegistry
from .tracing import Span, Tracer

__all__ = [
    "ObsSession",
    "active",
    "enabled",
    "install",
    "uninstall",
    "observed",
    "incr",
    "gauge",
    "observe",
    "span",
    "event",
    "export_jsonl",
]

SCHEMA_VERSION = 1


class ObsSession:
    """One observation window: a metrics registry, optional tracer, and
    a list of structured events."""

    def __init__(self, trace: bool = False, reservoir_size: int = 512) -> None:
        self.metrics = MetricsRegistry(reservoir_size=reservoir_size)
        self.tracer: Tracer | None = Tracer() if trace else None
        self.events: list[dict] = []
        self.started_at = time.time()

    def event(self, name: str, **attrs) -> None:
        self.events.append(
            {
                "type": "event",
                "name": name,
                "time": time.time() - self.started_at,
                "attrs": attrs,
            }
        )

    def records(self) -> list[dict]:
        """Every record in export order: meta, metrics, spans, events."""
        out: list[dict] = [
            {
                "type": "meta",
                "schema": SCHEMA_VERSION,
                "started_at": self.started_at,
                "traced": self.tracer is not None,
            }
        ]
        out.extend(self.metrics.records())
        if self.tracer is not None:
            out.extend(self.tracer.records())
        out.extend(self.events)
        return out

    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Write one JSON object per line; returns the record count."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


_ACTIVE: ObsSession | None = None


def active() -> ObsSession | None:
    """The currently installed session, or ``None``."""
    return _ACTIVE


def enabled() -> bool:
    """True while an :class:`ObsSession` is installed."""
    return _ACTIVE is not None


def install(session: ObsSession | None = None, trace: bool = False) -> ObsSession:
    """Activate ``session`` (or a fresh one) as the process-wide sink."""
    global _ACTIVE
    if session is None:
        session = ObsSession(trace=trace)
    _ACTIVE = session
    return session


def uninstall() -> ObsSession | None:
    """Deactivate and return the previously active session."""
    global _ACTIVE
    session, _ACTIVE = _ACTIVE, None
    return session


@contextmanager
def observed(trace: bool = False, session: ObsSession | None = None):
    """Run a block under a (fresh or given) session, restoring the
    previous one afterwards — safe to nest."""
    global _ACTIVE
    previous = _ACTIVE
    current = install(session=session, trace=trace)
    try:
        yield current
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# Facade — every function below is a no-op unless a session is active.
# ----------------------------------------------------------------------


def incr(name: str, amount: float = 1.0) -> None:
    """Increment counter ``name``."""
    session = _ACTIVE
    if session is not None:
        session.metrics.counter(name).increment(amount)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value``."""
    session = _ACTIVE
    if session is not None:
        session.metrics.gauge(name).set(value)


def observe(name: str, value: float, unit: str | None = None) -> None:
    """Record ``value`` into histogram ``name``."""
    session = _ACTIVE
    if session is not None:
        session.metrics.histogram(name, unit=unit).observe(value)


def event(name: str, **attrs) -> None:
    """Record a structured event (e.g. a trainer rollback)."""
    session = _ACTIVE
    if session is not None:
        session.event(name, **attrs)


class _NoopContext:
    """Shared do-nothing context manager for disabled sessions."""

    __slots__ = ()

    def __enter__(self) -> "_NoopContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NOOP = _NoopContext()


class _SpanContext:
    """Times a block into a duration histogram and, when the session
    traces, records a nested :class:`Span`."""

    __slots__ = ("_session", "_name", "_attrs", "_span", "_start")

    def __init__(self, session: ObsSession, name: str, attrs: dict) -> None:
        self._session = session
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        if self._session.tracer is not None:
            self._span = self._session.tracer.start(self._name, **self._attrs)
        self._start = time.perf_counter()
        return self

    def set(self, **attrs) -> None:
        """Attach attributes to the live span (traced sessions only)."""
        if self._span is not None:
            self._span.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        self._session.metrics.histogram(self._name, unit="s").observe(elapsed)
        if self._span is not None:
            self._session.tracer.finish(
                self._span, status="error" if exc_type is not None else "ok"
            )
        return False


def span(name: str, **attrs):
    """Context manager timing a block as histogram ``name`` (always)
    and as a nested trace span (when the session traces)."""
    session = _ACTIVE
    if session is None:
        return _NOOP
    return _SpanContext(session, name, attrs)


def export_jsonl(path: str | os.PathLike) -> int:
    """Export the active session to ``path``; returns records written
    (0 when no session is active)."""
    session = _ACTIVE
    if session is None:
        return 0
    return session.export_jsonl(path)


# ----------------------------------------------------------------------
# nn timing hooks
# ----------------------------------------------------------------------


def _nn_timing_hook(kind: str, name: str, seconds: float) -> None:
    session = _ACTIVE
    if session is not None:
        session.metrics.histogram(f"nn.{kind}.{name}", unit="s").observe(seconds)


def instrument_nn() -> None:
    """Route per-module forward timings and ``Tensor.backward`` timings
    into the active session (histograms ``nn.forward.<Module>`` /
    ``nn.backward.graph``).  Adds one timestamp pair per module call, so
    keep it off for overhead-sensitive runs."""
    from ..nn import hooks as nn_hooks

    nn_hooks.set_timing_hook(_nn_timing_hook)


def uninstrument_nn() -> None:
    """Remove the nn timing hook installed by :func:`instrument_nn`."""
    from ..nn import hooks as nn_hooks

    if nn_hooks.get_timing_hook() is _nn_timing_hook:
        nn_hooks.set_timing_hook(None)
