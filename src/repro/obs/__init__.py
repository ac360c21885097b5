"""Observability: process-local metrics, tracing, and profiling.

The subsystem behind the repo's efficiency claims (paper Table IV's
MERLIN speedup, Fig. 8's parameter budgets): counters, gauges, bounded
histograms, and nested spans recorded from the training / evaluation /
discord hot paths, exported as JSONL and summarized by ``repro
profile``.

Instrumentation is *off by default* and every facade call degrades to a
single ``None`` check, so uninstrumented callers pay ~nothing::

    from repro import obs

    with obs.observed(trace=True) as session:
        run_on_archive(...)            # hot paths record themselves
        session.export_jsonl("metrics.jsonl")

See ``docs/OBSERVABILITY.md`` for the export schema and conventions.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import load_records, render_profile
from .session import (
    ObsSession,
    active,
    enabled,
    event,
    export_jsonl,
    gauge,
    incr,
    install,
    instrument_nn,
    observe,
    observed,
    span,
    uninstall,
    uninstrument_nn,
)
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
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
    "instrument_nn",
    "uninstrument_nn",
    "load_records",
    "render_profile",
]
