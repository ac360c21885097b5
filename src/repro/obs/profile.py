"""Load and summarize observability JSONL exports (``repro profile``).

Renders the export written by :meth:`ObsSession.export_jsonl` as a
plain-text profile: top timed sections by total time, counters, gauges,
value histograms, the trace tree (when spans were recorded), and event
tallies.  Exports replay through :func:`repro.runtime.journal.load`,
so a torn or unparseable line is skipped with a ``JournalWarning``, as
in every other journal of the repo.
"""

from __future__ import annotations

import os
from collections import defaultdict

from ..runtime import journal

__all__ = ["load_records", "render_profile"]


def load_records(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL export into its typed records.

    Raises ``FileNotFoundError`` for a missing export.  Blank lines and
    objects without a ``"type"`` key are dropped; torn and non-object
    lines are skipped with one ``JournalWarning`` each.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such export: {path}")
    return [record for record in journal.load(path).records if "type" in record]


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.1f}us"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render_timers(timers: list[dict], top: int) -> str:
    timers = sorted(timers, key=lambda r: -r.get("sum", 0.0))[:top]
    rows = [
        [
            r["name"],
            str(r.get("count", 0)),
            _fmt_seconds(r.get("sum", 0.0)),
            _fmt_seconds(r.get("mean", 0.0)),
            _fmt_seconds(r.get("p50", 0.0)),
            _fmt_seconds(r.get("p99", 0.0)),
        ]
        for r in timers
    ]
    return _table(["section", "calls", "total", "mean", "p50", "p99"], rows)


def _render_histograms(histograms: list[dict], top: int) -> str:
    histograms = sorted(histograms, key=lambda r: -r.get("count", 0))[:top]
    rows = [
        [
            r["name"],
            str(r.get("count", 0)),
            f"{r.get('mean', 0.0):.4g}",
            f"{r.get('min', 0.0):.4g}" if r.get("min") is not None else "-",
            f"{r.get('max', 0.0):.4g}" if r.get("max") is not None else "-",
            f"{r.get('p50', 0.0):.4g}",
        ]
        for r in histograms
    ]
    return _table(["histogram", "count", "mean", "min", "max", "p50"], rows)


def _render_counters(counters: list[dict], gauges: list[dict], top: int) -> str:
    rows = [
        [r["name"], f"{r.get('value', 0.0):g}"]
        for r in sorted(counters, key=lambda r: -r.get("value", 0.0))[:top]
    ]
    rows.extend(
        [r["name"], "-" if r.get("value") is None else f"{r['value']:g} (gauge)"]
        for r in sorted(gauges, key=lambda r: r["name"])
    )
    return _table(["counter", "value"], rows)


def _render_trace(spans: list[dict], top: int) -> str:
    # Aggregate by name for the hot-span table...
    totals: dict[str, list[float]] = defaultdict(list)
    for record in spans:
        totals[record["name"]].append(record.get("duration", 0.0))
    rows = [
        [name, str(len(durations)), _fmt_seconds(sum(durations)),
         _fmt_seconds(max(durations))]
        for name, durations in sorted(
            totals.items(), key=lambda item: -sum(item[1])
        )[:top]
    ]
    aggregate = _table(["span", "calls", "total", "max"], rows)
    # ...then an indented tree of the slowest top-level spans.
    roots = [s for s in spans if s.get("parent_id") is None]
    roots = sorted(roots, key=lambda s: -s.get("duration", 0.0))[:top]
    children: dict[int, list[dict]] = defaultdict(list)
    for record in spans:
        if record.get("parent_id") is not None:
            children[record["parent_id"]].append(record)

    lines: list[str] = []

    def walk(node: dict, indent: int) -> None:
        status = "" if node.get("status", "ok") == "ok" else f" [{node['status']}]"
        lines.append(
            f"{'  ' * indent}{node['name']}  "
            f"{_fmt_seconds(node.get('duration', 0.0))}{status}"
        )
        for child in sorted(
            children.get(node.get("span_id"), []), key=lambda s: s.get("start", 0.0)
        ):
            walk(child, indent + 1)

    for root in roots:
        walk(root, 0)
    tree = "\n".join(lines)
    return aggregate + ("\n\nslowest call trees:\n" + tree if tree else "")


def render_profile(records: list[dict], top: int = 15) -> str:
    """Build the full plain-text profile for one export."""
    histograms = [r for r in records if r["type"] == "histogram"]
    timers = [r for r in histograms if r.get("unit") == "s"]
    values = [r for r in histograms if r.get("unit") != "s"]
    counters = [r for r in records if r["type"] == "counter"]
    gauges = [r for r in records if r["type"] == "gauge"]
    spans = [r for r in records if r["type"] == "span"]
    events = [r for r in records if r["type"] == "event"]

    sections: list[str] = []
    if timers:
        sections.append("== timed sections (by total time) ==\n"
                        + _render_timers(timers, top))
    if counters or gauges:
        sections.append("== counters & gauges ==\n"
                        + _render_counters(counters, gauges, top))
    if values:
        sections.append("== value histograms ==\n"
                        + _render_histograms(values, top))
    if spans:
        sections.append("== trace ==\n" + _render_trace(spans, top))
    if events:
        tally: dict[str, int] = defaultdict(int)
        for record in events:
            tally[record["name"]] += 1
        rows = [[name, str(count)] for name, count in
                sorted(tally.items(), key=lambda item: -item[1])]
        sections.append("== events ==\n" + _table(["event", "count"], rows))
    if not sections:
        return "no records found (was the run instrumented?)"
    return "\n\n".join(sections)
