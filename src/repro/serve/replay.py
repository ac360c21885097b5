"""Replay archive units through the serving stack.

The bridge between the offline world (synthetic UCR-style datasets with
labels) and the online one (the scoring engine): a dataset's test split
is replayed point-by-point as one or many concurrent streams, and the
resulting alerts are checked against the labelled anomaly.  This is the
serving layer's end-to-end harness — the ``repro serve-replay`` CLI is
a thin wrapper around :func:`replay_dataset`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.spectral_residual import SpectralResidualWindowScorer
from ..data.spec import Dataset
from .engine import ScoringEngine, StreamAlert
from .registry import (
    DiscordWindowScorer,
    ModelRegistry,
    TriADWindowScorer,
    WindowScorer,
)

__all__ = [
    "FailAfter",
    "ReplayReport",
    "build_registry",
    "replay_dataset",
]


class FailAfter(WindowScorer):
    """Chaos wrapper: delegates for ``healthy_calls`` batches, then raises.

    Drives the degradation-chain demo (``serve-replay --fail-primary``)
    and failover tests without touching the wrapped scorer.
    """

    def __init__(self, scorer: WindowScorer, healthy_calls: int) -> None:
        self.name = scorer.name
        self.scorer = scorer
        self.healthy_calls = healthy_calls
        self.calls = 0

    def score_windows(self, windows, batch):
        self.calls += 1
        if self.calls > self.healthy_calls:
            raise RuntimeError(
                f"injected failure in {self.name!r} (call {self.calls})"
            )
        return self.scorer.score_windows(windows, batch)

    def calibration_scores(self, length, stride):
        return self.scorer.calibration_scores(length, stride)


def build_registry(
    detector=None,
    fail_primary_after: int | None = None,
    train_series=None,
) -> ModelRegistry:
    """The standard degradation chain, optionally headed by a fitted TriAD.

    With ``detector`` the chain is
    ``triad-encoder -> spectral-residual -> streaming-discord``;
    without it the two training-free scorers stand alone.
    ``fail_primary_after`` wraps the primary in :class:`FailAfter` for
    failover drills.  ``train_series`` (normal data) lets the
    training-free scorers pre-compute calibration score distributions so
    engine alert baselines are seeded instead of cold-started.
    """
    registry = ModelRegistry()
    primary = (
        TriADWindowScorer(detector)
        if detector is not None
        else SpectralResidualWindowScorer(calibration_series=train_series)
    )
    if fail_primary_after is not None:
        primary = FailAfter(primary, fail_primary_after)
    registry.register(primary, max_failures=1)
    if detector is not None:
        registry.register(SpectralResidualWindowScorer(calibration_series=train_series))
    registry.register(DiscordWindowScorer(calibration_series=train_series))
    return registry


@dataclass
class ReplayReport:
    """What one replay produced, ready to render or serialize."""

    dataset: str
    streams: int
    points: int
    duration_s: float
    alerts: list[StreamAlert] = field(default_factory=list)
    anomaly_interval: tuple[int, int] | None = None
    window_length: int = 0
    engine_report: dict = field(default_factory=dict)

    @property
    def throughput_pps(self) -> float:
        return self.points / self.duration_s if self.duration_s > 0 else 0.0

    def hit_alerts(self) -> list[StreamAlert]:
        """Alerts whose window overlaps the labelled anomaly."""
        if self.anomaly_interval is None:
            return []
        lo, hi = self.anomaly_interval
        return [
            alert
            for alert in self.alerts
            if alert.index > lo and alert.index - self.window_length < hi
        ]

    @property
    def detected(self) -> bool:
        return bool(self.hit_alerts())

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "streams": self.streams,
            "points": self.points,
            "duration_s": self.duration_s,
            "throughput_pps": self.throughput_pps,
            "alerts": [
                {
                    "stream_id": a.stream_id,
                    "index": a.index,
                    "score": a.score,
                    "threshold": a.threshold,
                    "model": a.model,
                }
                for a in self.alerts
            ],
            "anomaly_interval": self.anomaly_interval,
            "detected": self.detected,
            "engine": self.engine_report,
        }

    def render(self) -> str:
        """Human-readable replay summary for the CLI."""
        lines = [
            f"replayed {self.dataset}: {self.points} points over "
            f"{self.streams} stream(s) in {self.duration_s:.2f}s "
            f"({self.throughput_pps:,.0f} pts/s)",
        ]
        engine = self.engine_report
        lines.append(
            f"windows scored : {engine.get('windows_scored', 0)} in "
            f"{engine.get('batches', 0)} batch(es), shed {engine.get('shed', 0)}"
        )
        for label, key in (("batch latency", "latency_ms"), ("queue wait", "queue_wait_ms")):
            quantiles = engine.get(key, {})
            if quantiles:
                lines.append(
                    f"{label:<15}: "
                    f"p50 {quantiles.get('p50', 0.0):.2f}ms  "
                    f"p90 {quantiles.get('p90', 0.0):.2f}ms  "
                    f"p99 {quantiles.get('p99', 0.0):.2f}ms"
                )
        models = ", ".join(engine.get("models_used", [])) or "none"
        lines.append(
            f"models used    : {models} "
            f"(fallback batches: {engine.get('fallback_batches', 0)})"
        )
        for status in engine.get("chain", []):
            state = "TRIPPED" if status["tripped"] else "healthy"
            lines.append(
                f"  chain[{status['position']}] {status['model']}: {state}, "
                f"{status['calls']} call(s)"
                + (f", last error {status['last_error']}" if status["last_error"] else "")
            )
        if self.anomaly_interval is not None:
            lo, hi = self.anomaly_interval
            hits = self.hit_alerts()
            lines.append(
                f"anomaly        : [{lo}, {hi}) — "
                + (
                    f"DETECTED by {len(hits)} alert(s)"
                    if hits
                    else "missed"
                )
            )
        lines.append(f"alerts         : {len(self.alerts)} total")
        for alert in self.alerts[:8]:
            lines.append(
                f"  {alert.stream_id} @ [{alert.index - self.window_length}, "
                f"{alert.index}) score {alert.score:.3f} "
                f"(threshold {alert.threshold:.3f}, {alert.model})"
            )
        if len(self.alerts) > 8:
            lines.append(f"  ... and {len(self.alerts) - 8} more")
        return "\n".join(lines)


def replay_dataset(
    dataset: Dataset,
    engine: ScoringEngine,
    streams: int = 1,
    clock=time.perf_counter,
) -> ReplayReport:
    """Replay ``dataset.test`` through ``engine`` as concurrent streams.

    With ``streams > 1`` the same series is fed round-robin under
    ``streams`` distinct stream ids — points interleave exactly as a
    multi-tenant feed would, so ready windows from different streams
    land in the same micro-batches.
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    series = np.asarray(dataset.test, dtype=np.float64)
    ids = [f"{dataset.name}#{i}" for i in range(streams)]
    alerts: list[StreamAlert] = []
    start = clock()
    for value in series:
        for stream_id in ids:
            alerts.extend(engine.ingest(stream_id, float(value)))
    alerts.extend(engine.drain())
    duration = clock() - start

    try:
        interval = dataset.anomaly_interval
    except ValueError:
        interval = None
    return ReplayReport(
        dataset=dataset.name,
        streams=streams,
        points=len(series) * streams,
        duration_s=duration,
        alerts=alerts,
        anomaly_interval=interval,
        window_length=engine.config.window_length,
        engine_report=engine.report(),
    )
