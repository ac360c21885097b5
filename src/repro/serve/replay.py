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
from typing import Sequence

import numpy as np

from ..baselines.spectral_residual import SpectralResidualWindowScorer
from ..data.spec import Dataset
from ..runtime import RetryPolicy
from .adapt import AdaptiveController
from .drift import DriftMonitor, PeriodChangeMonitor, ScoreShiftMonitor
from .engine import EngineConfig, ScoringEngine, StreamAlert
from .registry import (
    DiscordWindowScorer,
    ModelRegistry,
    TriADWindowScorer,
    WindowScorer,
)

__all__ = [
    "FailAfter",
    "LevelShift",
    "ReplayReport",
    "build_registry",
    "build_engine",
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


@dataclass(frozen=True)
class LevelShift:
    """Chaos injector: a level-shift regime change mid-replay.

    Every replayed point from series index ``at`` onward gets ``delta``
    added — the canonical "the plant re-baselined overnight" drift.  A
    model calibrated on the old level degrades permanently (unlike a
    spike, the shift never reverts), which is exactly the scenario the
    ``serve.adapt`` drill must recover from without an operator.
    """

    at: int
    delta: float

    def apply(self, index: int, value: float) -> float:
        return value + self.delta if index >= self.at else value


def build_registry(
    detector=None,
    policy: RetryPolicy | None = None,
    latency_budget: float | None = None,
    fail_primary_after: int | None = None,
    discord_length: int = 16,
    train_series=None,
    primary: WindowScorer | None = None,
) -> ModelRegistry:
    """The standard degradation chain, optionally headed by a fitted TriAD.

    With ``detector`` the chain is
    ``triad-encoder -> spectral-residual -> streaming-discord``;
    without it the two training-free scorers stand alone.  An explicit
    ``primary`` scorer overrides both (the adaptive level-shift drill
    heads the chain with the level-sensitive
    :class:`~repro.serve.adapt.MomentShiftScorer`).
    ``fail_primary_after`` wraps the primary in :class:`FailAfter` for
    failover drills.  ``train_series`` (normal data) lets the
    training-free scorers pre-compute calibration score distributions so
    engine alert baselines are seeded instead of cold-started.
    """
    registry = ModelRegistry(policy=policy)
    explicit_primary = primary is not None
    if primary is None:
        primary = (
            TriADWindowScorer(detector)
            if detector is not None
            else SpectralResidualWindowScorer(calibration_series=train_series)
        )
    if fail_primary_after is not None:
        primary = FailAfter(primary, fail_primary_after)
    registry.register(primary, latency_budget=latency_budget, max_failures=1)
    if detector is not None or (explicit_primary and primary.name != "spectral-residual"):
        registry.register(SpectralResidualWindowScorer(calibration_series=train_series))
    registry.register(
        DiscordWindowScorer(
            subsequence_length=discord_length, calibration_series=train_series
        )
    )
    return registry


def build_engine(
    registry: ModelRegistry,
    window_length: int,
    stride: int,
    expected_period: int | None = None,
    monitor_drift: bool = True,
    drift: DriftMonitor | None = None,
    **config_overrides,
) -> ScoringEngine:
    """Engine wired with the default drift monitors.

    Pass an explicit ``drift`` monitor to override the defaults — short
    replays need smaller score-shift reference/recent windows than the
    production defaults or drift can never fire before the feed ends.
    """
    if drift is None and monitor_drift:
        drift = DriftMonitor(
            score_monitor=ScoreShiftMonitor(),
            period_monitor=(
                PeriodChangeMonitor(expected_period)
                if expected_period is not None
                else None
            ),
        )
    config = EngineConfig(window_length=window_length, stride=stride, **config_overrides)
    return ScoringEngine(registry, config, drift=drift)


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
    adaptation: list[dict] = field(default_factory=list)
    chaos: str | None = None

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
            "adaptation": self.adaptation,
            "chaos": self.chaos,
        }

    def render(self) -> str:
        """Human-readable replay summary for the CLI."""
        lines = [
            f"replayed {self.dataset}: {self.points} points over "
            f"{self.streams} stream(s) in {self.duration_s:.2f}s "
            f"({self.throughput_pps:,.0f} pts/s)",
        ]
        engine = self.engine_report
        latency = engine.get("latency_ms", {})
        lines.append(
            f"windows scored : {engine.get('windows_scored', 0)} in "
            f"{engine.get('batches', 0)} batch(es), shed {engine.get('shed', 0)}"
        )
        if latency:
            lines.append(
                "batch latency  : "
                f"p50 {latency.get('p50', 0.0):.2f}ms  "
                f"p90 {latency.get('p90', 0.0):.2f}ms  "
                f"p99 {latency.get('p99', 0.0):.2f}ms"
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
        drift = engine.get("drift_signals", [])
        if drift:
            lines.append(f"drift signals  : {len(drift)}")
            for signal in drift[:4]:
                lines.append(
                    f"  {signal['stream_id']}: {signal['kind']} at "
                    f"{signal['at_index']} (value {signal['value']:.2f})"
                )
        if self.chaos:
            lines.append(f"chaos          : {self.chaos}")
        if self.adaptation:
            lines.append(f"adaptation     : {len(self.adaptation)} decision(s)")
            for decision in self.adaptation:
                trigger = decision.get("trigger") or {}
                shadow = decision.get("shadow") or {}
                detail = ""
                if trigger:
                    detail += f" on {trigger.get('kind')}@{trigger.get('at_index')}"
                if decision["action"] == "promoted":
                    detail += f" -> {decision.get('candidate')}"
                if shadow:
                    detail += f" [{shadow.get('mode')} gate]"
                lines.append(
                    f"  {decision['stream_id']} @ {decision['at_index']}: "
                    f"{decision['action'].upper()}{detail} — {decision['reason']}"
                )
        return "\n".join(lines)


def replay_dataset(
    dataset: Dataset,
    engine: ScoringEngine,
    streams: int = 1,
    clock=time.perf_counter,
    controller: AdaptiveController | None = None,
    chaos: LevelShift | None = None,
) -> ReplayReport:
    """Replay ``dataset.test`` through ``engine`` as concurrent streams.

    With ``streams > 1`` the same series is fed round-robin under
    ``streams`` distinct stream ids — points interleave exactly as a
    multi-tenant feed would, so ready windows from different streams
    land in the same micro-batches.

    A ``controller`` routes ingestion through the adaptive retrain loop
    (its label oracle is wired from ``dataset.labels`` unless already
    set, enabling the labeled shadow gate); ``chaos`` mutates the feed
    (e.g. :class:`LevelShift`) to drill that loop.
    """
    if streams < 1:
        raise ValueError("streams must be >= 1")
    series = np.asarray(dataset.test, dtype=np.float64)
    ids = [f"{dataset.name}#{i}" for i in range(streams)]
    if controller is not None and controller.label_oracle is None:
        labels = np.asarray(dataset.labels, dtype=np.int64)

        def oracle(stream_id: str, start: int, end: int):
            # Stream positions equal test-split indices in a replay.
            if start < 0 or end > len(labels):
                return None
            return labels[start:end]

        controller.label_oracle = oracle
    feed = controller.ingest if controller is not None else engine.ingest
    alerts: list[StreamAlert] = []
    start = clock()
    for index, value in enumerate(series):
        if chaos is not None:
            value = chaos.apply(index, float(value))
        for stream_id in ids:
            alerts.extend(feed(stream_id, float(value)))
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
        adaptation=controller.timeline() if controller is not None else [],
        chaos=(
            f"level-shift delta={chaos.delta:+g} at {chaos.at}"
            if chaos is not None
            else None
        ),
    )
