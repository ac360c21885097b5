"""The multi-stream online scoring engine.

Streams feed points one at a time; each stream's :class:`~repro.serve.
stream.StreamState` emits a window every ``stride`` points, and the
engine queues those windows and scores them in *micro-batches across
streams*: one batched encoder forward pass covers windows from many
streams at once, which is where the throughput over per-stream
sequential scoring comes from (measured end to end by the
``serve_stream`` workload of ``python3 bench/run.py``).

Overload handling is two-layered:

- **admission control** — the pending-window queue is bounded; when it
  is full the *oldest* window is shed (freshness beats completeness for
  monitoring) and counted in ``serve.windows_shed``;
- **latency budget** — if a batch takes longer than
  ``latency_budget_s`` the micro-batch limit halves (floor 1), and it
  recovers multiplicatively while batches run comfortably under budget.
  Model-level budgets/failover live in the registry's degradation
  chain, not here.

Alerting is per-stream and self-calibrating: each stream keeps a
bounded ring of its recent scores and alerts when a new score exceeds
``mean + sigma * std`` of that baseline, exactly the thresholding rule
of the streaming discord detector.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..obs.metrics import Histogram
from .drift import DriftMonitor
from .registry import ModelEntry, ModelRegistry
from .stores import StreamSnapshot
from .stream import ReadyWindow, RingBuffer, StreamState

__all__ = ["EngineConfig", "StreamAlert", "ScoringEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """Tunables for one :class:`ScoringEngine`.

    Attributes
    ----------
    window_length / stride:
        Sliding-window cadence applied to every stream (usually taken
        from the fitted model's :class:`~repro.signal.windows.WindowPlan`).
    max_batch:
        Upper bound on windows per scoring call; the adaptive limit
        never exceeds it.
    queue_capacity:
        Admission-control bound on pending windows across all streams.
    latency_budget_s:
        Engine-level per-batch latency target driving the adaptive
        micro-batch limit.  ``None`` disables adaptation.
    alert_sigma / score_baseline / warmup_scores:
        Per-stream alert threshold: ``mean + alert_sigma * std`` over a
        ring of the last ``score_baseline`` scores, active once a stream
        has ``warmup_scores`` scores banked.
    min_spread:
        Absolute floor added to the threshold spread so near-constant
        score baselines do not alert on numerical jitter.
    """

    window_length: int
    stride: int
    max_batch: int = 64
    queue_capacity: int = 512
    latency_budget_s: float | None = None
    alert_sigma: float = 4.0
    score_baseline: int = 256
    warmup_scores: int = 16
    min_spread: float = 1e-6

    def __post_init__(self) -> None:
        if self.window_length < 2:
            raise ValueError("window_length must be >= 2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.warmup_scores < 1:
            raise ValueError("warmup_scores must be >= 1")
        if self.score_baseline < 1:
            raise ValueError("score_baseline must be >= 1")
        if self.warmup_scores > self.score_baseline:
            raise ValueError(
                f"warmup_scores ({self.warmup_scores}) cannot exceed "
                f"score_baseline ({self.score_baseline}): the baseline "
                f"ring can never bank enough scores to finish warmup"
            )
        if self.alert_sigma <= 0:
            raise ValueError("alert_sigma must be > 0")
        if self.min_spread < 0:
            raise ValueError("min_spread must be >= 0")


@dataclass(frozen=True)
class StreamAlert:
    """An anomaly alert for one window of one stream.

    ``index`` is the stream position of the window's last point
    (exclusive end), so the alert covers
    ``[index - window_length, index)``.
    """

    stream_id: str
    index: int
    score: float
    threshold: float
    model: str


@dataclass
class EngineStats:
    """Lifetime counters mirrored into ``repro.obs``."""

    points_ingested: int = 0
    windows_scored: int = 0
    batches: int = 0
    alerts: int = 0
    shed: int = 0
    fallback_batches: int = 0
    models_used: set = field(default_factory=set)


class ScoringEngine:
    """Ingests points from many streams, scores windows in micro-batches.

    Usage::

        engine = ScoringEngine(registry, EngineConfig(window_length=96,
                                                      stride=24))
        for stream_id, value in feed:
            for alert in engine.ingest(stream_id, value):
                handle(alert)
        engine.drain()        # flush the tail
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: EngineConfig,
        drift: DriftMonitor | None = None,
    ) -> None:
        self.registry = registry
        self.config = config
        self.drift = drift
        self.stats = EngineStats()
        self.latency = Histogram("serve.batch.latency", unit="s")
        self._streams: dict[str, StreamState] = {}
        self._baselines: dict[str, RingBuffer] = {}
        self._queue: deque[ReadyWindow] = deque()
        self._batch_limit = config.max_batch
        self._last_model: str | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def streams(self) -> list[str]:
        return sorted(self._streams)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def batch_limit(self) -> int:
        """Current adaptive micro-batch limit (<= config.max_batch)."""
        return self._batch_limit

    def ingest(self, stream_id: str, value: float) -> list[StreamAlert]:
        """Feed one point; returns alerts from any flush it triggered."""
        state = self._streams.get(stream_id)
        if state is None:
            state = self._streams[stream_id] = StreamState(
                stream_id, self.config.window_length, self.config.stride
            )
        self.stats.points_ingested += 1
        if self.drift is not None:
            self.drift.observe_point(stream_id, value, state.count + 1)
        ready = state.push(value)
        if ready is None:
            return []
        return self._enqueue(ready)

    def _enqueue(self, ready: ReadyWindow) -> list[StreamAlert]:
        if len(self._queue) >= self.config.queue_capacity:
            # Admission control: shed the *oldest* pending window so the
            # freshest data is still scored; never block the stream.
            self._queue.popleft()
            self.stats.shed += 1
            obs.incr("serve.windows_shed")
        self._queue.append(ready)
        if len(self._queue) >= self._batch_limit:
            return self.flush()
        return []

    def ingest_many(self, stream_id: str, values) -> list[StreamAlert]:
        """Feed a chunk of points from one stream.

        Without a drift monitor the chunk takes a vectorised fast path:
        points are appended via :meth:`~repro.serve.stream.StreamState.
        extend` in slices sized to the next emission boundary, so the
        Python-level work is one loop iteration per *window* instead of
        per point.  Queueing, shedding, flush cadence, scores, and
        alerts are identical to the per-point loop (gated by
        ``tests/serve/test_engine.py``).  With a drift monitor attached
        the per-point path is kept — ``observe_point`` is a per-point
        contract.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if self.drift is not None:
            alerts: list[StreamAlert] = []
            for value in values:
                alerts.extend(self.ingest(stream_id, value))
            return alerts
        if len(values) == 0:
            return []
        state = self._streams.get(stream_id)
        if state is None:
            state = self._streams[stream_id] = StreamState(
                stream_id, self.config.window_length, self.config.stride
            )
        self.stats.points_ingested += len(values)
        alerts = []
        position = 0
        total = len(values)
        while position < total:
            take = min(total - position, state.until_next_emit)
            ready = state.extend(values[position : position + take])
            position += take
            if ready is not None:
                alerts.extend(self._enqueue(ready))
        return alerts

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def flush(self) -> list[StreamAlert]:
        """Score one micro-batch from the queue (up to the batch limit)."""
        if not self._queue:
            return []
        take = min(len(self._queue), self._batch_limit)
        batch = [self._queue.popleft() for _ in range(take)]
        windows = np.stack([ready.window for ready in batch])

        start = time.perf_counter()
        with obs.span("serve.batch", size=take):
            scores, entry = self.registry.score(windows, batch)
        elapsed = time.perf_counter() - start

        if self._last_model is not None and entry.key() != self._last_model:
            # Scores are on a model-specific scale: a failover or
            # hot-swap invalidates every stream's alert baseline (and
            # the drift monitor's frozen score references).  Reset and
            # re-warm rather than alert against the old model's scale.
            self._baselines.clear()
            if self.drift is not None:
                self.drift.model_changed()
            obs.event("serve.baseline_reset", model=entry.key())
        self._last_model = entry.key()

        self.latency.observe(elapsed)
        self.stats.batches += 1
        self.stats.windows_scored += take
        self.stats.models_used.add(entry.key())
        if entry.name != (self.registry.chain[0] if self.registry.chain else entry.name):
            self.stats.fallback_batches += 1
        obs.incr("serve.windows_scored", take)
        obs.gauge("serve.queue_depth", len(self._queue))
        obs.observe("serve.batch.size", take)
        self._adapt_batch_limit(elapsed)

        alerts: list[StreamAlert] = []
        for ready, score in zip(batch, scores):
            alert = self._judge(ready, float(score), entry)
            if alert is not None:
                alerts.append(alert)
            if self.drift is not None:
                self.drift.observe_score(ready.stream_id, float(score), ready.end_index)
        if alerts:
            self.stats.alerts += len(alerts)
            obs.incr("serve.alerts", len(alerts))
        return alerts

    def drain(self) -> list[StreamAlert]:
        """Flush until the queue is empty (end of stream / shutdown)."""
        alerts: list[StreamAlert] = []
        while self._queue:
            alerts.extend(self.flush())
        return alerts

    def reset_alert_baselines(self, stream_id: str | None = None) -> None:
        """Drop per-stream alert baselines so they re-seed from the
        active scorer's calibration on the next scored window.

        The engine already does this automatically when a flush observes
        a model change; the adaptive controller calls it explicitly at
        promotion/rollback time so windows queued *before* the swap are
        judged on the new model's scale too, not against a baseline the
        old model calibrated.
        """
        if stream_id is None:
            self._baselines.clear()
        else:
            self._baselines.pop(stream_id, None)

    # ------------------------------------------------------------------
    # State externalization (the shard fabric's contract)
    # ------------------------------------------------------------------
    def export_stream(self, stream_id: str, evict: bool = False) -> StreamSnapshot | None:
        """Capture one stream's full state as a :class:`StreamSnapshot`.

        Covers the sliding-window state, the alert baseline ring, and
        the drift monitor's per-stream references — everything another
        engine needs to continue the stream with bit-identical windows
        and alert decisions.  Callers should :meth:`drain` first so no
        windows of the stream are pending; with ``evict=True`` the
        stream is removed from this engine (migration), and any windows
        of it still queued are dropped and counted as shed.
        """
        state = self._streams.get(stream_id)
        if state is None:
            return None
        baseline = self._baselines.get(stream_id)
        snapshot = StreamSnapshot(
            stream_id=stream_id,
            stream=state.snapshot(),
            baseline=baseline.snapshot() if baseline is not None else None,
            drift=(
                self.drift.snapshot_stream(stream_id)
                if self.drift is not None
                else None
            ),
        )
        if evict:
            self.remove_stream(stream_id)
        return snapshot

    def export_streams(
        self, stream_ids=None, evict: bool = False
    ) -> list[StreamSnapshot]:
        """Export many streams (all known ones by default)."""
        if stream_ids is None:
            stream_ids = self.streams
        snapshots = []
        for stream_id in stream_ids:
            snapshot = self.export_stream(stream_id, evict=evict)
            if snapshot is not None:
                snapshots.append(snapshot)
        return snapshots

    def import_stream(self, snapshot: StreamSnapshot) -> None:
        """Adopt a stream exported by another engine.

        Replaces any local state the stream already has.  Future pushes
        emit the exact windows the source engine would have emitted, and
        the alert baseline continues on the source's banked scores.
        """
        stream_id = snapshot.stream_id
        self._streams[stream_id] = StreamState.from_snapshot(snapshot.stream)
        if snapshot.baseline is not None:
            self._baselines[stream_id] = RingBuffer.from_snapshot(snapshot.baseline)
        else:
            self._baselines.pop(stream_id, None)
        if self.drift is not None:
            if snapshot.drift is not None:
                self.drift.restore_stream(stream_id, snapshot.drift)
            else:
                self.drift.drop_stream(stream_id)

    def remove_stream(self, stream_id: str) -> None:
        """Forget a stream entirely (it migrated away or closed)."""
        self._streams.pop(stream_id, None)
        self._baselines.pop(stream_id, None)
        if self.drift is not None:
            self.drift.drop_stream(stream_id)
        pending = len(self._queue)
        if pending:
            self._queue = deque(
                ready for ready in self._queue if ready.stream_id != stream_id
            )
            dropped = pending - len(self._queue)
            if dropped:
                self.stats.shed += dropped
                obs.incr("serve.windows_shed", dropped)

    def _adapt_batch_limit(self, elapsed: float) -> None:
        budget = self.config.latency_budget_s
        if budget is None:
            return
        if elapsed > budget and self._batch_limit > 1:
            self._batch_limit = max(self._batch_limit // 2, 1)
            obs.event("serve.batch_limit_halved", limit=self._batch_limit)
        elif elapsed < budget / 4 and self._batch_limit < self.config.max_batch:
            self._batch_limit = min(self._batch_limit * 2, self.config.max_batch)

    def _judge(
        self, ready: ReadyWindow, score: float, entry: ModelEntry
    ) -> StreamAlert | None:
        baseline = self._baselines.get(ready.stream_id)
        if baseline is None:
            baseline = self._baselines[ready.stream_id] = RingBuffer(
                self.config.score_baseline
            )
            # Seed from the scorer's normal-data score distribution so
            # alerting is live from the first window — including right
            # after a failover resets every baseline onto a new scale.
            calibration = entry.scorer.calibration_scores(
                self.config.window_length, self.config.stride
            )
            if calibration is not None:
                for value in calibration[-self.config.score_baseline :]:
                    baseline.append(float(value))
        alert = None
        if len(baseline) >= self.config.warmup_scores:
            spread = max(baseline.std, self.config.min_spread)
            threshold = baseline.mean + self.config.alert_sigma * spread
            if score > threshold:
                alert = StreamAlert(
                    stream_id=ready.stream_id,
                    index=ready.end_index,
                    score=score,
                    threshold=threshold,
                    model=entry.key(),
                )
        baseline.append(score)
        return alert

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-ready snapshot of engine state and lifetime stats."""
        latency = self.latency
        return {
            "streams": len(self._streams),
            "queue_depth": len(self._queue),
            "batch_limit": self._batch_limit,
            "points_ingested": self.stats.points_ingested,
            "windows_scored": self.stats.windows_scored,
            "batches": self.stats.batches,
            "alerts": self.stats.alerts,
            "shed": self.stats.shed,
            "fallback_batches": self.stats.fallback_batches,
            "models_used": sorted(self.stats.models_used),
            "latency_ms": {
                "p50": latency.quantile(0.5) * 1e3,
                "p90": latency.quantile(0.9) * 1e3,
                "p99": latency.quantile(0.99) * 1e3,
                "mean": latency.mean * 1e3,
            },
            "chain": self.registry.describe(),
            "drift_signals": (
                [signal.as_dict() for signal in self.drift.signals]
                if self.drift is not None
                else []
            ),
        }
