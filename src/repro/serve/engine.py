"""The multi-stream online scoring engine.

Streams feed points one at a time; each stream's :class:`~repro.serve.
stream.StreamState` emits a window every ``stride`` points, and the
engine queues those windows and scores them in *micro-batches across
streams*: one batched encoder forward pass covers windows from many
streams at once, which is where the throughput over per-stream
sequential scoring comes from (measured end to end by the
``serve_stream`` workload of ``python3 bench/run.py``).

The flush is self-clocked.  Every :meth:`~ScoringEngine.ingest` /
:meth:`~ScoringEngine.ingest_many` call flushes a micro-batch when the
queue reaches the batch limit (trigger ``size``), or, at the end of the
call, when the oldest queued window would pass one flush time before
the next call is likely: ``waited + idle >= last flush time``.
``waited`` is the oldest window's age, ``idle`` a running average
(weight 1/8) of the caller's idle time between calls, from the end of
one call to the start of the next, and the flush time is the engine's
last measured one.  The trigger is ``deadline`` when the window has
waited a flush time on its own and ``idle`` when the expected idle time
completes it.  So a window waits at most about one flush time, and a
paced feed whose idle time exceeds a flush gets each window scored in
the call that queued it.  A hot feed has almost no idle time and fills
the batch long before the deadline, so it keeps full batches; a blocked
caller, whose every call waits on a flush, has none either, so a feed
that outruns the engine still batches.  A fresh engine has no flush
time yet and uses the size trigger alone until its first flush.  This
bookkeeping reads the clock once per call (a flush reads it to time
itself): a call's end is the later of its start and its flush's end,
and windows queued in a call take that time.
:meth:`~ScoringEngine.flush` and :meth:`~ScoringEngine.drain` flush on
demand (trigger ``drain``); ``serve.flush.<trigger>`` counts each kind.
Scores are row-independent and windows are judged in arrival order, so
batch boundaries never change an alert.

Overload handling is two-layered:

- **admission control** — the pending-window queue is bounded; when it
  is full the *oldest* window is shed (freshness beats completeness for
  monitoring) and counted in ``serve.windows_shed``;
- **latency budget** — if a batch takes longer than
  ``latency_budget_s`` the micro-batch limit halves (floor 1), and it
  recovers multiplicatively while batches run comfortably under budget.
  This is the only response to latency: the registry's fallback chain
  moves past a model on errors and bad output, never on slowness.

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
from .registry import ModelEntry, ModelRegistry
from .stream import ReadyWindow, RingBuffer, StreamState

__all__ = ["EngineConfig", "StreamAlert", "StreamSnapshot", "ScoringEngine"]

# The engine's one clock: enqueue times, queue waits and flush times all
# read it, so tests can freeze or step it by patching this name.
_clock = time.perf_counter

#: Weight of each new sample in the running average of the caller's idle
#: time between calls.
IDLE_WEIGHT = 1 / 8


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


@dataclass(frozen=True)
class StreamSnapshot:
    """Everything one stream needs to continue on another engine.

    ``stream`` is the :meth:`~repro.serve.stream.StreamState.snapshot`
    dict (window cadence + ring buffer) and ``baseline`` the alert
    baseline ring's snapshot (``None`` before the first scored window).
    The shard fabric sends snapshots over worker pipes as they are.
    """

    stream_id: str
    stream: dict
    baseline: dict | None = None


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
    flush_triggers: dict = field(default_factory=dict)  # trigger -> flushes


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

    def __init__(self, registry: ModelRegistry, config: EngineConfig) -> None:
        self.registry = registry
        self.config = config
        self.stats = EngineStats()
        self.latency = Histogram("serve.batch.latency", unit="s")
        self.queue_wait = Histogram("serve.queue_wait", unit="s")
        self._streams: dict[str, StreamState] = {}
        self._baselines: dict[str, RingBuffer] = {}
        # (enqueue time, window) pairs in arrival order.
        self._queue: deque[tuple[float, ReadyWindow]] = deque()
        self._batch_limit = config.max_batch
        self._last_flush_s: float | None = None
        # The end of the last call or flush (None before the first), and
        # the running average of the caller's idle time between calls.
        self._mark: float | None = None
        self._idle_s = 0.0
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
        self._start_call()
        ready = state.push(value)
        alerts = [] if ready is None else self._enqueue(ready)
        trigger = self._due()
        if trigger is not None:
            alerts.extend(self._flush(trigger))
        return alerts

    def _start_call(self) -> None:
        """The call's one clock read: fold the idle time since the last
        call's end into the running average and mark the call's start."""
        now = _clock()
        if self._mark is not None:
            self._idle_s += (now - self._mark - self._idle_s) * IDLE_WEIGHT
        self._mark = now

    def _enqueue(self, ready: ReadyWindow) -> list[StreamAlert]:
        if len(self._queue) >= self.config.queue_capacity:
            # Admission control: shed the *oldest* pending window so the
            # freshest data is still scored; never block the stream.
            self._queue.popleft()
            self.stats.shed += 1
            obs.incr("serve.windows_shed")
        self._queue.append((self._mark, ready))
        if len(self._queue) >= self._batch_limit:
            return self._flush("size")
        return []

    def _due(self) -> str | None:
        """The trigger of an end-of-call flush, or ``None`` to wait.

        ``deadline`` once the oldest queued window has waited one flush
        time, ``idle`` once it would before the next call is likely.
        Never before the first flush, nor on a zero wait with no idle
        time (a frozen clock, or a flush the clock measured as instant).
        """
        if not self._queue or self._last_flush_s is None:
            return None
        waited = self._mark - self._queue[0][0]
        if waited > 0 and waited >= self._last_flush_s:
            return "deadline"
        expected = waited + self._idle_s
        if expected > 0 and expected >= self._last_flush_s:
            return "idle"
        return None

    def ingest_many(self, stream_id: str, values) -> list[StreamAlert]:
        """Feed a chunk of points from one stream.

        Points are appended via :meth:`~repro.serve.stream.StreamState.
        extend` in slices sized to the next emission boundary, so the
        Python-level work is one loop iteration per *window* instead of
        per point.  Queueing, shedding, scores and alerts are identical
        to feeding the chunk through :meth:`ingest` point by point
        (gated by ``tests/serve/test_engine.py``).  Batch boundaries
        may differ under a paced feed: the end-of-call flush rule is
        checked once per call, not once per point.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if len(values) == 0:
            return []
        state = self._streams.get(stream_id)
        if state is None:
            state = self._streams[stream_id] = StreamState(
                stream_id, self.config.window_length, self.config.stride
            )
        self.stats.points_ingested += len(values)
        alerts: list[StreamAlert] = []
        position = 0
        total = len(values)
        self._start_call()
        while position < total:
            take = min(total - position, state.until_next_emit)
            ready = state.extend(values[position : position + take])
            position += take
            if ready is not None:
                alerts.extend(self._enqueue(ready))
        trigger = self._due()
        if trigger is not None:
            alerts.extend(self._flush(trigger))
        return alerts

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def flush(self) -> list[StreamAlert]:
        """Score one micro-batch from the queue (up to the batch limit)."""
        return self._flush("drain")

    def _flush(self, trigger: str) -> list[StreamAlert]:
        if not self._queue:
            return []
        take = min(len(self._queue), self._batch_limit)
        start = _clock()
        batch = []
        for _ in range(take):
            enqueued, ready = self._queue.popleft()
            self.queue_wait.observe(start - enqueued)
            batch.append(ready)
        windows = np.stack([ready.window for ready in batch])

        with obs.span("serve.batch", size=take):
            scores, entry = self.registry.score(windows, batch)
        elapsed = _clock() - start
        self._last_flush_s = elapsed

        if self._last_model is not None and entry.name != self._last_model:
            # Scores are on a model-specific scale: a failover
            # invalidates every stream's alert baseline.  Reset and
            # re-warm rather than alert against the old model's scale.
            self._baselines.clear()
            obs.event("serve.baseline_reset", model=entry.name)
        self._last_model = entry.name

        self.latency.observe(elapsed)
        self.stats.batches += 1
        self.stats.windows_scored += take
        self.stats.models_used.add(entry.name)
        triggers = self.stats.flush_triggers
        triggers[trigger] = triggers.get(trigger, 0) + 1
        obs.incr(f"serve.flush.{trigger}")
        if entry is not self.registry.entries[0]:
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
        if alerts:
            self.stats.alerts += len(alerts)
            obs.incr("serve.alerts", len(alerts))
        self._mark = _clock()  # judging is the flush's work, not idle time
        return alerts

    def drain(self) -> list[StreamAlert]:
        """Flush until the queue is empty (end of stream / shutdown)."""
        alerts: list[StreamAlert] = []
        while self._queue:
            alerts.extend(self._flush("drain"))
        return alerts

    # ------------------------------------------------------------------
    # State externalization (the shard fabric's contract)
    # ------------------------------------------------------------------
    def export_stream(self, stream_id: str) -> StreamSnapshot | None:
        """Capture one stream's full state as a :class:`StreamSnapshot`.

        Covers the sliding-window state and the alert baseline ring —
        everything another engine needs to continue the stream with
        bit-identical windows and alert decisions.  Callers should
        :meth:`drain` first so no windows of the stream are pending.
        Returns ``None`` for a stream this engine has never seen.
        """
        state = self._streams.get(stream_id)
        if state is None:
            return None
        baseline = self._baselines.get(stream_id)
        return StreamSnapshot(
            stream_id=stream_id,
            stream=state.snapshot(),
            baseline=baseline.snapshot() if baseline is not None else None,
        )

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
                    model=entry.name,
                )
        baseline.append(score)
        return alert

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-ready snapshot of engine state and lifetime stats."""
        latency = self.latency
        wait = self.queue_wait
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
            "flush_triggers": dict(sorted(self.stats.flush_triggers.items())),
            "latency_ms": {
                "p50": latency.quantile(0.5) * 1e3,
                "p90": latency.quantile(0.9) * 1e3,
                "p99": latency.quantile(0.99) * 1e3,
                "mean": latency.mean * 1e3,
            },
            "queue_wait_ms": {
                "p50": wait.quantile(0.5) * 1e3,
                "p90": wait.quantile(0.9) * 1e3,
                "p99": wait.quantile(0.99) * 1e3,
            },
            "chain": self.registry.describe(),
        }
