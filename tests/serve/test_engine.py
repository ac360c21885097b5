"""Tests for the micro-batching scoring engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import engine as engine_module
from repro.serve.engine import EngineConfig, ScoringEngine
from repro.serve.registry import ModelRegistry, WindowScorer
from repro.serve.replay import FailAfter


class RecordingScorer(WindowScorer):
    """Scores each window by its max value; records batch compositions."""

    def __init__(self, name="recorder", offset=0.0, calibration=None):
        self.name = name
        self.offset = offset
        self.batches = []
        self._calibration = calibration

    def score_windows(self, windows, batch):
        self.batches.append([ready.stream_id for ready in batch])
        return np.asarray(windows).max(axis=1) + self.offset

    def calibration_scores(self, length, stride):
        return self._calibration


class FailingScorer(WindowScorer):
    def __init__(self, name="broken"):
        self.name = name

    def score_windows(self, windows, batch):
        raise RuntimeError("down")


class FakeClock:
    """The engine's clock, frozen until a test or a scorer moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(engine_module, "_clock", fake)
    return fake


class TimedScorer(RecordingScorer):
    """A :class:`RecordingScorer` whose every batch takes ``cost`` on the
    fake clock."""

    def __init__(self, clock, cost):
        super().__init__()
        self.clock = clock
        self.cost = cost

    def score_windows(self, windows, batch):
        self.clock.now += self.cost
        return super().score_windows(windows, batch)


def emitted(engine):
    return engine.queue_depth + engine.stats.windows_scored + engine.stats.shed


def feed_one_window(engine):
    """Feed stream ``s`` points one at a time until it emits a window."""
    before = emitted(engine)
    while emitted(engine) == before:
        engine.ingest("s", 0.0)


def make_engine(scorer, **config_kwargs):
    registry = ModelRegistry()
    registry.register(scorer)
    defaults = dict(window_length=16, stride=4, warmup_scores=4)
    defaults.update(config_kwargs)
    return ScoringEngine(registry, EngineConfig(**defaults)), registry


class TestMicroBatching:
    def test_batches_mix_windows_from_many_streams(self, rng):
        scorer = RecordingScorer()
        engine, _ = make_engine(scorer, max_batch=8)
        streams = [f"s{i}" for i in range(4)]
        for value in rng.normal(size=200):
            for stream in streams:
                engine.ingest(stream, float(value))
        engine.drain()

        multi = [batch for batch in scorer.batches if len(set(batch)) > 1]
        assert multi, "no batch contained windows from more than one stream"
        sizes = [len(batch) for batch in scorer.batches]
        assert max(sizes) == 8  # full micro-batches while the feed is hot
        assert engine.stats.windows_scored == sum(sizes)

    def test_every_emitted_window_is_scored_exactly_once(self, rng):
        scorer = RecordingScorer()
        engine, _ = make_engine(scorer, max_batch=8, queue_capacity=10_000)
        for value in rng.normal(size=150):
            engine.ingest("only", float(value))
        engine.drain()
        expected = 1 + (150 - 16) // 4  # first full window, then every stride
        assert engine.stats.windows_scored == expected
        assert engine.stats.shed == 0


class TestSelfClockedFlush:
    """A queued window is scored once its wait plus the caller's expected
    idle time reaches one flush time (see the module docstring); the
    clock is the fake one, so every boundary is exact."""

    @pytest.mark.parametrize("call", ["ingest", "ingest_many"])
    def test_window_is_scored_once_it_waited_one_flush_time(self, clock, call):
        scorer = TimedScorer(clock, cost=0.5)
        engine, _ = make_engine(scorer, max_batch=8)
        while not scorer.batches:  # the first flush: a full batch, 0.5 s
            engine.ingest("s", 0.0)
        assert len(scorer.batches[0]) == 8
        assert engine.queue_depth == 0

        # The clock has stood still between calls: no idle time yet.
        feed_one_window(engine)  # queued at 0.5, as the flush ended
        assert engine.queue_depth == 1
        feed = getattr(engine, call)
        point = 0.0 if call == "ingest" else np.zeros(1)
        clock.now = 0.75
        feed("s", point)  # waited 0.25 + idle 0.25 / 8 < 0.5: wait
        clock.now = 0.9
        feed("s", point)  # waited 0.4 + idle 0.046 < 0.5: wait
        assert len(scorer.batches) == 1 and engine.queue_depth == 1
        clock.now = 0.96
        feed("s", point)  # waited 0.46 + idle 0.048 >= 0.5: the next call is late
        assert engine.queue_depth == 0
        assert engine.report()["flush_triggers"] == {"idle": 1, "size": 1}

        # Idle time completes the next wait too; the one after that
        # reaches the flush time itself, which the deadline names first.
        feed_one_window(engine)  # queued at 1.46, as the flush ended
        clock.now = 1.9
        feed("s", point)  # waited 0.44 + idle 0.08 >= 0.5
        assert engine.queue_depth == 0
        feed_one_window(engine)  # queued at 2.4
        clock.now = 2.9
        feed("s", point)  # waited exactly one flush time
        assert engine.queue_depth == 0
        assert [len(batch) for batch in scorer.batches] == [8, 1, 1, 1]
        assert engine.report()["flush_triggers"] == {"deadline": 1, "idle": 2, "size": 1}

    @pytest.mark.parametrize("call", ["ingest", "ingest_many"])
    def test_paced_feed_is_scored_in_the_call_that_queued_it(self, clock, call):
        """A call a second, a flush a quarter of that: once the fresh
        engine's first full batch has measured a flush, every window is
        scored by the call that queued it."""
        scorer = TimedScorer(clock, cost=0.25)
        engine, _ = make_engine(scorer, max_batch=8)
        feed = getattr(engine, call)
        point = 0.0 if call == "ingest" else np.zeros(4)
        for step in range(200):
            clock.now = max(clock.now, float(step))
            queued = emitted(engine)
            feed("s", point)
            if len(scorer.batches) > 1 or (scorer.batches and emitted(engine) > queued):
                assert engine.queue_depth == 0, step
        sizes = [len(batch) for batch in scorer.batches]
        assert sizes[0] == 8 and len(sizes) > 20 and set(sizes[1:]) == {1}
        assert engine.report()["flush_triggers"] == {"idle": len(sizes) - 1, "size": 1}

    @pytest.mark.parametrize("chunk", [None, 4])
    def test_hot_feed_forms_full_batches(self, clock, rng, chunk):
        """The caller is back within a microsecond; a flush takes 10 ms."""
        scorer = TimedScorer(clock, cost=0.01)
        engine, _ = make_engine(scorer, max_batch=8)
        values = rng.normal(size=400)
        for start in range(0, len(values), chunk or 1):
            for stream in ("s0", "s1", "s2", "s3"):
                clock.now += 1e-6
                if chunk is None:
                    engine.ingest(stream, float(values[start]))
                else:
                    engine.ingest_many(stream, values[start:start + chunk])
        sizes = [len(batch) for batch in scorer.batches]
        assert len(sizes) > 10 and set(sizes) == {8}
        assert engine.report()["flush_triggers"] == {"size": len(sizes)}

    @staticmethod
    def blocked_feed(clock, calls=300):
        """An open loop a window a second whose flushes cost 1.5 s + 0.1 s
        per window, so one window's flush outlasts the call interval: a
        call due while a flush runs starts as soon as the flush ends.
        Returns the batch sizes."""
        scorer = TimedScorer(clock, cost=0.0)

        def score_windows(windows, batch):
            clock.now += 1.5 + 0.1 * len(batch)
            return RecordingScorer.score_windows(scorer, windows, batch)

        scorer.score_windows = score_windows
        engine, _ = make_engine(scorer, max_batch=64)
        for step in range(calls):
            clock.now = max(clock.now, float(step))
            engine.ingest_many("s", np.zeros(4))
        return [len(batch) for batch in scorer.batches]

    def test_blocked_caller_batches_no_smaller_than_the_deadline_rule(
        self, clock, monkeypatch
    ):
        """A blocked caller has no idle time, so it converges to the
        batches of the deadline rule alone, and well past one window
        per flush (where averaging the time between call starts would
        stay: once every call flushes, that time is the flush time)."""
        idle_rule = self.blocked_feed(clock)
        monkeypatch.setattr(engine_module, "IDLE_WEIGHT", 0.0)
        clock.now = 0.0
        deadline_rule = self.blocked_feed(clock)
        tail = slice(-20, None)
        assert min(idle_rule[tail]) >= min(deadline_rule[tail]) > 1
        assert np.mean(idle_rule[tail]) >= np.mean(deadline_rule[tail])

    def test_one_clock_read_per_call(self, clock, rng, monkeypatch):
        """A call that flushes nothing reads the clock once, whether it
        queues a window or not."""
        scorer = TimedScorer(clock, cost=0.5)
        engine, _ = make_engine(scorer, max_batch=8)
        reads = []

        def counting():
            reads.append(clock.now)
            return clock()

        monkeypatch.setattr(engine_module, "_clock", counting)
        for value in rng.normal(size=40):  # 7 windows: the size trigger never fires
            before = len(reads)
            engine.ingest("s", float(value))
            assert len(reads) - before == 1
        assert engine.queue_depth == 7 and not scorer.batches
        engine.drain()
        before = len(reads)
        engine.ingest_many("s", rng.normal(size=7))
        assert len(reads) - before == 1

    @pytest.mark.parametrize("chunk", [None, 1, 7, 32])
    def test_frozen_clock_forms_full_batches(self, clock, rng, chunk):
        scorer = TimedScorer(clock, cost=0.0)
        engine, _ = make_engine(scorer, max_batch=8)
        feed = {f"s{i}": rng.normal(size=200) for i in range(4)}
        for stream, values in feed.items():
            if chunk is None:
                for value in values:
                    engine.ingest(stream, float(value))
            else:
                for start in range(0, len(values), chunk):
                    engine.ingest_many(stream, values[start:start + chunk])
        sizes = [len(batch) for batch in scorer.batches]
        assert len(sizes) > 2 and set(sizes) == {8}
        engine.drain()
        assert engine.stats.windows_scored == 4 * (1 + (200 - 16) // 4)

    def test_fresh_engine_uses_the_size_trigger_alone(self, clock):
        scorer = TimedScorer(clock, cost=0.5)
        engine, _ = make_engine(scorer, max_batch=8)
        for step in range(7):
            clock.now = 100.0 * step  # ages far beyond any flush time
            feed_one_window(engine)
        engine.ingest("s", 0.0)
        assert scorer.batches == [] and engine.queue_depth == 7
        feed_one_window(engine)  # the eighth window fills the batch
        assert [len(batch) for batch in scorer.batches] == [8]

        # With a flush time measured, the deadline applies.
        clock.now = 1000.0
        feed_one_window(engine)
        clock.now = 1000.5
        engine.ingest("s", 0.0)
        assert [len(batch) for batch in scorer.batches] == [8, 1]

    def test_shedding_keeps_enqueue_times_aligned(self, clock):
        scorer = TimedScorer(clock, cost=4.0)
        engine, _ = make_engine(scorer, max_batch=64, queue_capacity=4)
        feed_one_window(engine)
        engine.drain()  # the first flush: 4 s
        scorer.batches.clear()

        for now in (10.0, 11.0, 12.0, 13.0, 13.5, 13.75):
            clock.now = now
            feed_one_window(engine)
        # Windows queued at 10 and 11 were shed; the oldest left is 12's.
        assert engine.stats.shed == 2 and engine.queue_depth == 4
        clock.now = 15.5  # 10's window would be 5.5 s old; 12's is 3.5
        engine.ingest("s", 0.0)
        assert scorer.batches == []
        clock.now = 16.0
        engine.ingest("s", 0.0)
        assert [len(batch) for batch in scorer.batches] == [4]


class TestAlerting:
    def test_spike_alerts_only_on_the_spiked_stream(self, rng):
        scorer = RecordingScorer()
        engine, _ = make_engine(scorer, max_batch=4, alert_sigma=6.0)
        quiet = rng.normal(size=400) * 0.1
        spiked = quiet.copy()
        spiked[300] = 50.0

        alerts = []
        for q, s in zip(quiet, spiked):
            alerts.extend(engine.ingest("quiet", float(q)))
            alerts.extend(engine.ingest("spiked", float(s)))
        alerts.extend(engine.drain())

        assert alerts, "spike did not alert"
        assert {alert.stream_id for alert in alerts} == {"spiked"}
        assert all(alert.score > alert.threshold for alert in alerts)
        # The alerting window must cover the spike position.
        assert any(
            alert.index - engine.config.window_length <= 300 < alert.index
            for alert in alerts
        )

    def test_no_alerts_during_cold_warmup(self, rng):
        scorer = RecordingScorer()
        engine, _ = make_engine(scorer, max_batch=1, warmup_scores=10)
        # Spike inside the first few windows: baseline has no calibration
        # and too few scores, so the engine must stay quiet.
        series = rng.normal(size=40) * 0.1
        series[20] = 50.0
        alerts = engine.ingest_many("s", series)
        alerts.extend(engine.drain())
        assert alerts == []

    def test_calibration_seeding_alerts_from_the_first_window(self, rng):
        calibration = rng.normal(size=64) * 0.1
        scorer = RecordingScorer(calibration=calibration)
        engine, _ = make_engine(scorer, max_batch=1, warmup_scores=10)
        series = rng.normal(size=40) * 0.1
        series[20] = 50.0
        alerts = engine.ingest_many("s", series)
        alerts.extend(engine.drain())
        assert alerts, "seeded baseline should alert without live warmup"


class TestAdmissionControl:
    def test_oldest_windows_are_shed_at_capacity(self, rng, clock):
        scorer = RecordingScorer()
        # max_batch larger than capacity and the clock frozen: flush never
        # triggers during ingestion, so the queue must shed to stay bounded.
        engine, _ = make_engine(scorer, max_batch=64, queue_capacity=4)
        for value in rng.normal(size=200):
            engine.ingest("s", float(value))
        assert engine.queue_depth <= 4
        assert engine.stats.shed > 0
        engine.drain()
        # Only the freshest windows survived.
        kept = scorer.batches[0]
        assert len(kept) == 4


class TestFailover:
    def test_failover_keeps_streams_flowing_and_resets_baselines(self, rng):
        registry = ModelRegistry()
        primary = RecordingScorer(name="primary", offset=0.0)
        fallback = RecordingScorer(name="fallback", offset=100.0)
        entry = registry.register(primary, max_failures=1)
        registry.register(fallback)
        engine = ScoringEngine(
            registry,
            EngineConfig(
                window_length=16,
                stride=4,
                max_batch=4,
                warmup_scores=4,
                alert_sigma=8.0,
            ),
        )

        streams = ["a", "b"]
        alerts = []
        values = rng.normal(size=300) * 0.1
        for i, value in enumerate(values):
            if i == 150:
                primary.score_windows = FailingScorer().score_windows
            for stream in streams:
                alerts.extend(engine.ingest(stream, float(value)))
        alerts.extend(engine.drain())

        assert entry.tripped
        assert engine.stats.fallback_batches > 0
        assert {"primary", "fallback"} <= engine.stats.models_used
        # The +100 scale jump must not alert: baselines reset on failover.
        assert alerts == []
        # Both streams kept producing scored windows after the switch.
        post_switch = [b for b in fallback.batches]
        assert any("a" in batch for batch in post_switch)
        assert any("b" in batch for batch in post_switch)


class TestAdaptiveBatching:
    def test_limit_halves_on_overrun_and_recovers(self):
        scorer = RecordingScorer()
        engine, _ = make_engine(scorer, max_batch=16, latency_budget_s=1.0)
        assert engine.batch_limit == 16
        engine._adapt_batch_limit(2.0)
        assert engine.batch_limit == 8
        engine._adapt_batch_limit(2.0)
        assert engine.batch_limit == 4
        engine._adapt_batch_limit(0.1)  # comfortably under budget / 4
        assert engine.batch_limit == 8
        engine._adapt_batch_limit(0.5)  # between budget/4 and budget: hold
        assert engine.batch_limit == 8

    def test_limit_never_leaves_bounds(self):
        scorer = RecordingScorer()
        engine, _ = make_engine(scorer, max_batch=4, latency_budget_s=1.0)
        for _ in range(10):
            engine._adapt_batch_limit(5.0)
        assert engine.batch_limit == 1
        for _ in range(10):
            engine._adapt_batch_limit(0.01)
        assert engine.batch_limit == 4


class TestReport:
    def test_report_is_json_ready(self, rng):
        import json

        scorer = RecordingScorer()
        engine, _ = make_engine(scorer, max_batch=4)
        for value in rng.normal(size=100):
            engine.ingest("s", float(value))
        engine.drain()
        report = engine.report()
        json.dumps(report)
        assert report["streams"] == 1
        assert report["windows_scored"] > 0
        assert report["latency_ms"]["p50"] >= 0.0
        assert set(report["queue_wait_ms"]) == {"p50", "p90", "p99"}
        assert sum(report["flush_triggers"].values()) == report["batches"]
        assert engine.queue_wait.count == report["windows_scored"]
        assert report["chain"][0]["model"] == "recorder"

    def test_flush_triggers_are_counted(self, clock):
        from repro import obs

        engine, _ = make_engine(TimedScorer(clock, cost=0.5), max_batch=8)
        with obs.observed() as session:
            feed_one_window(engine)
            engine.drain()  # drain
            feed_one_window(engine)
            clock.now += 0.5
            engine.ingest("s", 0.0)  # deadline
            while engine.stats.batches == 2:
                engine.ingest("s", 0.0)  # size: the clock stands still
            clock.now += 10.0
            feed_one_window(engine)  # idle: the caller was away 10 s
        triggers = {"deadline": 1, "drain": 1, "idle": 1, "size": 1}
        assert engine.report()["flush_triggers"] == triggers
        counters = session.metrics.counters
        assert {
            name.split(".")[-1]: counter.value
            for name, counter in counters.items()
            if name.startswith("serve.flush.")
        } == triggers

    def test_queue_wait_runs_from_enqueue_to_flush_start(self, clock):
        engine, _ = make_engine(TimedScorer(clock, cost=0.5), max_batch=8)
        for now in (1.0, 2.0, 3.0):
            clock.now = now
            feed_one_window(engine)
        clock.now = 5.0
        engine.drain()  # the 0.5 s flush itself is not waiting
        assert engine.report()["queue_wait_ms"] == {
            "p50": 3000.0, "p90": 4000.0, "p99": 4000.0,
        }


class ScaledScorer(WindowScorer):
    """|max| of each window times a scale; calibration on the same scale."""

    def __init__(self, name, scale, calibration):
        self.name = name
        self.scale = scale
        self._calibration = calibration

    def score_windows(self, windows, batch):
        return np.abs(np.asarray(windows)).max(axis=1) * self.scale

    def calibration_scores(self, length, stride):
        return self._calibration


class TestFailoverCalibration:
    """A failover must not judge windows against the old model's scale.

    The primary scores on a ~0.3 scale and fails after its healthy
    calls; the fallback scores on a x100 scale.  Windows queued before
    the switch are scored by the fallback after it, so judging them
    against a baseline banked on the primary's scale would alert on all
    of them.  The flush that first sees the fallback re-seeds every
    baseline from the fallback's calibration before it judges a window.
    """

    def make(self, rng, healthy_calls):
        calibration = rng.normal(size=256) * 0.05 + 0.35
        primary = FailAfter(ScaledScorer("primary", 1.0, calibration), healthy_calls)
        fallback = ScaledScorer("fallback", 100.0, calibration * 100.0)
        registry = ModelRegistry()
        registry.register(primary, max_failures=1)
        registry.register(fallback)
        engine = ScoringEngine(
            registry,
            EngineConfig(
                window_length=16,
                stride=4,
                max_batch=8,
                warmup_scores=4,
                alert_sigma=6.0,
            ),
        )
        return engine, primary

    def test_windows_queued_across_the_switch_do_not_alert(self, rng):
        engine, primary = self.make(rng, healthy_calls=5)
        alerts = []
        for value in rng.normal(size=200) * 0.1:
            alerts.extend(engine.ingest("s", float(value)))
        alerts.extend(engine.drain())
        assert primary.calls > primary.healthy_calls, "the primary never failed"
        assert engine.stats.fallback_batches > 0
        assert alerts == [], "the primary's calibration leaked onto the fallback's scale"

    def test_spike_after_failover_alerts_on_fallback_scale(self, rng):
        engine, _ = self.make(rng, healthy_calls=5)
        alerts = []
        for value in rng.normal(size=200) * 0.1:
            alerts.extend(engine.ingest("s", float(value)))
        alerts.extend(engine.drain())
        assert alerts == []

        spike_alerts = []
        for value in np.full(20, 5.0):
            spike_alerts.extend(engine.ingest("s", float(value)))
        spike_alerts.extend(engine.drain())
        assert spike_alerts
        assert all(a.model == "fallback" for a in spike_alerts)
        assert all(a.threshold > 10.0 for a in spike_alerts)


class TestEngineConfigValidation:
    def test_valid_config_accepts_boundaries(self):
        EngineConfig(window_length=2, stride=1, score_baseline=4,
                     warmup_scores=4, alert_sigma=0.5, min_spread=0.0)

    @pytest.mark.parametrize("overrides", [
        {"score_baseline": 0},
        {"alert_sigma": 0.0},
        {"alert_sigma": -1.0},
        {"min_spread": -1e-12},
        {"warmup_scores": 20, "score_baseline": 10},
        {"warmup_scores": 0},
    ])
    def test_rejects_unusable_alert_settings(self, overrides):
        with pytest.raises(ValueError):
            EngineConfig(window_length=16, stride=4, **overrides)


class TestIngestManyFastPath:
    def _spiked_feed(self, rng, streams=4, points=300):
        feed = {f"s{i}": rng.normal(size=points) for i in range(streams)}
        feed["s1"][200:210] += 8.0  # make alerts actually fire
        return feed

    @pytest.mark.parametrize("chunk", [1, 3, 37, 100, 300])
    def test_chunked_equals_per_point(self, rng, chunk):
        feed = self._spiked_feed(rng)
        baseline_engine, _ = make_engine(RecordingScorer(), max_batch=8)
        chunked_engine, _ = make_engine(RecordingScorer(), max_batch=8)
        per_point, chunked = [], []
        for stream, values in feed.items():
            for value in values:
                per_point.extend(baseline_engine.ingest(stream, float(value)))
        per_point.extend(baseline_engine.drain())
        for stream, values in feed.items():
            for start in range(0, len(values), chunk):
                chunked.extend(
                    chunked_engine.ingest_many(stream, values[start:start + chunk])
                )
        chunked.extend(chunked_engine.drain())

        key = lambda alerts: [
            (a.stream_id, a.index, a.score, a.threshold) for a in alerts
        ]
        assert sorted(key(per_point)) == sorted(key(chunked))
        assert (
            baseline_engine.stats.windows_scored
            == chunked_engine.stats.windows_scored > 0
        )
        assert (
            baseline_engine.stats.points_ingested
            == chunked_engine.stats.points_ingested
        )

    def test_empty_chunk_is_a_noop(self, rng):
        engine, _ = make_engine(RecordingScorer())
        assert engine.ingest_many("s", np.array([])) == []
        assert engine.stats.points_ingested == 0


class TestStreamExternalization:
    def test_export_import_round_trip_is_bit_identical(self, rng):
        feed = {f"s{i}": rng.normal(size=260) for i in range(3)}
        feed["s0"][200:240] += 9.0
        source, _ = make_engine(RecordingScorer(), max_batch=8)
        resumed, _ = make_engine(RecordingScorer(), max_batch=8)
        uninterrupted, _ = make_engine(RecordingScorer(), max_batch=8)

        for stream, values in feed.items():
            source.ingest_many(stream, values[:130])
            uninterrupted.ingest_many(stream, values[:130])
        source.drain()
        uninterrupted.drain()

        for stream in source.streams:
            resumed.import_stream(source.export_stream(stream))
        assert resumed.streams == source.streams

        continued, reference = [], []
        for stream, values in feed.items():
            continued.extend(resumed.ingest_many(stream, values[130:]))
            reference.extend(uninterrupted.ingest_many(stream, values[130:]))
        continued.extend(resumed.drain())
        reference.extend(uninterrupted.drain())

        key = lambda alerts: sorted(
            (a.stream_id, a.index, a.score, a.threshold) for a in alerts
        )
        assert key(continued) == key(reference)
        assert len(key(reference)) > 0

    def test_export_unknown_stream_returns_none(self):
        engine, _ = make_engine(RecordingScorer())
        assert engine.export_stream("ghost") is None

    def test_snapshot_before_the_first_score_has_no_baseline(self, rng):
        """A stream exported before its first window was scored carries
        no baseline, and importing it clears any stale one."""
        source, _ = make_engine(RecordingScorer())
        target, _ = make_engine(RecordingScorer())
        target.ingest_many("s", rng.normal(size=40))
        target.drain()
        source.ingest_many("s", rng.normal(size=10))  # < one window
        snapshot = source.export_stream("s")
        assert snapshot.baseline is None
        target.import_stream(snapshot)
        assert "s" not in target._baselines
        assert target.export_stream("s").stream["count"] == 10
