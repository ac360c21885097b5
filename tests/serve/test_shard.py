"""Tests for the shard fabric: placement, router parity and the
``serve-shard`` CLI (repro.serve.shard)."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.baselines.spectral_residual import SpectralResidualWindowScorer
from repro.serve import EngineConfig, ModelRegistry, ScoringEngine
from repro.serve.shard import RecordingEngine, ShardRouter


# ----------------------------------------------------------------------
# Shared scenario: a small spectral-residual engine factory plus a
# spiked feed so the runs produce real alerts, not just zero-alert
# score streams.
# ----------------------------------------------------------------------
def make_train() -> np.ndarray:
    t = np.arange(800)
    train = np.sin(2 * np.pi * t / 32)
    return train + 0.03 * np.random.default_rng(5).standard_normal(len(t))


def make_factory(
    scorer=None, window_length: int = 32, stride: int = 8, record: bool = True
):
    """A zero-argument engine factory over one scorer built here, once."""
    if scorer is None:
        scorer = SpectralResidualWindowScorer(calibration_series=make_train())
    config = EngineConfig(
        window_length=window_length,
        stride=stride,
        max_batch=16,
        score_baseline=64,
        warmup_scores=8,
    )
    engine_cls = RecordingEngine if record else ScoringEngine

    def make_engine() -> ScoringEngine:
        registry = ModelRegistry()
        registry.register(scorer)
        return engine_cls(registry, config)

    return make_engine


def make_feed(streams: int = 6, length: int = 480) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(77)
    t = np.arange(length)
    feed = {}
    for i in range(streams):
        series = np.sin(2 * np.pi * (t + 7 * i) / 32)
        series += 0.03 * rng.standard_normal(length)
        if i % 2 == 0:
            series[length // 2 : length // 2 + 6] += 6.0
        feed[f"stream-{i}"] = series
    return feed


def run_unsharded(make_engine, feed, chunk: int = 64):
    """Reference run: one engine, same chunk cadence as the router."""
    engine = make_engine()
    assert isinstance(engine, RecordingEngine)
    alerts = []
    length = max(len(series) for series in feed.values())
    for position in range(0, length, chunk):
        for stream_id, series in feed.items():
            alerts.extend(
                engine.ingest_many(stream_id, series[position : position + chunk])
            )
        alerts.extend(engine.drain())
    return sorted(engine.take_records()), sorted(
        (a.stream_id, a.index, a.score) for a in alerts
    )


def run_rounds(router: ShardRouter, feed, chunk: int = 64, hooks=None):
    """Drive the router round by round; ``hooks[round] -> callable``."""
    alerts, records = [], []
    length = max(len(series) for series in feed.values())
    rounds = range(0, length, chunk)
    for round_index, position in enumerate(rounds):
        if hooks and round_index in hooks:
            hooks[round_index](router)
        items = [
            (stream_id, series[position : position + chunk])
            for stream_id, series in feed.items()
        ]
        alerts.extend(router.submit(items))
        records.extend(router.last_records)
    return sorted(records), sorted(
        (a.stream_id, a.index, a.score) for a in alerts
    )


class TestShardedParity:
    def test_sharded_run_matches_unsharded_bit_for_bit(self):
        make_engine = make_factory()
        feed = make_feed()
        want_records, want_alerts = run_unsharded(make_engine, feed)
        with ShardRouter(make_engine, workers=3) as router:
            got_records, got_alerts = run_rounds(router, feed)
        assert got_records == want_records
        assert len(want_records) > 0
        assert got_alerts == want_alerts
        assert len(want_alerts) > 0

    def test_router_holds_every_acked_stream(self):
        make_engine = make_factory(record=False)
        feed = make_feed(streams=4)
        with ShardRouter(make_engine, workers=2) as router:
            run_rounds(router, feed)
            assert router.known_streams == sorted(feed)
            assert all(
                router._snapshots[sid].stream["count"] == len(feed[sid])
                for sid in feed
            )

    def test_placement_is_blake2b_modulo_the_fleet(self):
        make_engine = make_factory(record=False)
        feed = make_feed(streams=12, length=96)
        with ShardRouter(make_engine, workers=3) as router:
            run_rounds(router, feed)
            report = router.report()
            for sid in feed:
                digest = hashlib.blake2b(sid.encode("utf-8"), digest_size=8).digest()
                assert router.owner(sid) == f"w{int.from_bytes(digest, 'big') % 3}"
        assert report["placement"] == {
            name: sum(router.owner(sid) == name for sid in feed)
            for name in ("w0", "w1", "w2")
        }
        # each worker's engine holds exactly the streams placed on it
        for name, worker in report["workers"].items():
            assert worker["streams"] == report["placement"][name]

    def test_empty_first_chunk_of_a_stream_is_a_noop(self):
        """A stream whose first chunk is empty has no state to snapshot;
        the round still acks and the stream joins on its next chunk."""
        make_engine = make_factory(record=False)
        with ShardRouter(make_engine, workers=2) as router:
            assert router.submit([("late", np.array([]))]) == []
            assert router.known_streams == []
            router.submit([("late", np.zeros(40))])
            assert router.known_streams == ["late"]
            assert router.respawns == 0

    def test_report_covers_every_worker(self):
        make_engine = make_factory(record=False)
        with ShardRouter(make_engine, workers=2) as router:
            run_rounds(router, make_feed(streams=3, length=96))
            report = router.report()
        assert sorted(report["workers"]) == ["w0", "w1"]
        assert all(w["alive"] for w in report["workers"].values())
        assert report["streams"] == 3
        assert sum(report["placement"].values()) == 3


class TestServeShardCLI:
    def test_run_with_chaos_writes_report(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "fabric.json"
        code = main([
            "serve-shard", "--dataset", "4", "--workers", "2",
            "--streams", "4", "--chunk", "512", "--kill-worker",
            "--json", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sharded replay" in stdout and "chaos: SIGKILL" in stdout
        payload = json.loads(out.read_text())
        assert payload["streams"] == 4 and payload["workers"] == 2
        assert payload["report"]["respawns"] == 1
        assert sum(payload["report"]["placement"].values()) == 4
