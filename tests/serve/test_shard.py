"""Tests for the shard fabric: hash ring, router parity, and
migration (repro.serve.shard)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.spectral_residual import SpectralResidualWindowScorer
from repro.serve import EngineConfig, ModelRegistry, ScoringEngine
from repro.serve.shard import HashRing, RecordingEngine, ShardRouter
from repro.serve.stores import InMemoryStore


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


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"k{i}" for i in range(200)]
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # insertion order must not matter
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_join_moves_keys_only_to_the_new_node(self):
        keys = [f"stream/{i}" for i in range(500)]
        ring = HashRing(["w0", "w1", "w2"])
        before = {k: ring.owner(k) for k in keys}
        ring.add_node("w3")
        moved = {k for k in keys if ring.owner(k) != before[k]}
        assert 0 < len(moved) < len(keys)
        assert all(ring.owner(k) == "w3" for k in moved)

    def test_leave_restores_prior_ownership_exactly(self):
        keys = [f"stream/{i}" for i in range(500)]
        ring = HashRing(["w0", "w1", "w2"])
        before = {k: ring.owner(k) for k in keys}
        ring.add_node("w3")
        ring.remove_node("w3")
        assert {k: ring.owner(k) for k in keys} == before

    def test_leave_moves_only_the_departed_nodes_keys(self):
        keys = [f"stream/{i}" for i in range(500)]
        ring = HashRing(["w0", "w1", "w2", "w3"])
        before = {k: ring.owner(k) for k in keys}
        ring.remove_node("w1")
        for key in keys:
            if before[key] != "w1":
                assert ring.owner(key) == before[key]
            else:
                assert ring.owner(key) != "w1"

    def test_every_node_gets_a_fair_share(self):
        keys = [f"stream/{i}" for i in range(3000)]
        ring = HashRing(["w0", "w1", "w2", "w3"])
        counts = {n: len(ids) for n, ids in ring.assignments(keys).items()}
        assert set(counts) == {"w0", "w1", "w2", "w3"}
        assert min(counts.values()) > 0.5 * (len(keys) / 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(vnodes=0)
        ring = HashRing(["w0"])
        with pytest.raises(ValueError, match="already"):
            ring.add_node("w0")
        with pytest.raises(KeyError):
            ring.remove_node("nope")
        with pytest.raises(RuntimeError, match="no nodes"):
            HashRing().owner("k")


class TestShardedParity:
    def test_sharded_run_matches_unsharded_bit_for_bit(self):
        make_engine = make_factory()
        feed = make_feed()
        want_records, want_alerts = run_unsharded(make_engine, feed)
        with ShardRouter(make_engine, workers=3, store=InMemoryStore()) as router:
            got_records, got_alerts = run_rounds(router, feed)
        assert got_records == want_records
        assert len(want_records) > 0
        assert got_alerts == want_alerts
        assert len(want_alerts) > 0

    def test_store_holds_every_acked_stream(self):
        make_engine = make_factory(record=False)
        feed = make_feed(streams=4)
        store = InMemoryStore()
        with ShardRouter(make_engine, workers=2, store=store) as router:
            run_rounds(router, feed)
            assert store.stream_ids() == sorted(feed)
            assert router.known_streams == sorted(feed)

    def test_report_covers_every_worker(self):
        make_engine = make_factory(record=False)
        with ShardRouter(make_engine, workers=2, store=InMemoryStore()) as router:
            run_rounds(router, make_feed(streams=3, length=96))
            report = router.report()
        assert sorted(report["workers"]) == ["w0", "w1"]
        assert all(w["alive"] for w in report["workers"].values())
        assert report["streams"] == 3
        assert sum(report["ring"].values()) == 3


class TestMigration:
    def test_scale_out_and_in_mid_stream_is_bit_identical(self):
        make_engine = make_factory()
        feed = make_feed()
        want_records, want_alerts = run_unsharded(make_engine, feed)
        hooks = {
            3: lambda r: r.add_worker("w2"),
            5: lambda r: r.remove_worker("w0"),
        }
        with ShardRouter(make_engine, workers=2, store=InMemoryStore()) as router:
            got_records, got_alerts = run_rounds(router, feed, hooks=hooks)
        assert got_records == want_records
        assert got_alerts == want_alerts

    def test_join_migrates_exactly_the_reassigned_streams(self):
        make_engine = make_factory(record=False)
        feed = make_feed(streams=12, length=96)
        with ShardRouter(make_engine, workers=2, store=InMemoryStore()) as router:
            run_rounds(router, feed)
            before = {
                sid: router.ring.owner(sid) for sid in router.known_streams
            }
            moved = router.add_worker("w2")
            assert moved == sorted(
                sid for sid in before if router.ring.owner(sid) != before[sid]
            )
            assert all(router.ring.owner(sid) == "w2" for sid in moved)

    def test_cannot_remove_the_last_worker(self):
        make_engine = make_factory(record=False)
        with ShardRouter(make_engine, workers=1, store=InMemoryStore()) as router:
            with pytest.raises(ValueError, match="last worker"):
                router.remove_worker("w0")


class TestServeShardCLI:
    def test_run_with_file_store_and_chaos_writes_report(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "fabric.json"
        code = main([
            "serve-shard", "--dataset", "4", "--workers", "2",
            "--streams", "4", "--chunk", "512", "--store", "file",
            "--store-dir", str(tmp_path / "store"), "--kill-worker",
            "--json", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sharded replay" in stdout and "chaos: SIGKILL" in stdout
        payload = json.loads(out.read_text())
        assert payload["streams"] == 4 and payload["workers"] == 2
        assert payload["report"]["respawns"] == 1
        assert sum(payload["report"]["ring"].values()) == 4
