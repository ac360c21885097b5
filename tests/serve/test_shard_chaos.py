"""Chaos drills for the shard fabric: ``kill -9`` a worker mid-run and
prove recovery from the router's saved snapshots is exact."""

from __future__ import annotations

from repro.core import TriAD, TriADConfig
from repro.serve import TriADWindowScorer
from repro.serve.shard import ShardRouter

from .test_shard import make_factory, make_feed, make_train, run_rounds, run_unsharded


def test_kill_nine_recovery_is_bit_identical():
    make_engine = make_factory()
    feed = make_feed()
    want_records, want_alerts = run_unsharded(make_engine, feed)
    hooks = {4: lambda router: router.kill_worker(router.workers[0])}
    with ShardRouter(make_engine, workers=3) as router:
        got_records, got_alerts = run_rounds(router, feed, hooks=hooks)
        assert router.respawns == 1
        # zero lost acknowledged streams: every stream the router ever
        # acked still has a saved snapshot and is still routable
        assert router.known_streams == sorted(feed)
    assert got_records == want_records and len(want_records) > 0
    assert got_alerts == want_alerts and len(want_alerts) > 0


def test_kill_every_worker_once_still_recovers_exactly():
    make_engine = make_factory()
    feed = make_feed(streams=4)
    want_records, want_alerts = run_unsharded(make_engine, feed)
    hooks = {
        2: lambda router: router.kill_worker("w0"),
        4: lambda router: router.kill_worker("w1"),
    }
    with ShardRouter(make_engine, workers=2) as router:
        got_records, got_alerts = run_rounds(router, feed, hooks=hooks)
        assert router.respawns == 2
    assert got_records == want_records
    assert got_alerts == want_alerts


def test_idle_death_heals_on_the_next_submit():
    """A worker killed between rounds is healed by the next ``submit``
    alone: no separate health check is needed for exact recovery."""
    make_engine = make_factory()
    feed = make_feed(streams=4)
    want_records, want_alerts = run_unsharded(make_engine, feed)

    def kill_idle(router):
        router.kill_worker("w1")
        assert not router._workers["w1"].alive()

    with ShardRouter(make_engine, workers=2) as router:
        got_records, got_alerts = run_rounds(router, feed, hooks={3: kill_idle})
        assert router.respawns == 1
    assert got_records == want_records
    assert got_alerts == want_alerts


def test_triad_through_the_fabric_is_bit_identical():
    """A TriAD fitted once in the parent reaches every worker and the
    respawn through fork; a kill -9 leaves records and alerts exact."""
    config = TriADConfig(depth=2, hidden_dim=8, epochs=1, max_window=64)
    detector = TriAD(config).fit(make_train())
    make_engine = make_factory(
        TriADWindowScorer(detector),
        window_length=detector.plan.length,
        stride=detector.plan.stride,
    )
    feed = make_feed()
    want_records, want_alerts = run_unsharded(make_engine, feed)
    hooks = {4: lambda router: router.kill_worker(router.workers[0])}
    with ShardRouter(make_engine, workers=3) as router:
        got_records, got_alerts = run_rounds(router, feed, hooks=hooks)
        assert router.respawns == 1
    assert got_records == want_records and len(want_records) > 0
    assert got_alerts == want_alerts and len(want_alerts) > 0


def test_window_counts_survive_a_respawn():
    """The router tallies each acked batch's windows, so a respawned
    worker's fresh engine does not reset its count."""
    make_engine = make_factory()
    feed = make_feed(streams=4)

    def report(hooks):
        with ShardRouter(make_engine, workers=2) as router:
            run_rounds(router, feed, hooks=hooks)
            assert router.respawns == len(hooks)
            return router.report()

    clean = report({})
    killed = report({3: lambda router: router.kill_worker("w0")})
    per_worker = {
        name: worker["windows_scored"] for name, worker in killed["workers"].items()
    }
    assert per_worker == {
        name: worker["windows_scored"] for name, worker in clean["workers"].items()
    }
    assert sum(per_worker.values()) == killed["windows_scored"] == clean["windows_scored"] > 0


def test_report_keeps_a_dead_workers_tally():
    """A worker killed after a round and not yet healed still reports
    the windows the router acked from it."""
    make_engine = make_factory()
    feed = make_feed(streams=4)
    with ShardRouter(make_engine, workers=2) as router:
        router.submit([(sid, series[:96]) for sid, series in feed.items()])
        before = router.report()
        router.kill_worker("w0")
        after = router.report()
    assert after["workers"]["w0"]["alive"] is False
    per_worker = {
        name: worker["windows_scored"] for name, worker in after["workers"].items()
    }
    assert per_worker == {
        name: worker["windows_scored"] for name, worker in before["workers"].items()
    }
    assert sum(per_worker.values()) == after["windows_scored"] > 0
