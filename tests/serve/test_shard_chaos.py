"""Chaos drills for the shard fabric: ``kill -9`` a worker mid-run and
prove recovery is exact for every store backend."""

from __future__ import annotations

import os
import signal

import pytest

from repro.serve.shard import ShardRouter, WorkerDiedError
from repro.serve.stores import FileBackedStore, InMemoryStore
from repro.serve.supervisor import ShardSupervisor

from .test_shard import make_feed, make_spec, run_rounds, run_unsharded


def make_store(kind: str, tmp_path):
    if kind == "memory":
        return InMemoryStore()
    return FileBackedStore(tmp_path / "store")


def kill_worker(router: ShardRouter, name: str) -> None:
    os.kill(router.worker_pid(name), signal.SIGKILL)
    # SIGKILL is asynchronous; wait until the process is truly gone so
    # the next submit observes the death rather than racing it.
    router._workers[name].process.join(timeout=5.0)


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_kill_nine_recovery_is_bit_identical(backend, tmp_path):
    spec = make_spec()
    feed = make_feed()
    want_records, want_alerts = run_unsharded(spec, feed)
    store = make_store(backend, tmp_path)
    hooks = {4: lambda router: kill_worker(router, router.workers[0])}
    with ShardRouter(spec, workers=3, store=store) as router:
        got_records, got_alerts = run_rounds(router, feed, hooks=hooks)
        assert router.respawns == 1
        # zero lost acknowledged streams: every stream the router ever
        # acked is still in the store and still routable
        assert store.stream_ids() == sorted(feed)
        assert router.known_streams == sorted(feed)
    assert got_records == want_records and len(want_records) > 0
    assert got_alerts == want_alerts and len(want_alerts) > 0


def test_kill_every_worker_once_still_recovers_exactly():
    spec = make_spec()
    feed = make_feed(streams=4)
    want_records, want_alerts = run_unsharded(spec, feed)
    hooks = {
        2: lambda router: kill_worker(router, "w0"),
        4: lambda router: kill_worker(router, "w1"),
    }
    with ShardRouter(spec, workers=2, store=InMemoryStore()) as router:
        got_records, got_alerts = run_rounds(router, feed, hooks=hooks)
        assert router.respawns == 2
    assert got_records == want_records
    assert got_alerts == want_alerts


def test_auto_heal_off_surfaces_worker_died():
    spec = make_spec(record_scores=False)
    feed = make_feed(streams=3, length=96)
    with ShardRouter(
        spec, workers=2, store=InMemoryStore(), auto_heal=False
    ) as router:
        run_rounds(router, feed, chunk=48)
        victim = router.workers[0]
        kill_worker(router, victim)
        items = [(sid, series[:16]) for sid, series in feed.items()]
        with pytest.raises(WorkerDiedError) as caught:
            router.submit(items)
        assert caught.value.worker == victim
        # manual heal path: the drill recovers on demand
        router.heal_worker(victim)
        router.submit(items)


class TestSupervisor:
    def test_check_heals_an_idle_death(self):
        spec = make_spec(record_scores=False)
        feed = make_feed(streams=3, length=96)
        with ShardSupervisor(spec, workers=2, store=InMemoryStore()) as sup:
            run_rounds(sup.router, feed, chunk=48)
            sup.kill_worker("w0")
            healed = sup.check()
            assert healed == ["w0"]
            assert sup.heals == 1
            assert sup.check() == []  # nothing left to heal
            report = sup.report()
            assert report["heals"] == 1 and report["respawns"] == 1

    def test_submit_checks_before_routing(self):
        spec = make_spec()
        feed = make_feed(streams=4)
        want_records, want_alerts = run_unsharded(spec, feed)
        alerts, records = [], []
        with ShardSupervisor(spec, workers=2, store=InMemoryStore()) as sup:
            length = max(len(series) for series in feed.values())
            for round_index, position in enumerate(range(0, length, 64)):
                if round_index == 3:
                    sup.kill_worker("w1")  # dies while idle
                items = [
                    (sid, series[position : position + 64])
                    for sid, series in feed.items()
                ]
                alerts.extend(sup.submit(items))
                records.extend(sup.router.last_records)
            assert sup.heals == 1
        assert sorted(records) == want_records
        assert sorted(
            (a.stream_id, a.index, a.score) for a in alerts
        ) == want_alerts

    def test_scale_to_grows_and_shrinks(self):
        spec = make_spec(record_scores=False)
        feed = make_feed(streams=6, length=96)
        with ShardSupervisor(spec, workers=2, store=InMemoryStore()) as sup:
            run_rounds(sup.router, feed, chunk=48)
            grown = sup.scale_to(4)
            assert grown["workers"] == ["w0", "w1", "w2", "w3"]
            assert grown["was"] == ["w0", "w1"]
            assert set(grown["moved"]) == {"+w2", "+w3"}
            shrunk = sup.scale_to(3)
            assert shrunk["workers"] == ["w0", "w1", "w2"]
            assert set(shrunk["moved"]) == {"-w3"}
            run_rounds(sup.router, feed, chunk=48)
