"""Sharded multi-worker serving: streams partitioned across processes.

A single :class:`~repro.serve.engine.ScoringEngine` caps out at one
core.  This module splits the stream population across N worker
processes (:class:`repro.runtime.workers.ForkWorker`), each running
its own engine over the streams a consistent hash assigns it, with all
per-stream state externalized through a
:class:`~repro.serve.stores.StoreProvider` so workers are
restartable.

Topology and guarantees:

- :class:`HashRing` — consistent hashing with virtual nodes.  Adding or
  removing a worker moves only the streams whose hash slot changed
  (~1/N of them), never reshuffles the rest.
- :class:`ShardRouter` — the parent-side fabric.  ``submit()`` groups a
  round of per-stream point chunks by owning worker, sends one
  ``points`` batch per worker over a duplex pipe, and collects replies.
  A batch is **acknowledged** only after its reply arrives *and* the
  per-stream snapshots it carries are persisted to the store; alerts
  are surfaced to the caller only with the ack.  Until then the batch
  stays in the router's in-flight ledger.
- **Crash recovery** — when a worker dies (chaos drill: ``kill -9``)
  the router drains whatever replies the dead worker already wrote to
  the pipe (acking them normally), respawns the process, rehydrates its
  streams from the store, and replays the unacknowledged in-flight
  batches in their original order.  Because every acked batch's
  post-state is in the store and un-acked batches re-run from that
  state, the recovered run's scores and alerts are bit-identical to an
  uninterrupted one, and no acknowledged stream is ever lost.  The
  exactness holds for stateless scorers: a snapshot carries window,
  window and baseline state, never state the scorer or registry keeps.
- **Migration** — ``add_worker`` / ``remove_worker`` export the moved
  streams (engine → snapshot → store) and hydrate them into their new
  owner; :meth:`~repro.serve.engine.ScoringEngine.import_stream`'s
  exactness contract makes the move invisible in the score series.

Workers are forks: the router takes a zero-argument
``make_engine`` callable, and each worker calls it after
:class:`~repro.runtime.workers.ForkWorker` forks it (fork args are
inherited, never pickled).  A scorer fitted once in the parent thus
reaches every worker and every respawn as it stands.  See
``docs/SHARDING.md``.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import signal
from collections import OrderedDict
from typing import Callable

import numpy as np

from .. import obs
from ..runtime.workers import ForkWorker, WorkerDied
from .engine import ScoringEngine, StreamAlert
from .stores import InMemoryStore, StoreProvider, StreamSnapshot

__all__ = ["HashRing", "RecordingEngine", "ShardRouter"]


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class HashRing:
    """Consistent hash ring with virtual nodes.

    Hashes are blake2b-based, never Python's salted ``hash()``, so the
    ring is deterministic across processes and runs — a worker and the
    router always agree on ownership.
    """

    def __init__(self, nodes=(), vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._hashes: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add_node(node)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = self._hash(f"{node}#{i}")
            at = bisect.bisect_left(self._hashes, point)
            self._hashes.insert(at, point)
            self._owners.insert(at, node)

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._hashes, self._owners)
            if owner != node
        ]
        self._hashes = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def owner(self, key: str) -> str:
        if not self._hashes:
            raise RuntimeError("hash ring has no nodes")
        at = bisect.bisect_right(self._hashes, self._hash(key))
        if at == len(self._hashes):
            at = 0
        return self._owners[at]

    def assignments(self, keys) -> dict[str, list[str]]:
        """Map node -> sorted keys it owns (nodes with none included)."""
        out: dict[str, list[str]] = {node: [] for node in self._nodes}
        for key in keys:
            out[self.owner(key)].append(key)
        return {node: sorted(keys) for node, keys in out.items()}


# ----------------------------------------------------------------------
# Engine with a score log
# ----------------------------------------------------------------------
class RecordingEngine(ScoringEngine):
    """A :class:`ScoringEngine` that logs every judged (stream, index,
    score) triple.  Workers whose factory builds one return the triples
    with each batch; the bit-identity drills compare them against an
    unsharded instance."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[tuple[str, int, float]] = []

    def _judge(self, ready, score, entry):
        self.records.append((ready.stream_id, ready.end_index, float(score)))
        return super()._judge(ready, score, entry)

    def take_records(self) -> list[tuple[str, int, float]]:
        records, self.records = self.records, []
        return records


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _alert_payload(alert: StreamAlert) -> tuple:
    return (alert.stream_id, alert.index, alert.score, alert.threshold, alert.model)


def _alert_from_payload(payload: tuple) -> StreamAlert:
    stream_id, index, score, threshold, model = payload
    return StreamAlert(
        stream_id=stream_id,
        index=index,
        score=score,
        threshold=threshold,
        model=model,
    )


def _worker_main(conn, make_engine: Callable[[], ScoringEngine]) -> None:
    """Worker loop: build the engine, serve messages until ``stop``.

    After every ``points`` batch the engine is fully drained before
    snapshots are taken, so a snapshot always captures a quiescent
    stream (empty queue) and rehydrating from it is exact.
    """
    engine = make_engine()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "points":
            _, batch_id, items = message
            scored_before = engine.stats.windows_scored
            alerts: list[StreamAlert] = []
            touched: list[str] = []
            seen: set[str] = set()
            for stream_id, values in items:
                alerts.extend(engine.ingest_many(stream_id, values))
                if stream_id not in seen:
                    seen.add(stream_id)
                    touched.append(stream_id)
            alerts.extend(engine.drain())
            snapshots = [
                engine.export_stream(stream_id).to_payload()
                for stream_id in touched
            ]
            records = (
                engine.take_records()
                if isinstance(engine, RecordingEngine)
                else []
            )
            conn.send(
                (
                    "scored",
                    batch_id,
                    [_alert_payload(alert) for alert in alerts],
                    snapshots,
                    records,
                    engine.stats.windows_scored - scored_before,
                )
            )
        elif kind == "hydrate":
            _, payloads = message
            for payload in payloads:
                engine.import_stream(StreamSnapshot.from_payload(payload))
            conn.send(("hydrated", len(payloads)))
        elif kind == "export":
            _, stream_ids, evict = message
            payloads = []
            for stream_id in stream_ids:
                snapshot = engine.export_stream(stream_id, evict=evict)
                if snapshot is not None:
                    payloads.append(snapshot.to_payload())
            conn.send(("exported", payloads))
        elif kind == "report":
            conn.send(("report", engine.report()))
        elif kind == "stop":
            conn.send(("stopped",))
            break
        else:  # pragma: no cover - protocol misuse
            conn.send(("error", f"unknown message kind {kind!r}"))
    conn.close()


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class ShardRouter:
    """Partitions streams across worker processes by consistent hash.

    Usage::

        scorer = SpectralResidualWindowScorer(calibration_series=train)

        def make_engine():
            registry = ModelRegistry()
            registry.register(scorer)
            return ScoringEngine(registry, EngineConfig(window_length=64))

        with ShardRouter(make_engine, workers=4, store=InMemoryStore()) as router:
            alerts = router.submit([("stream-7", chunk), ...])

    ``make_engine`` runs in each worker after the fork, so what it
    closes over is shared by value with the parent, never pickled.
    ``submit`` is one synchronous round: every involved worker scores
    its batch concurrently, and the call returns when all batches are
    acknowledged.  A worker found dead, mid-round or idle since the
    last one, is healed by respawn + rehydrate + replay.
    """

    def __init__(
        self,
        make_engine: Callable[[], ScoringEngine],
        workers: int = 4,
        store: StoreProvider | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.make_engine = make_engine
        self.store = store if store is not None else InMemoryStore()
        self.ring = HashRing()
        self._workers: dict[str, ForkWorker] = {}
        self._inflight: dict[str, OrderedDict] = {}
        self._results: dict[int, tuple[list, list]] = {}
        self._dead: set[str] = set()
        self._known: set[str] = set()
        self._next_batch = 0
        # Windows per worker, counted by the router as it acks batches:
        # a respawned worker's engine starts at zero, this tally does not.
        self._windows_scored: dict[str, int] = {}
        self.respawns = 0
        self.last_records: list[tuple[str, int, float]] = []
        for i in range(workers):
            self.ring.add_node(f"w{i}")
            self._spawn(f"w{i}")

    # -- lifecycle -------------------------------------------------------
    def _spawn(self, name: str) -> None:
        self._workers[name] = ForkWorker(_worker_main, self.make_engine)
        self._inflight.setdefault(name, OrderedDict())
        self._dead.discard(name)
        obs.gauge("serve.shard.workers", len(self._workers))

    @property
    def workers(self) -> list[str]:
        return sorted(self._workers)

    @property
    def known_streams(self) -> list[str]:
        return sorted(self._known)

    def kill_worker(self, name: str) -> int:
        """``kill -9`` a worker (the chaos drill) and reap it; returns its
        old pid.  The next round that routes to it heals it."""
        process = self._workers[name].process
        os.kill(process.pid, signal.SIGKILL)
        # SIGKILL is asynchronous; reap so the next submit observes the
        # death rather than racing it.
        process.join(timeout=5.0)
        obs.event("serve.shard.chaos_kill", worker=name, pid=process.pid)
        return process.pid

    def close(self) -> None:
        """Stop every worker (politely, then hard)."""
        for worker in self._workers.values():
            try:
                worker.send(("stop",))
            except WorkerDied:
                pass
        for worker in self._workers.values():
            worker.close()
        self._workers.clear()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the submit round ------------------------------------------------
    def submit(self, items) -> list[StreamAlert]:
        """Route one round of per-stream chunks; return the acked alerts.

        ``items`` is an iterable of ``(stream_id, values)``; per-window
        score triples (when the workers run a :class:`RecordingEngine`)
        land in :attr:`last_records`.
        """
        groups: dict[str, list] = {}
        count_points = 0
        for stream_id, values in items:
            values = np.asarray(values, dtype=np.float64).ravel()
            self._known.add(stream_id)
            groups.setdefault(self.ring.owner(stream_id), []).append(
                (stream_id, values)
            )
            count_points += len(values)
        sent: list[tuple[str, int]] = []
        for name, batch in groups.items():
            batch_id = self._next_batch
            self._next_batch += 1
            self._inflight[name][batch_id] = batch
            self._try_send(name, ("points", batch_id, batch))
            sent.append((name, batch_id))
        alerts: list[StreamAlert] = []
        records: list[tuple[str, int, float]] = []
        for name, batch_id in sent:
            self._await(name, batch_id)
            batch_alerts, batch_records = self._results.pop(batch_id)
            alerts.extend(batch_alerts)
            records.extend(batch_records)
        self.last_records = records
        obs.incr("serve.shard.points", count_points)
        obs.incr("serve.shard.batches", len(sent))
        if alerts:
            obs.incr("serve.shard.alerts", len(alerts))
        return alerts

    def _try_send(self, name: str, message) -> None:
        if name in self._dead:
            return  # _heal() will replay from the in-flight ledger
        try:
            self._workers[name].send(message)
        except WorkerDied:
            self._mark_dead(name)

    def _mark_dead(self, name: str) -> None:
        if name not in self._dead:
            self._dead.add(name)
            obs.event("serve.shard.worker_died", worker=name)

    def _await(self, name: str, batch_id: int) -> None:
        while batch_id not in self._results:
            if name in self._dead or not self._workers[name].alive():
                self._mark_dead(name)
                self._heal(name)
                continue
            try:
                reply = self._workers[name].recv()
            except WorkerDied:
                self._mark_dead(name)
                continue
            self._process_reply(name, reply)

    def _process_reply(self, name: str, reply) -> None:
        kind = reply[0]
        if kind != "scored":  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unexpected reply from {name}: {kind!r}")
        _, batch_id, alert_payloads, snapshot_payloads, records, scored = reply
        # Persist-then-ack: the store write is what makes the batch
        # durable; only after it succeeds do alerts surface.
        self.store.save_many(
            StreamSnapshot.from_payload(payload) for payload in snapshot_payloads
        )
        self._inflight[name].pop(batch_id, None)
        self._windows_scored[name] = self._windows_scored.get(name, 0) + scored
        self._results[batch_id] = (
            [_alert_from_payload(payload) for payload in alert_payloads],
            list(records),
        )

    # -- failure recovery ------------------------------------------------
    def _heal(self, name: str) -> None:
        """Respawn a dead worker: drain its last replies, rehydrate its
        streams from the store, replay unacknowledged batches in order."""
        worker = self._workers[name]
        # 1. Drain replies the worker wrote before dying — those batches
        #    completed; ack them normally so they are not replayed.
        while True:
            try:
                if not worker.conn.poll(0):
                    break
                reply = worker.recv()
            except (WorkerDied, OSError):
                break
            self._process_reply(name, reply)
        worker.close()
        # 2. Respawn and rehydrate every stream the ring assigns here.
        self._spawn(name)
        self.respawns += 1
        obs.incr("serve.shard.respawns")
        owned = [
            stream_id
            for stream_id in sorted(self._known)
            if self.ring.owner(stream_id) == name
        ]
        self._hydrate(name, owned)
        # 3. Replay the unacknowledged in-flight batches in order.  The
        #    store holds the pre-batch state, so re-running them yields
        #    the exact scores the lost run would have produced.
        pending = list(self._inflight[name].items())
        worker = self._workers[name]
        for batch_id, batch in pending:
            worker.send(("points", batch_id, batch))
        for batch_id, _ in pending:
            while batch_id in self._inflight[name]:
                self._process_reply(name, worker.recv())
        obs.event("serve.shard.healed", worker=name, replayed=len(pending))

    def _hydrate(self, name: str, stream_ids) -> None:
        payloads = []
        for stream_id in stream_ids:
            snapshot = self.store.load(stream_id)
            if snapshot is not None:
                payloads.append(snapshot.to_payload())
        if not payloads:
            return
        worker = self._workers[name]
        worker.send(("hydrate", payloads))
        reply = worker.recv()
        if reply[0] != "hydrated":  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unexpected hydrate reply: {reply[0]!r}")

    # -- topology changes ------------------------------------------------
    def add_worker(self, name: str) -> list[str]:
        """Join a worker; migrate only the streams whose slot moved.

        Returns the migrated stream ids.  Call between submit rounds
        (no in-flight batches).
        """
        self._assert_quiescent()
        before = {
            stream_id: self.ring.owner(stream_id) for stream_id in self._known
        }
        self.ring.add_node(name)
        self._spawn(name)
        moved: dict[str, list[str]] = {}
        for stream_id, old_owner in before.items():
            if self.ring.owner(stream_id) != old_owner:
                moved.setdefault(old_owner, []).append(stream_id)
        for old_owner, stream_ids in moved.items():
            self._migrate(old_owner, name, sorted(stream_ids))
        migrated = sorted(sid for ids in moved.values() for sid in ids)
        obs.event("serve.shard.rebalance", joined=name, moved=len(migrated))
        return migrated

    def remove_worker(self, name: str) -> list[str]:
        """Drain a worker out of the ring; migrate its streams away.

        Returns the migrated stream ids.  Only the departing worker's
        streams move — consistent hashing leaves the rest in place.
        """
        self._assert_quiescent()
        if len(self._workers) <= 1:
            raise ValueError("cannot remove the last worker")
        owned = sorted(
            stream_id
            for stream_id in self._known
            if self.ring.owner(stream_id) == name
        )
        # Export through the store *before* the worker leaves.
        self._export_to_store(name, owned, evict=True)
        self.ring.remove_node(name)
        worker = self._workers.pop(name)
        self._inflight.pop(name, None)
        self._dead.discard(name)
        try:
            worker.send(("stop",))
            worker.recv()
        except WorkerDied:
            pass
        worker.close()
        for new_owner, stream_ids in self.ring.assignments(owned).items():
            if stream_ids:
                self._hydrate(new_owner, stream_ids)
        obs.event("serve.shard.rebalance", left=name, moved=len(owned))
        obs.gauge("serve.shard.workers", len(self._workers))
        return owned

    def _migrate(self, source: str, target: str, stream_ids) -> None:
        self._export_to_store(source, stream_ids, evict=True)
        self._hydrate(target, stream_ids)

    def _export_to_store(self, name: str, stream_ids, evict: bool) -> None:
        if not stream_ids:
            return
        if name in self._dead or not self._workers[name].alive():
            return  # store already holds the last acked state
        worker = self._workers[name]
        worker.send(("export", list(stream_ids), evict))
        reply = worker.recv()
        if reply[0] != "exported":  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unexpected export reply: {reply[0]!r}")
        self.store.save_many(
            StreamSnapshot.from_payload(payload) for payload in reply[1]
        )

    def _assert_quiescent(self) -> None:
        busy = {
            name: len(pending)
            for name, pending in self._inflight.items()
            if pending
        }
        if busy:
            raise RuntimeError(
                f"topology change with in-flight batches: {busy}; "
                f"finish the submit round first"
            )

    # -- introspection ---------------------------------------------------
    def report(self) -> dict:
        """JSON-ready fabric report including each worker's engine view.

        ``windows_scored``, per worker and for the fleet, is the router's
        tally of acked batches, so it survives a respawn.
        """
        workers = {}
        for name in self.workers:
            worker = self._workers[name]
            if name in self._dead or not worker.alive():
                workers[name] = {"alive": False}
                continue
            try:
                worker.send(("report",))
                reply = worker.recv()
                workers[name] = {"alive": True, **reply[1]}
                workers[name]["windows_scored"] = self._windows_scored.get(name, 0)
            except WorkerDied:
                self._mark_dead(name)
                workers[name] = {"alive": False}
        return {
            "workers": workers,
            "ring": {name: len(ids) for name, ids in
                     self.ring.assignments(self._known).items()},
            "streams": len(self._known),
            "windows_scored": sum(self._windows_scored.values()),
            "respawns": self.respawns,
            "store": type(self.store).__name__,
        }
