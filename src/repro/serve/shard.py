"""Sharded multi-worker serving: streams partitioned across processes.

A single :class:`~repro.serve.engine.ScoringEngine` caps out at one
core.  This module splits the stream population across a fixed fleet
of N worker processes (:class:`repro.runtime.workers.ForkWorker`), each
running its own engine over the streams placed on it.  The router
keeps every stream's last acknowledged
:class:`~repro.serve.engine.StreamSnapshot`, so workers are
restartable.

Topology and guarantees:

- **Placement** — stream ``s`` lives on worker ``w{blake2b(s) % N}``
  for the router's whole life.  The hash is blake2b, never Python's
  salted ``hash()``, so placement is the same in every process and run.
- :class:`ShardRouter` — the parent-side fabric.  ``submit()`` groups a
  round of per-stream point chunks by owning worker, sends one
  ``points`` batch per worker over a duplex pipe, and collects replies.
  A batch is **acknowledged** only after its reply arrives *and* the
  per-stream snapshots it carries are saved in the router; alerts are
  surfaced to the caller only with the ack.  Until then the batch stays
  in the router's in-flight ledger.
- **Crash recovery** — when a worker dies (chaos drill: ``kill -9``)
  the router drains whatever replies the dead worker already wrote to
  the pipe (acking them normally), respawns the process, rehydrates its
  streams from the saved snapshots, and replays the unacknowledged
  in-flight batches in their original order.  Because every acked
  batch's post-state is saved and un-acked batches re-run from that
  state, the recovered run's scores and alerts are bit-identical to an
  uninterrupted one, and no acknowledged stream is ever lost.  The
  exactness holds for stateless scorers: a snapshot carries window
  and baseline state, never state the scorer or registry keeps.  The
  snapshots live as long as the router does; a new router starts every
  stream afresh.

Workers are forks: the router takes a zero-argument
``make_engine`` callable, and each worker calls it after
:class:`~repro.runtime.workers.ForkWorker` forks it (fork args are
inherited, never pickled).  A scorer fitted once in the parent thus
reaches every worker and every respawn as it stands.  See
``docs/SHARDING.md``.
"""

from __future__ import annotations

import hashlib
import os
import signal
from collections import OrderedDict
from typing import Callable

import numpy as np

from .. import obs
from ..runtime.workers import ForkWorker, WorkerDied
from .engine import ScoringEngine, StreamAlert, StreamSnapshot

__all__ = ["RecordingEngine", "ShardRouter"]


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
            for stream_id, values in items:
                alerts.extend(engine.ingest_many(stream_id, values))
            alerts.extend(engine.drain())
            touched = dict.fromkeys(stream_id for stream_id, _ in items)
            # A stream whose only chunk so far was empty has no state yet.
            snapshots = [s for s in map(engine.export_stream, touched) if s is not None]
            records = (
                engine.take_records()
                if isinstance(engine, RecordingEngine)
                else []
            )
            conn.send(
                (
                    "scored",
                    batch_id,
                    alerts,
                    snapshots,
                    records,
                    engine.stats.windows_scored - scored_before,
                )
            )
        elif kind == "hydrate":
            _, snapshots = message
            for snapshot in snapshots:
                engine.import_stream(snapshot)
            conn.send(("hydrated", len(snapshots)))
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
    """Partitions streams across a fixed fleet of worker processes.

    Usage::

        scorer = SpectralResidualWindowScorer(calibration_series=train)

        def make_engine():
            registry = ModelRegistry()
            registry.register(scorer)
            return ScoringEngine(registry, EngineConfig(window_length=64))

        with ShardRouter(make_engine, workers=4) as router:
            alerts = router.submit([("stream-7", chunk), ...])

    ``make_engine`` runs in each worker after the fork, so what it
    closes over is shared by value with the parent, never pickled.
    ``submit`` is one synchronous round: every involved worker scores
    its batch concurrently, and the call returns when all batches are
    acknowledged.  A worker found dead, mid-round or idle since the
    last one, is healed by respawn + rehydrate + replay.
    """

    def __init__(
        self, make_engine: Callable[[], ScoringEngine], workers: int = 4
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.make_engine = make_engine
        self._fleet_size = workers
        self._workers: dict[str, ForkWorker] = {}
        self._inflight: dict[str, OrderedDict] = {}
        self._results: dict[int, tuple[list, list]] = {}
        self._dead: set[str] = set()
        # The last acked snapshot of every stream: what a respawned
        # worker is rehydrated from.
        self._snapshots: dict[str, StreamSnapshot] = {}
        self._next_batch = 0
        # Windows per worker, counted by the router as it acks batches:
        # a respawned worker's engine starts at zero, this tally does not.
        self._windows_scored: dict[str, int] = {}
        self.respawns = 0
        self.last_records: list[tuple[str, int, float]] = []
        for i in range(workers):
            self._windows_scored[f"w{i}"] = 0
            self._spawn(f"w{i}")

    # -- placement -------------------------------------------------------
    def owner(self, stream_id: str) -> str:
        """The worker a stream is placed on: ``w{blake2b(id) % N}``."""
        digest = hashlib.blake2b(stream_id.encode("utf-8"), digest_size=8).digest()
        return f"w{int.from_bytes(digest, 'big') % self._fleet_size}"

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
        return sorted(self._snapshots)

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
            groups.setdefault(self.owner(stream_id), []).append((stream_id, values))
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
        _, batch_id, alerts, snapshots, records, scored = reply
        # Save-then-ack: the saved snapshots are what a respawn resumes
        # from; only after they are in place do alerts surface.
        for snapshot in snapshots:
            self._snapshots[snapshot.stream_id] = snapshot
        self._inflight[name].pop(batch_id, None)
        self._windows_scored[name] += scored
        self._results[batch_id] = (alerts, records)

    # -- failure recovery ------------------------------------------------
    def _heal(self, name: str) -> None:
        """Respawn a dead worker: drain its last replies, rehydrate its
        streams from the saved snapshots, replay unacknowledged batches
        in order."""
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
        # 2. Respawn and rehydrate every stream placed here.
        self._spawn(name)
        self.respawns += 1
        obs.incr("serve.shard.respawns")
        worker = self._workers[name]
        owned = [
            snapshot
            for stream_id, snapshot in sorted(self._snapshots.items())
            if self.owner(stream_id) == name
        ]
        if owned:
            worker.send(("hydrate", owned))
            reply = worker.recv()
            if reply[0] != "hydrated":  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unexpected hydrate reply: {reply[0]!r}")
        # 3. Replay the unacknowledged in-flight batches in order.  The
        #    snapshots hold the pre-batch state, so re-running them
        #    yields the exact scores the lost run would have produced.
        pending = list(self._inflight[name].items())
        for batch_id, batch in pending:
            worker.send(("points", batch_id, batch))
        for batch_id, _ in pending:
            while batch_id in self._inflight[name]:
                self._process_reply(name, worker.recv())
        obs.event("serve.shard.healed", worker=name, replayed=len(pending))

    # -- introspection ---------------------------------------------------
    def report(self) -> dict:
        """JSON-ready fabric report including each live worker's engine
        view.

        ``windows_scored``, per worker and for the fleet, is the router's
        tally of acked batches, so it survives a respawn and is reported
        for a dead worker too.
        """
        workers = {}
        placement = dict.fromkeys(self.workers, 0)
        for stream_id in self._snapshots:
            placement[self.owner(stream_id)] += 1
        for name in self.workers:
            worker = self._workers[name]
            workers[name] = {"alive": False}
            if name not in self._dead and worker.alive():
                try:
                    worker.send(("report",))
                    workers[name] = {"alive": True, **worker.recv()[1]}
                except WorkerDied:
                    self._mark_dead(name)
            workers[name]["windows_scored"] = self._windows_scored[name]
        return {
            "workers": workers,
            "placement": placement,
            "streams": len(self._snapshots),
            "windows_scored": sum(self._windows_scored.values()),
            "respawns": self.respawns,
        }
