"""Sharded multi-worker serving: streams partitioned across processes.

A single :class:`~repro.serve.engine.ScoringEngine` caps out at one
core.  This module splits the stream population across N worker
processes (stdlib ``multiprocessing``, fork start method), each running
its own engine over the streams a consistent hash assigns it, with all
per-stream state externalized through a
:class:`~repro.serve.stores.StoreProvider` so workers are stateless and
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
  uninterrupted one, and no acknowledged stream is ever lost.
- **Migration** — ``add_worker`` / ``remove_worker`` export the moved
  streams (engine → snapshot → store) and hydrate them into their new
  owner; :meth:`~repro.serve.engine.ScoringEngine.import_stream`'s
  exactness contract makes the move invisible in the score series.

Workers build their scorers by *name* through
:func:`repro.jobs.registry.build_scorer` (the same string registry the
bulk-inference fabric uses), so a :class:`WorkerSpec` is a small
picklable recipe, not a live model.  See ``docs/SHARDING.md``.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .engine import EngineConfig, ScoringEngine, StreamAlert
from .stores import InMemoryStore, StoreProvider, StreamSnapshot

__all__ = [
    "HashRing",
    "WorkerSpec",
    "WorkerDiedError",
    "RecordingEngine",
    "ShardRouter",
    "build_worker_engine",
    "subprocess_trainer",
]


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
# Worker recipe and engine construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its engine, by value.

    ``detector`` is a :func:`repro.jobs.registry.build_scorer` name
    (``spectral-residual``, ``triad``, ...) fitted inside the worker on
    ``train``; ``detector_file`` instead loads a persisted TriAD
    detector (``save_detector`` npz) — the serve-replay path, where the
    model is trained once up front and shared by every worker.
    ``window_length``/``stride`` override the built scorer's plan;
    ``engine`` holds :class:`~repro.serve.engine.EngineConfig` overrides
    (``max_batch``, ``score_baseline``, ...).  ``record_scores`` makes
    workers return every (stream, index, score) triple alongside alerts
    — the bit-identity drills (``tests/serve/test_shard_chaos.py``)
    compare those against an unsharded :class:`RecordingEngine`.
    """

    detector: str = "spectral-residual"
    params: dict = field(default_factory=dict)
    train: np.ndarray | None = None
    detector_file: str | None = None
    window_length: int | None = None
    stride: int | None = None
    engine: dict = field(default_factory=dict)
    record_scores: bool = False


class RecordingEngine(ScoringEngine):
    """A :class:`ScoringEngine` that logs every judged (stream, index,
    score) triple.  Workers use it when ``spec.record_scores`` is set;
    the unsharded reference in parity tests uses it directly."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[tuple[str, int, float]] = []

    def _judge(self, ready, score, entry):
        self.records.append((ready.stream_id, ready.end_index, float(score)))
        return super()._judge(ready, score, entry)

    def take_records(self) -> list[tuple[str, int, float]]:
        records, self.records = self.records, []
        return records


def build_worker_engine(spec: WorkerSpec) -> ScoringEngine:
    """Build the engine a worker (or an unsharded reference) runs.

    Imported lazily: ``jobs`` sits above ``serve`` in the layer order,
    so the registry lookup stays function-scoped.
    """
    from ..serve.registry import ModelRegistry

    if spec.detector_file is not None:
        from ..pipeline.adapters import TriADWindowScorer

        scorer = TriADWindowScorer.from_file(spec.detector_file)
        plan = scorer._detector.plan
        length, stride = plan.length, plan.stride
    else:
        from ..jobs.registry import build_scorer

        if spec.train is None:
            raise ValueError(
                f"WorkerSpec(detector={spec.detector!r}) needs a train "
                f"series to fit on (or use detector_file)"
            )
        scorer, length, stride = build_scorer(
            spec.detector, spec.train, dict(spec.params)
        )
    registry = ModelRegistry()
    registry.register(scorer)
    config = EngineConfig(
        window_length=spec.window_length or length,
        stride=spec.stride or stride,
        **dict(spec.engine),
    )
    engine_cls = RecordingEngine if spec.record_scores else ScoringEngine
    return engine_cls(registry, config)


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


def _worker_main(conn, spec: WorkerSpec) -> None:
    """Worker loop: build the engine, serve messages until ``stop``.

    After every ``points`` batch the engine is fully drained before
    snapshots are taken, so a snapshot always captures a quiescent
    stream (empty queue) and rehydrating from it is exact.
    """
    engine = build_worker_engine(spec)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "points":
            _, batch_id, items = message
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


class WorkerDiedError(RuntimeError):
    """A shard worker's process died mid-conversation."""

    def __init__(self, worker: str) -> None:
        super().__init__(f"shard worker {worker!r} died")
        self.worker = worker


class _WorkerHandle:
    __slots__ = ("name", "process", "conn")

    def __init__(self, name, process, conn) -> None:
        self.name = name
        self.process = process
        self.conn = conn

    def alive(self) -> bool:
        return self.process.is_alive()


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
class ShardRouter:
    """Partitions streams across worker processes by consistent hash.

    Usage::

        spec = WorkerSpec(detector="batched-spectral-residual",
                          train=train, record_scores=False)
        with ShardRouter(spec, workers=4, store=InMemoryStore()) as router:
            alerts = router.submit([("stream-7", chunk), ...])

    ``submit`` is one synchronous round: every involved worker scores
    its batch concurrently, and the call returns when all batches are
    acknowledged.  Worker death during a round is healed transparently
    (``auto_heal=True``) by respawn + rehydrate + replay; set
    ``auto_heal=False`` to surface :class:`WorkerDiedError` instead and
    drive :meth:`heal_worker` yourself (the chaos drills do).
    """

    def __init__(
        self,
        spec: WorkerSpec,
        workers: int = 4,
        store: StoreProvider | None = None,
        vnodes: int = 64,
        auto_heal: bool = True,
        worker_names=None,
    ) -> None:
        if workers < 1 and not worker_names:
            raise ValueError("workers must be >= 1")
        import multiprocessing

        self._ctx = multiprocessing.get_context("fork")
        self.spec = spec
        self.store = store if store is not None else InMemoryStore()
        self.auto_heal = auto_heal
        self.ring = HashRing(vnodes=vnodes)
        self._workers: dict[str, _WorkerHandle] = {}
        self._inflight: dict[str, OrderedDict] = {}
        self._results: dict[int, tuple[list, list]] = {}
        self._dead: set[str] = set()
        self._known: set[str] = set()
        self._next_batch = 0
        self.respawns = 0
        self.last_records: list[tuple[str, int, float]] = []
        names = list(worker_names) if worker_names else [
            f"w{i}" for i in range(workers)
        ]
        for name in names:
            self.ring.add_node(name)
            self._spawn(name)

    # -- lifecycle -------------------------------------------------------
    def _spawn(self, name: str) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child, self.spec), daemon=True
        )
        process.start()
        child.close()
        self._workers[name] = _WorkerHandle(name, process, parent)
        self._inflight.setdefault(name, OrderedDict())
        self._dead.discard(name)
        obs.gauge("serve.shard.workers", len(self._workers))

    @property
    def workers(self) -> list[str]:
        return sorted(self._workers)

    @property
    def known_streams(self) -> list[str]:
        return sorted(self._known)

    def worker_pid(self, name: str) -> int:
        return self._workers[name].process.pid

    def close(self) -> None:
        """Stop every worker (politely, then hard) and close the store."""
        for handle in self._workers.values():
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers.values():
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            handle.conn.close()
        self._workers.clear()
        self.store.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the submit round ------------------------------------------------
    def submit(self, items) -> list[StreamAlert]:
        """Route one round of per-stream chunks; return the acked alerts.

        ``items`` is an iterable of ``(stream_id, values)``; per-window
        score triples (when ``spec.record_scores``) land in
        :attr:`last_records`.
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
            return  # heal() will replay from the in-flight ledger
        try:
            self._workers[name].conn.send(message)
        except (BrokenPipeError, OSError):
            self._mark_dead(name)

    def _mark_dead(self, name: str) -> None:
        if name not in self._dead:
            self._dead.add(name)
            obs.event("serve.shard.worker_died", worker=name)

    def _await(self, name: str, batch_id: int) -> None:
        while batch_id not in self._results:
            if name in self._dead or not self._workers[name].alive():
                self._mark_dead(name)
                if not self.auto_heal:
                    raise WorkerDiedError(name)
                self.heal_worker(name)
                continue
            try:
                reply = self._workers[name].conn.recv()
            except (EOFError, OSError):
                self._mark_dead(name)
                continue
            self._process_reply(name, reply)

    def _process_reply(self, name: str, reply) -> None:
        kind = reply[0]
        if kind != "scored":  # pragma: no cover - protocol misuse
            raise RuntimeError(f"unexpected reply from {name}: {kind!r}")
        _, batch_id, alert_payloads, snapshot_payloads, records = reply
        # Persist-then-ack: the store write is what makes the batch
        # durable; only after it succeeds do alerts surface.
        self.store.save_many(
            StreamSnapshot.from_payload(payload) for payload in snapshot_payloads
        )
        self._inflight[name].pop(batch_id, None)
        self._results[batch_id] = (
            [_alert_from_payload(payload) for payload in alert_payloads],
            list(records),
        )

    # -- failure recovery ------------------------------------------------
    def heal_worker(self, name: str) -> None:
        """Respawn a dead worker: drain its last replies, rehydrate its
        streams from the store, replay unacknowledged batches in order."""
        handle = self._workers[name]
        # 1. Drain replies the worker wrote before dying — those batches
        #    completed; ack them normally so they are not replayed.
        while True:
            try:
                if not handle.conn.poll(0):
                    break
                reply = handle.conn.recv()
            except (EOFError, OSError):
                break
            self._process_reply(name, reply)
        handle.conn.close()
        handle.process.join(timeout=2.0)
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
        for batch_id, batch in pending:
            self._workers[name].conn.send(("points", batch_id, batch))
        for batch_id, _ in pending:
            while batch_id in self._inflight[name]:
                reply = self._workers[name].conn.recv()
                self._process_reply(name, reply)
        obs.event("serve.shard.healed", worker=name, replayed=len(pending))

    def _hydrate(self, name: str, stream_ids) -> None:
        payloads = []
        for stream_id in stream_ids:
            snapshot = self.store.load(stream_id)
            if snapshot is not None:
                payloads.append(snapshot.to_payload())
        if not payloads:
            return
        conn = self._workers[name].conn
        conn.send(("hydrate", payloads))
        reply = conn.recv()
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
        handle = self._workers.pop(name)
        self._inflight.pop(name, None)
        self._dead.discard(name)
        try:
            handle.conn.send(("stop",))
            handle.conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            pass
        handle.process.join(timeout=2.0)
        if handle.process.is_alive():
            handle.process.terminate()
        handle.conn.close()
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
        conn = self._workers[name].conn
        conn.send(("export", list(stream_ids), evict))
        reply = conn.recv()
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
    def checkpoint_all(self) -> int:
        """Snapshot every known stream into the store (a full backup,
        beyond the per-batch incremental persistence).  Returns the
        number of streams persisted."""
        total = 0
        for name, stream_ids in self.ring.assignments(self._known).items():
            self._export_to_store(name, stream_ids, evict=False)
            total += len(stream_ids)
        return total

    def report(self) -> dict:
        """JSON-ready fabric report including each worker's engine view."""
        workers = {}
        for name in self.workers:
            handle = self._workers[name]
            if name in self._dead or not handle.alive():
                workers[name] = {"alive": False}
                continue
            try:
                handle.conn.send(("report",))
                reply = handle.conn.recv()
                workers[name] = {"alive": True, **reply[1]}
            except (EOFError, BrokenPipeError, OSError):
                self._mark_dead(name)
                workers[name] = {"alive": False}
        return {
            "workers": workers,
            "ring": {name: len(ids) for name, ids in
                     self.ring.assignments(self._known).items()},
            "streams": len(self._known),
            "respawns": self.respawns,
            "store": type(self.store).__name__,
        }


# ----------------------------------------------------------------------
# Off-path retraining (the adaptive controller's shard-fabric hook)
# ----------------------------------------------------------------------
def subprocess_trainer(trainer_factory, timeout_s: float | None = None):
    """Wrap an adaptive-controller trainer factory to run in a fork.

    Retraining a candidate model can take orders of magnitude longer
    than a scoring batch; running it inside the ingest process stalls
    every stream.  The wrapped factory forks a child, trains there, and
    ships the fitted scorer back over a pipe — the parent's ingest path
    keeps its caches and never runs the training loop.  Falls back to
    inline training when the scorer cannot cross the process boundary
    (unpicklable) or the fork fails; raises ``TimeoutError`` when the
    child outlives ``timeout_s`` (the controller's retry/budget
    machinery treats it like any other failed attempt).
    """
    import multiprocessing
    import pickle

    def train_offloaded(train_series, seed):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - fork-less platform
            return trainer_factory(train_series, seed)
        parent, child = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_offload_main,
            args=(child, trainer_factory, train_series, seed),
            daemon=True,
        )
        start = time.perf_counter()
        process.start()
        child.close()
        try:
            if not parent.poll(timeout_s):
                process.terminate()
                process.join(timeout=2.0)
                raise TimeoutError(
                    f"offloaded retrain exceeded {timeout_s}s"
                )
            outcome, payload = parent.recv()
        except EOFError:
            # Child died without an answer (e.g. OOM-kill): train inline
            # rather than lose the adaptation attempt.
            process.join(timeout=2.0)
            obs.incr("serve.shard.offload_fallbacks")
            return trainer_factory(train_series, seed)
        finally:
            parent.close()
            process.join(timeout=2.0)
        obs.observe("serve.shard.offload_latency", time.perf_counter() - start)
        if outcome == "unpicklable":
            obs.incr("serve.shard.offload_fallbacks")
            return trainer_factory(train_series, seed)
        if outcome == "error":
            exc_type, message = payload
            raise RuntimeError(f"offloaded retrain failed: {exc_type}: {message}")
        return pickle.loads(payload)

    return train_offloaded


def _offload_main(conn, trainer_factory, train_series, seed) -> None:
    import pickle

    try:
        scorer = trainer_factory(train_series, seed)
    except BaseException as error:  # noqa: BLE001 - shipped to the parent
        conn.send(("error", (type(error).__name__, str(error))))
        conn.close()
        return
    try:
        payload = pickle.dumps(scorer)
    except Exception:  # noqa: BLE001 - parent retrains inline
        conn.send(("unpicklable", None))
    else:
        conn.send(("ok", payload))
    conn.close()
    os._exit(0)
