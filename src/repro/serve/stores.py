"""Pluggable stream-state stores for sharded serving.

A single-process :class:`~repro.serve.engine.ScoringEngine` keeps every
stream's state — sliding-window ring, alert baseline, drift references
— in local dicts, which caps serving at one core and one address
space.  The shard fabric (:mod:`repro.serve.shard`) externalizes that
state behind the :class:`StoreProvider` abstraction defined here, so
workers are stateless and restartable: a stream's full state is a
:class:`StreamSnapshot`, exact by construction (see
:meth:`repro.serve.stream.RingBuffer.snapshot`), and any worker that
loads the snapshot continues the stream with bit-identical windows and
alert decisions.

Backends:

- :class:`InMemoryStore` — a dict; fastest, dies with the process.
  The default for tests and for routers that only need migration, not
  durability.
- :class:`FileBackedStore` — one ``.npz`` per stream written
  atomically (tmp + fsync + rename) plus an fsync'd JSONL index
  journal, both through :mod:`repro.runtime.journal` (torn index lines
  are skipped with a warning).  Survives a router restart, and a
  *different process* that opens the same directory picks the fleet's
  state up.

Snapshots are serialized without pickle: arrays go into an ``.npz``
container and scalars into a JSON tree (:func:`payload_to_bytes` /
:func:`payload_from_bytes`).  ``json`` round-trips Python floats exactly
(shortest repr), so a restored running sum is the bit pattern the
snapshot captured.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..runtime import journal

__all__ = [
    "StreamSnapshot",
    "StoreProvider",
    "InMemoryStore",
    "FileBackedStore",
    "payload_to_bytes",
    "payload_from_bytes",
]


# ----------------------------------------------------------------------
# The unit of externalized state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamSnapshot:
    """Everything one stream needs to continue on another worker.

    ``stream`` is the :meth:`~repro.serve.stream.StreamState.snapshot`
    dict (window cadence + ring buffer), ``baseline`` the alert
    baseline ring's snapshot (``None`` before the first scored window),
    and ``drift`` the per-stream drift-monitor references (``None``
    when the engine runs without a monitor).  All three are trees of
    JSON scalars and numpy arrays — nothing else — so every backend
    can serialize them without pickle.
    """

    stream_id: str
    stream: dict
    baseline: dict | None = None
    drift: dict | None = None

    def to_payload(self) -> dict:
        return {
            "stream_id": self.stream_id,
            "stream": self.stream,
            "baseline": self.baseline,
            "drift": self.drift,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StreamSnapshot":
        return cls(
            stream_id=str(payload["stream_id"]),
            stream=payload["stream"],
            baseline=payload.get("baseline"),
            drift=payload.get("drift"),
        )


# ----------------------------------------------------------------------
# Pickle-free payload codec (the file backend's blob format)
# ----------------------------------------------------------------------
def payload_to_bytes(payload: dict) -> bytes:
    """Serialize a tree of JSON scalars and numpy arrays to bytes.

    Arrays are pulled out into ``.npz`` members (``arr<N>``) and
    replaced in the JSON tree by ``{"__array__": N}`` markers; the tree
    itself rides along as a ``uint8`` member.  No pickle anywhere, so a
    corrupted or adversarial blob can fail to parse but never execute.
    """
    arrays: list[np.ndarray] = []

    def strip(node):
        if isinstance(node, np.ndarray):
            arrays.append(np.ascontiguousarray(node))
            return {"__array__": len(arrays) - 1}
        if isinstance(node, dict):
            return {str(key): strip(value) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            return [strip(value) for value in node]
        if isinstance(node, (np.integer,)):
            return int(node)
        if isinstance(node, (np.floating,)):
            return float(node)
        return node  # str / int / float / bool / None

    tree = strip(payload)
    encoded = json.dumps(tree, sort_keys=True).encode("utf-8")
    buffer = io.BytesIO()
    np.savez(
        buffer,
        __tree__=np.frombuffer(encoded, dtype=np.uint8),
        **{f"arr{i}": array for i, array in enumerate(arrays)},
    )
    return buffer.getvalue()


def payload_from_bytes(data: bytes) -> dict:
    """Inverse of :func:`payload_to_bytes`."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        tree = json.loads(bytes(archive["__tree__"]).decode("utf-8"))

        def build(node):
            if isinstance(node, dict):
                if set(node) == {"__array__"}:
                    return archive[f"arr{node['__array__']}"].copy()
                return {key: build(value) for key, value in node.items()}
            if isinstance(node, list):
                return [build(value) for value in node]
            return node

        return build(tree)


def _digest(stream_id: str) -> str:
    """Filesystem-safe stable name for an arbitrary stream id."""
    return hashlib.blake2b(stream_id.encode("utf-8"), digest_size=12).hexdigest()


# ----------------------------------------------------------------------
# The provider contract
# ----------------------------------------------------------------------
class StoreProvider:
    """Swappable per-stream state store.

    One writer at a time per stream is the concurrency contract: the
    shard router persists a stream's snapshot only from the worker that
    owns its hash slot, and migration hands ownership over *through*
    the store, so backends need atomicity per save but no cross-writer
    locking.
    """

    def save(self, snapshot: StreamSnapshot) -> None:
        raise NotImplementedError

    def load(self, stream_id: str) -> StreamSnapshot | None:
        raise NotImplementedError

    def delete(self, stream_id: str) -> None:
        raise NotImplementedError

    def stream_ids(self) -> list[str]:
        raise NotImplementedError

    def save_many(self, snapshots) -> None:
        for snapshot in snapshots:
            self.save(snapshot)


class InMemoryStore(StoreProvider):
    """Snapshots in a local dict — fast, process-lifetime durability.

    Enough for worker migration and respawn while the router process
    itself survives (the state lives with the router, not the worker).
    """

    def __init__(self) -> None:
        self._snapshots: dict[str, StreamSnapshot] = {}

    def save(self, snapshot: StreamSnapshot) -> None:
        self._snapshots[snapshot.stream_id] = snapshot

    def load(self, stream_id: str) -> StreamSnapshot | None:
        return self._snapshots.get(stream_id)

    def delete(self, stream_id: str) -> None:
        self._snapshots.pop(stream_id, None)

    def stream_ids(self) -> list[str]:
        return sorted(self._snapshots)


class FileBackedStore(StoreProvider):
    """One atomically-written ``.npz`` per stream plus an index journal.

    ``<dir>/<digest>.npz`` holds the snapshot bytes, written with
    :func:`repro.runtime.journal.atomic_write` — a crash leaves the
    previous snapshot intact, never a torn one.  ``<dir>/streams.jsonl``
    journals ``{stream_id, digest}`` lines (and ``deleted`` tombstones)
    through :func:`repro.runtime.journal.append`, so ``stream_ids``
    replays the journal instead of parsing every blob, and torn lines
    are skipped with a warning.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._index_path = self.directory / "streams.jsonl"
        self._index: dict[str, str] = {}  # stream_id -> digest
        for entry in journal.load(self._index_path).records:
            if "stream_id" not in entry:
                warnings.warn(
                    f"{self._index_path}: skipping malformed index entry",
                    journal.JournalWarning,
                    stacklevel=2,
                )
            elif entry.get("deleted"):
                self._index.pop(entry["stream_id"], None)
            else:
                self._index[entry["stream_id"]] = entry.get(
                    "digest", _digest(entry["stream_id"])
                )

    def _blob_path(self, stream_id: str) -> Path:
        return self.directory / f"{_digest(stream_id)}.npz"

    def save(self, snapshot: StreamSnapshot) -> None:
        journal.atomic_write(
            self._blob_path(snapshot.stream_id),
            payload_to_bytes(snapshot.to_payload()),
        )
        if snapshot.stream_id not in self._index:
            self._index[snapshot.stream_id] = _digest(snapshot.stream_id)
            journal.append(
                self._index_path,
                {"stream_id": snapshot.stream_id, "digest": self._index[snapshot.stream_id]},
            )

    def load(self, stream_id: str) -> StreamSnapshot | None:
        path = self._blob_path(stream_id)
        if not path.exists():
            return None
        try:
            payload = payload_from_bytes(path.read_bytes())
        except Exception as error:  # noqa: BLE001 - corrupt blob == missing
            warnings.warn(
                f"{path}: unreadable snapshot ({error!r}); treating as missing",
                stacklevel=2,
            )
            return None
        return StreamSnapshot.from_payload(payload)

    def delete(self, stream_id: str) -> None:
        path = self._blob_path(stream_id)
        if path.exists():
            path.unlink()
        if stream_id in self._index:
            del self._index[stream_id]
            journal.append(self._index_path, {"stream_id": stream_id, "deleted": True})

    def stream_ids(self) -> list[str]:
        return sorted(self._index)
