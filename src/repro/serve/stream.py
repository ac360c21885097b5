"""Per-stream sliding-window state for the online scoring engine.

A production stream is unbounded, so per-stream state must be O(window):
:class:`PointRing` keeps the last ``capacity`` points in a fixed numpy
array with O(1) append.  :class:`StreamState` layers the window/stride
cadence on top: every ``stride`` points past the first full window it
emits a :class:`ReadyWindow` carrying the raw values.  The engine's
per-stream alert baseline is a :class:`RingBuffer`, a point ring of
recent scores with O(1) incremental mean/std (running sum and
sum-of-squares, corrected on eviction); the alert threshold is read
from those moments.  Float drift from the running sums is bounded by
refreshing them from the buffer contents every ``_REFRESH_EVERY``
appends.

All three classes round-trip exactly through ``snapshot()`` /
``from_snapshot()`` — data, cursor, running sums, append counter, and
emission cadence included — so a stream can be frozen on one worker
and resumed on another with bit-identical subsequent windows (the
contract the shard fabric's crash recovery rests on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PointRing", "RingBuffer", "ReadyWindow", "StreamState"]

_REFRESH_EVERY = 8192


class PointRing:
    """Fixed-capacity float ring buffer of the last ``capacity`` points."""

    __slots__ = ("_data", "_size", "_next")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._data = np.zeros(capacity, dtype=np.float64)
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return len(self._data)

    def append(self, value: float) -> float | None:
        """Store one point; returns the point it evicted, if any."""
        evicted = None
        if self._size == len(self._data):
            evicted = self._data[self._next]
        else:
            self._size += 1
        self._data[self._next] = value
        self._next = (self._next + 1) % len(self._data)
        return evicted

    def extend(self, values: np.ndarray) -> None:
        """Append a chunk of points in vectorised array operations.

        Equivalent to ``for v in values: self.append(v)`` — the buffer
        contents and cursor come out identical.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        n = len(values)
        if n == 0:
            return
        cap = len(self._data)
        if n >= cap:
            # The chunk alone overwrites the whole buffer; land the last
            # ``cap`` values exactly where sequential appends would, so
            # the raw array and cursor match the per-point path bit for
            # bit (snapshot comparisons rely on this, not just view()).
            start = (self._next + n - cap) % cap
            tail = values[n - cap :]
            first = cap - start
            self._data[start:] = tail[:first]
            self._data[:start] = tail[first:]
        else:
            first = min(n, cap - self._next)
            self._data[self._next : self._next + first] = values[:first]
            if first < n:
                self._data[: n - first] = values[first:]
        self._next = (self._next + n) % cap
        self._size = min(self._size + n, cap)

    def snapshot(self) -> dict:
        """Exact serializable state: data and cursor."""
        return {
            "capacity": len(self._data),
            "data": self._data.copy(),
            "size": self._size,
            "next": self._next,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "PointRing":
        """Rebuild a ring whose future behaviour is bit-identical to
        the one :meth:`snapshot` captured."""
        ring = cls(int(snapshot["capacity"]))
        data = np.asarray(snapshot["data"], dtype=np.float64)
        if data.shape != ring._data.shape:
            raise ValueError(
                f"snapshot data has shape {data.shape}, "
                f"expected {ring._data.shape}"
            )
        ring._data[:] = data
        ring._size = int(snapshot["size"])
        ring._next = int(snapshot["next"])
        return ring

    def view(self) -> np.ndarray:
        """The buffered points in chronological order (a copy)."""
        if self._size < len(self._data):
            return self._data[: self._size].copy()
        return np.concatenate([self._data[self._next :], self._data[: self._next]])


class RingBuffer:
    """A :class:`PointRing` of values with O(1) running moments."""

    __slots__ = ("_ring", "_sum", "_sumsq", "_appends")

    def __init__(self, capacity: int) -> None:
        self._ring = PointRing(capacity)
        self._sum = 0.0
        self._sumsq = 0.0
        self._appends = 0

    def __len__(self) -> int:
        return len(self._ring)

    def append(self, value: float) -> None:
        value = float(value)
        evicted = self._ring.append(value)
        if evicted is not None:
            self._sum -= evicted
            self._sumsq -= evicted * evicted
        self._sum += value
        self._sumsq += value * value
        self._appends += 1
        if self._appends % _REFRESH_EVERY == 0:
            self._refresh()

    def _refresh(self) -> None:
        """Re-derive the running sums exactly, bounding float drift."""
        live = self.view()
        self._sum = float(live.sum())
        self._sumsq = float((live * live).sum())

    def snapshot(self) -> dict:
        """Exact serializable state: data, cursor, sums, append counter."""
        return {
            **self._ring.snapshot(),
            "sum": self._sum,
            "sumsq": self._sumsq,
            "appends": self._appends,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "RingBuffer":
        """Rebuild a buffer whose future behaviour is bit-identical to
        the one :meth:`snapshot` captured."""
        buffer = cls(int(snapshot["capacity"]))
        buffer._ring = PointRing.from_snapshot(snapshot)
        buffer._sum = float(snapshot["sum"])
        buffer._sumsq = float(snapshot["sumsq"])
        buffer._appends = int(snapshot["appends"])
        return buffer

    @property
    def mean(self) -> float:
        size = len(self._ring)
        return self._sum / size if size else 0.0

    @property
    def std(self) -> float:
        size = len(self._ring)
        if not size:
            return 0.0
        variance = self._sumsq / size - self.mean**2
        return float(np.sqrt(max(variance, 0.0)))

    def view(self) -> np.ndarray:
        """The buffered values in chronological order (a copy)."""
        return self._ring.view()


@dataclass(frozen=True)
class ReadyWindow:
    """One window of a stream, ready to be scored.

    ``end_index`` is the number of points the stream had ingested when
    the window closed, so the window covers stream positions
    ``[end_index - len(window), end_index)``.
    """

    stream_id: str
    end_index: int
    window: np.ndarray

    @property
    def start_index(self) -> int:
        return self.end_index - len(self.window)


class StreamState:
    """Sliding-window cadence for one stream.

    Emits the first window once ``length`` points have arrived and a new
    one every ``stride`` points thereafter, mirroring the offline
    segmentation of :func:`repro.signal.windows.sliding_windows`.
    """

    def __init__(self, stream_id: str, length: int, stride: int) -> None:
        if length < 2:
            raise ValueError("window length must be >= 2")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stream_id = stream_id
        self.length = length
        self.stride = stride
        self.buffer = PointRing(length)
        self.count = 0
        self._next_emit = length

    @property
    def until_next_emit(self) -> int:
        """Points still to ingest before the next window closes — the
        largest chunk :meth:`extend` accepts right now."""
        return self._next_emit - self.count

    def push(self, value: float) -> ReadyWindow | None:
        """Ingest one point; returns a window when one just closed."""
        self.buffer.append(value)
        self.count += 1
        if self.count < self._next_emit:
            return None
        self._next_emit = self.count + self.stride
        return self._emit()

    def extend(self, values: np.ndarray) -> ReadyWindow | None:
        """Ingest a chunk that spans at most one emission boundary.

        The caller (``ScoringEngine.ingest_many``'s fast path) sizes
        chunks so a window can only close on the chunk's *final* point;
        feeding past the boundary would silently drop windows, so it is
        rejected.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if self.count + len(values) > self._next_emit:
            raise ValueError(
                f"chunk of {len(values)} points crosses the emission "
                f"boundary at {self._next_emit} (stream at {self.count})"
            )
        self.buffer.extend(values)
        self.count += len(values)
        if self.count < self._next_emit:
            return None
        self._next_emit = self.count + self.stride
        return self._emit()

    def _emit(self) -> ReadyWindow:
        return ReadyWindow(
            stream_id=self.stream_id,
            end_index=self.count,
            window=self.buffer.view(),
        )

    def snapshot(self) -> dict:
        """Exact serializable state, cadence and point ring included."""
        return {
            "stream_id": self.stream_id,
            "length": self.length,
            "stride": self.stride,
            "count": self.count,
            "next_emit": self._next_emit,
            "buffer": self.buffer.snapshot(),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "StreamState":
        """Rebuild a stream whose subsequent pushes emit the exact
        windows the captured stream would have emitted."""
        state = cls(
            str(snapshot["stream_id"]),
            int(snapshot["length"]),
            int(snapshot["stride"]),
        )
        state.buffer = PointRing.from_snapshot(snapshot["buffer"])
        state.count = int(snapshot["count"])
        state._next_emit = int(snapshot["next_emit"])
        return state
