"""Per-stream sliding-window state for the online scoring engine.

A production stream is unbounded, so per-stream state must be O(window):
:class:`RingBuffer` keeps the last ``capacity`` points in a fixed numpy
array with O(1) append and O(1) incremental mean/std (running sum and
sum-of-squares, corrected on eviction); the engine's per-stream alert
baseline is a ring of recent scores and reads its threshold from those
moments.  :class:`StreamState` layers the window/stride cadence on top:
every ``stride`` points past the first full window it emits a
:class:`ReadyWindow` carrying the raw values.

Float drift from the running sums is bounded by refreshing them from
the buffer contents every ``_REFRESH_EVERY`` appends.

Both classes round-trip exactly through ``snapshot()`` /
``from_snapshot()`` — data, running sums, cursor, append counter, and
emission cadence included — so a stream can be frozen on one worker
and resumed on another with bit-identical subsequent windows (the
contract the shard fabric's crash recovery rests on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RingBuffer", "ReadyWindow", "StreamState"]

_REFRESH_EVERY = 8192


class RingBuffer:
    """Fixed-capacity float ring buffer with O(1) running moments."""

    __slots__ = ("_data", "_size", "_next", "_sum", "_sumsq", "_appends")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._data = np.zeros(capacity, dtype=np.float64)
        self._size = 0
        self._next = 0
        self._sum = 0.0
        self._sumsq = 0.0
        self._appends = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return len(self._data)

    def append(self, value: float) -> None:
        value = float(value)
        if self._size == len(self._data):
            evicted = self._data[self._next]
            self._sum -= evicted
            self._sumsq -= evicted * evicted
        else:
            self._size += 1
        self._data[self._next] = value
        self._next = (self._next + 1) % len(self._data)
        self._sum += value
        self._sumsq += value * value
        self._appends += 1
        if self._appends % _REFRESH_EVERY == 0:
            self._refresh()

    def extend(self, values: np.ndarray) -> None:
        """Append a chunk of points in vectorised array operations.

        Equivalent to ``for v in values: self.append(v)`` — the buffer
        contents, cursor, and append counter come out identical; the
        running sums are rebuilt with vector reductions, so they can
        differ from the sequential sums by float-association ulps
        (bounded, like the per-point path, by the periodic refresh).
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        n = len(values)
        if n == 0:
            return
        cap = len(self._data)
        before_epoch = self._appends // _REFRESH_EVERY
        self._appends += n
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
            self._next = (self._next + n) % cap
            self._size = cap
            self._refresh()
            return
        evicted = 0.0
        evicted_sq = 0.0
        overflow = self._size + n - cap
        if overflow > 0:
            # Oldest live values get overwritten: they start at the
            # cursor when already full, else at index 0 (the buffer
            # fills, wraps the cursor to 0, and evicts from there).
            start = self._next if self._size == cap else 0
            idx = (start + np.arange(overflow)) % cap
            old = self._data[idx]
            evicted = float(old.sum())
            evicted_sq = float((old * old).sum())
        first = min(n, cap - self._next)
        self._data[self._next : self._next + first] = values[:first]
        if first < n:
            self._data[: n - first] = values[first:]
        self._next = (self._next + n) % cap
        self._size = min(self._size + n, cap)
        self._sum += float(values.sum()) - evicted
        self._sumsq += float((values * values).sum()) - evicted_sq
        if self._appends // _REFRESH_EVERY != before_epoch:
            self._refresh()

    def _refresh(self) -> None:
        """Re-derive the running sums exactly, bounding float drift."""
        live = self.view()
        self._sum = float(live.sum())
        self._sumsq = float((live * live).sum())

    def snapshot(self) -> dict:
        """Exact serializable state: data, cursor, sums, append counter."""
        return {
            "capacity": len(self._data),
            "data": self._data.copy(),
            "size": self._size,
            "next": self._next,
            "sum": self._sum,
            "sumsq": self._sumsq,
            "appends": self._appends,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "RingBuffer":
        """Rebuild a buffer whose future behaviour is bit-identical to
        the one :meth:`snapshot` captured."""
        buffer = cls(int(snapshot["capacity"]))
        data = np.asarray(snapshot["data"], dtype=np.float64)
        if data.shape != buffer._data.shape:
            raise ValueError(
                f"snapshot data has shape {data.shape}, "
                f"expected {buffer._data.shape}"
            )
        buffer._data[:] = data
        buffer._size = int(snapshot["size"])
        buffer._next = int(snapshot["next"])
        buffer._sum = float(snapshot["sum"])
        buffer._sumsq = float(snapshot["sumsq"])
        buffer._appends = int(snapshot["appends"])
        return buffer

    @property
    def mean(self) -> float:
        return self._sum / self._size if self._size else 0.0

    @property
    def std(self) -> float:
        if not self._size:
            return 0.0
        variance = self._sumsq / self._size - self.mean**2
        return float(np.sqrt(max(variance, 0.0)))

    def view(self) -> np.ndarray:
        """The buffered points in chronological order (a copy)."""
        if self._size < len(self._data):
            return self._data[: self._size].copy()
        return np.concatenate([self._data[self._next :], self._data[: self._next]])


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
        self.buffer = RingBuffer(length)
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
        """Exact serializable state, cadence and ring buffer included."""
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
        state.buffer = RingBuffer.from_snapshot(snapshot["buffer"])
        state.count = int(snapshot["count"])
        state._next_emit = int(snapshot["next_emit"])
        return state
