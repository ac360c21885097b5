"""Tests for per-stream sliding-window state (repro.serve.stream)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.stream import PointRing, RingBuffer, StreamState
from repro.signal.windows import sliding_windows


class TestRingBuffer:
    def test_moments_match_numpy_before_wrap(self, rng):
        buffer = RingBuffer(64)
        values = rng.normal(size=40)
        for value in values:
            buffer.append(value)
        assert len(buffer) == 40
        assert buffer.mean == pytest.approx(values.mean())
        assert buffer.std == pytest.approx(values.std())
        assert np.array_equal(buffer.view(), values)

    def test_moments_match_numpy_after_wrap(self, rng):
        buffer = RingBuffer(32)
        values = rng.normal(size=200) * 3.0 + 7.0
        for value in values:
            buffer.append(value)
        live = values[-32:]
        assert len(buffer) == 32
        assert buffer.mean == pytest.approx(live.mean())
        assert buffer.std == pytest.approx(live.std())
        assert np.array_equal(buffer.view(), live)

    def test_view_is_chronological_and_a_copy(self):
        buffer = RingBuffer(4)
        for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]:
            buffer.append(value)
        view = buffer.view()
        assert list(view) == [3.0, 4.0, 5.0, 6.0]
        view[0] = 99.0
        assert list(buffer.view()) == [3.0, 4.0, 5.0, 6.0]

    def test_periodic_refresh_bounds_drift(self, rng):
        # Drive well past the refresh interval with values whose running
        # sums would otherwise accumulate float error.
        buffer = RingBuffer(16)
        values = rng.normal(size=20_000) * 1e6
        for value in values:
            buffer.append(value)
        live = values[-16:]
        assert buffer.mean == pytest.approx(live.mean(), rel=1e-9)
        assert buffer.std == pytest.approx(live.std(), rel=1e-6)

    def test_empty_and_invalid(self):
        buffer = RingBuffer(8)
        assert len(buffer) == 0
        assert buffer.mean == 0.0
        assert buffer.std == 0.0
        with pytest.raises(ValueError):
            RingBuffer(0)


class TestStreamState:
    def test_emission_cadence_matches_offline_segmentation(self, rng):
        # The online cadence must reproduce the offline sliding_windows
        # segmentation (modulo the tail-anchored final window).
        series = rng.normal(size=500)
        length, stride = 96, 24
        state = StreamState("s", length, stride)
        emitted = [ready for ready in (state.push(v) for v in series) if ready]

        offline, starts = sliding_windows(series, length, stride)
        regular = [s for s in starts if s % stride == 0]
        assert [r.start_index for r in emitted] == regular
        for ready in emitted:
            assert np.array_equal(ready.window, series[ready.start_index : ready.end_index])

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamState("s", 1, 1)
        with pytest.raises(ValueError):
            StreamState("s", 8, 0)


class TestRingBufferExtend:
    """PointRing.extend must be indistinguishable from per-point append."""

    @pytest.mark.parametrize("capacity", [1, 3, 8, 50])
    @pytest.mark.parametrize(
        "chunks",
        [[5], [2, 2, 2], [60], [7, 49, 3], [0, 8], [1] * 17, [4, 100, 2]],
    )
    def test_extend_matches_append_exactly(self, rng, capacity, chunks):
        sequential = PointRing(capacity)
        chunked = PointRing(capacity)
        for size in chunks:
            values = rng.normal(size=size)
            for value in values:
                sequential.append(value)
            chunked.extend(values)
        a, b = sequential.snapshot(), chunked.snapshot()
        assert np.array_equal(a["data"], b["data"])
        assert (a["size"], a["next"]) == (b["size"], b["next"])
        assert np.array_equal(sequential.view(), chunked.view())

    def test_extend_empty_chunk_is_a_noop(self):
        ring = PointRing(4)
        ring.append(1.0)
        snapshot = ring.snapshot()
        ring.extend(np.array([]))
        after = ring.snapshot()
        assert np.array_equal(snapshot["data"], after["data"])
        assert (snapshot["size"], snapshot["next"]) == (after["size"], after["next"])


class TestRingBufferSnapshot:
    def test_round_trip_is_exact(self, rng):
        buffer = RingBuffer(16)
        for value in rng.normal(size=41):
            buffer.append(value)
        restored = RingBuffer.from_snapshot(buffer.snapshot())
        future = rng.normal(size=30)
        for value in future:
            buffer.append(value)
            restored.append(value)
        a, b = buffer.snapshot(), restored.snapshot()
        assert np.array_equal(a["data"], b["data"])
        assert a["sum"] == b["sum"] and a["sumsq"] == b["sumsq"]
        assert a["next"] == b["next"] and a["appends"] == b["appends"]
        assert buffer.mean == restored.mean and buffer.std == restored.std

    def test_snapshot_data_is_a_copy(self):
        buffer = RingBuffer(4)
        buffer.append(1.0)
        snapshot = buffer.snapshot()
        buffer.append(2.0)
        assert snapshot["data"][1] == 0.0  # unaffected by later appends

    def test_from_snapshot_rejects_wrong_shape(self):
        buffer = RingBuffer(4)
        snapshot = buffer.snapshot()
        snapshot["data"] = np.zeros(7)
        with pytest.raises(ValueError, match="shape"):
            RingBuffer.from_snapshot(snapshot)


class TestStreamStateSnapshotAndExtend:
    def test_round_trip_emits_identical_windows(self, rng):
        state = StreamState("s", 10, 3)
        for value in rng.normal(size=27):
            state.push(value)
        restored = StreamState.from_snapshot(state.snapshot())
        future = rng.normal(size=25)
        original_windows = [w for v in future if (w := state.push(v))]
        restored_windows = [w for v in future if (w := restored.push(v))]
        assert len(original_windows) == len(restored_windows) > 0
        for a, b in zip(original_windows, restored_windows):
            assert np.array_equal(a.window, b.window)
            assert a.end_index == b.end_index
        a, b = state.snapshot()["buffer"], restored.snapshot()["buffer"]
        assert np.array_equal(a["data"], b["data"])
        assert (a["size"], a["next"]) == (b["size"], b["next"])

    def test_snapshot_carries_no_moments(self, rng):
        # Only the engine's score baseline reads mean/std; the point
        # ring behind a stream keeps data and cursor alone.
        state = StreamState("s", 10, 3)
        state.extend(rng.normal(size=10))
        assert set(state.snapshot()["buffer"]) == {"capacity", "data", "size", "next"}

    def test_extend_rejects_chunks_crossing_the_emission_boundary(self, rng):
        state = StreamState("s", 8, 4)
        with pytest.raises(ValueError, match="emission"):
            state.extend(rng.normal(size=9))
        # exactly reaching the boundary emits
        ready = state.extend(rng.normal(size=8))
        assert ready is not None and ready.end_index == 8

    def test_until_next_emit_tracks_the_cadence(self):
        state = StreamState("s", 8, 4)
        assert state.until_next_emit == 8
        state.extend(np.zeros(8))
        assert state.until_next_emit == 4
        state.push(0.0)
        assert state.until_next_emit == 3
