"""Tests for the pluggable stream-state stores (repro.serve.stores)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.stores import (
    FileBackedStore,
    InMemoryStore,
    StreamSnapshot,
    payload_from_bytes,
    payload_to_bytes,
)
from repro.serve.stream import RingBuffer, StreamState


def make_snapshot(rng, stream_id="unit/7") -> StreamSnapshot:
    state = StreamState(stream_id, 12, 4)
    for value in rng.normal(size=37):
        state.push(value)
    baseline = RingBuffer(8)
    for value in rng.normal(size=5):
        baseline.append(value)
    return StreamSnapshot(
        stream_id=stream_id,
        stream=state.snapshot(),
        baseline=baseline.snapshot(),
    )


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return InMemoryStore()
    return FileBackedStore(tmp_path / "store")


class TestPayloadCodec:
    def test_round_trips_scalars_lists_and_arrays(self, rng):
        payload = {
            "int": 3,
            "float": 1.5,
            "none": None,
            "bool": True,
            "text": "stream/α",
            "list": [1, "two", {"nested": np.arange(4.0)}],
            "matrix": rng.normal(size=(3, 5)),
        }
        back = payload_from_bytes(payload_to_bytes(payload))
        assert back["int"] == 3 and back["float"] == 1.5
        assert back["none"] is None and back["bool"] is True
        assert back["text"] == "stream/α"
        assert back["list"][:2] == [1, "two"]
        assert np.array_equal(back["list"][2]["nested"], np.arange(4.0))
        assert np.array_equal(back["matrix"], payload["matrix"])

    def test_floats_round_trip_bit_exactly(self):
        # json shortest-repr round-trips doubles exactly — the running
        # sums in a snapshot must come back with the same bit pattern.
        value = 0.1 + 0.2  # not representable "nicely"
        back = payload_from_bytes(payload_to_bytes({"sum": value}))
        assert back["sum"] == value

    def test_numpy_scalars_become_plain_scalars(self):
        payload = {"n": np.int64(7), "x": np.float64(2.5)}
        back = payload_from_bytes(payload_to_bytes(payload))
        assert back["n"] == 7 and back["x"] == 2.5

    def test_no_pickle_in_the_container(self, rng):
        data = payload_to_bytes({"a": rng.normal(size=8)})
        # np.load with allow_pickle=False must be sufficient to read it
        assert payload_from_bytes(data)["a"].shape == (8,)


class TestProviderContract:
    def test_save_load_round_trip(self, store, rng):
        snapshot = make_snapshot(rng)
        store.save(snapshot)
        loaded = store.load(snapshot.stream_id)
        assert loaded is not None
        assert loaded.stream_id == snapshot.stream_id
        assert np.array_equal(
            loaded.stream["buffer"]["data"], snapshot.stream["buffer"]["data"]
        )
        assert loaded.stream["next_emit"] == snapshot.stream["next_emit"]
        assert loaded.baseline["sum"] == snapshot.baseline["sum"]

    def test_payload_with_a_drift_key_still_loads(self, rng):
        # Snapshots written before the drift monitors were removed carry
        # a "drift" entry; loading reads only the named keys.
        snapshot = make_snapshot(rng)
        payload = dict(
            snapshot.to_payload(), drift={"flagged": True, "score": {"seen": 9}}
        )
        loaded = StreamSnapshot.from_payload(
            payload_from_bytes(payload_to_bytes(payload))
        )
        assert loaded.stream_id == snapshot.stream_id
        assert loaded.baseline["sum"] == snapshot.baseline["sum"]
        assert "drift" not in loaded.to_payload()
        original = StreamState.from_snapshot(snapshot.stream)
        restored = StreamState.from_snapshot(loaded.stream)
        future = rng.normal(size=20)
        a = [w.window for v in future if (w := original.push(v))]
        b = [w.window for v in future if (w := restored.push(v))]
        assert len(a) == len(b) > 0
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_loaded_snapshot_restores_an_exact_stream(self, store, rng):
        snapshot = make_snapshot(rng)
        store.save(snapshot)
        restored = StreamState.from_snapshot(store.load(snapshot.stream_id).stream)
        original = StreamState.from_snapshot(snapshot.stream)
        future = rng.normal(size=20)
        a = [w for v in future if (w := original.push(v))]
        b = [w for v in future if (w := restored.push(v))]
        assert len(a) == len(b) > 0
        for wa, wb in zip(a, b):
            assert np.array_equal(wa.window, wb.window)
        assert original.buffer.mean == restored.buffer.mean
        assert original.buffer.std == restored.buffer.std

    def test_missing_stream_loads_none(self, store):
        assert store.load("never-saved") is None

    def test_overwrite_keeps_latest(self, store, rng):
        first = make_snapshot(rng)
        second = make_snapshot(rng, stream_id=first.stream_id)
        store.save(first)
        store.save(second)
        loaded = store.load(first.stream_id)
        assert np.array_equal(
            loaded.stream["buffer"]["data"], second.stream["buffer"]["data"]
        )
        assert store.stream_ids() == [first.stream_id]

    def test_delete_and_ids(self, store, rng):
        a, b = make_snapshot(rng, "a"), make_snapshot(rng, "b")
        store.save_many([a, b])
        assert store.stream_ids() == ["a", "b"]
        store.delete("a")
        assert store.stream_ids() == ["b"]
        assert store.load("a") is None
        store.delete("a")  # idempotent

    def test_none_fields_round_trip(self, store, rng):
        bare = StreamSnapshot(
            stream_id="bare",
            stream=make_snapshot(rng).stream,
            baseline=None,
        )
        store.save(bare)
        loaded = store.load("bare")
        assert loaded.baseline is None


class TestFileBackedStore:
    def test_survives_reopen(self, tmp_path, rng):
        snapshot = make_snapshot(rng)
        first = FileBackedStore(tmp_path / "s")
        first.save(snapshot)
        second = FileBackedStore(tmp_path / "s")
        assert second.stream_ids() == [snapshot.stream_id]
        assert second.load(snapshot.stream_id).stream["count"] == (
            snapshot.stream["count"]
        )

    def test_deletion_tombstone_survives_reopen(self, tmp_path, rng):
        store = FileBackedStore(tmp_path / "s")
        store.save_many([make_snapshot(rng, "a"), make_snapshot(rng, "b")])
        store.delete("a")
        reopened = FileBackedStore(tmp_path / "s")
        assert reopened.stream_ids() == ["b"]

    def test_torn_index_line_is_skipped_with_a_warning(self, tmp_path, rng):
        store = FileBackedStore(tmp_path / "s")
        store.save(make_snapshot(rng, "ok"))
        index = tmp_path / "s" / "streams.jsonl"
        with open(index, "a", encoding="utf-8") as handle:
            handle.write('{"stream_id": "torn-')  # simulated torn write
        with pytest.warns(UserWarning, match="torn"):
            reopened = FileBackedStore(tmp_path / "s")
        assert reopened.stream_ids() == ["ok"]

    def test_corrupt_blob_is_treated_as_missing(self, tmp_path, rng):
        store = FileBackedStore(tmp_path / "s")
        snapshot = make_snapshot(rng)
        store.save(snapshot)
        blob = next((tmp_path / "s").glob("*.npz"))
        blob.write_bytes(b"not an npz at all")
        with pytest.warns(UserWarning, match="unreadable"):
            assert store.load(snapshot.stream_id) is None

    def test_no_tmp_files_left_behind(self, tmp_path, rng):
        store = FileBackedStore(tmp_path / "s")
        for i in range(4):
            store.save(make_snapshot(rng, f"s{i}"))
        assert not list((tmp_path / "s").glob("*.tmp"))
