"""The one durability module: append, tolerant replay, atomic replace.

Every append-only log in ``repro`` writes through
:mod:`repro.runtime.journal`, so its crash contract is tested here
once: a final line torn at any byte offset costs at most that record,
the next append still lands on a line of its own, a replayed duplicate
is returned as written, and an interrupted atomic write leaves the
previous file intact.
"""

from __future__ import annotations

import ast
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.jobs.spec import RUNNING, SUCCEEDED, JobRecord, JobSpec
from repro.jobs.store import JobStore
from repro.runtime import journal
from repro.runtime.journal import JournalWarning

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

RECORDS = [
    {"kind": "result", "seed": 0, "scores": [0.1, 2.5e-7]},
    {"kind": "state", "job_id": "job-abc", "state": "RUNNING"},
    {"chunk": 3, "scores": [1.0, -1.0, 0.333]},
]
FRESH = {"kind": "fresh", "note": "appended after the tear"}


def _tear(path: Path, complete: list[dict], torn: dict, offset: int) -> None:
    """Write ``complete`` records, then ``torn``'s line cut at ``offset``."""
    body = "".join(json.dumps(r) + "\n" for r in complete)
    path.write_text(body + (json.dumps(torn) + "\n")[:offset])


class TestTornTail:
    @pytest.mark.parametrize("torn_index", range(len(RECORDS)))
    def test_every_byte_offset_then_append(self, tmp_path, torn_index):
        complete, torn = RECORDS[:torn_index], RECORDS[torn_index]
        line_length = len(json.dumps(torn)) + 1
        for offset in range(line_length + 1):
            path = tmp_path / f"j{offset}.jsonl"
            _tear(path, complete, torn, offset)
            journal.append(path, FRESH)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                replay = journal.load(path)
            # A cut that keeps the whole object (offset >= len(json)) is a
            # complete record; only a strict prefix is lost.
            survived = offset >= line_length - 1
            expected = complete + ([torn] if survived else []) + [FRESH]
            assert replay.records == expected, offset
            assert len(replay.skipped) == (0 if survived or offset == 0 else 1)
            assert len(caught) == len(replay.skipped)
            assert all(w.category is JournalWarning for w in caught)

    def test_skip_diagnostic_names_the_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _tear(path, RECORDS[:2], RECORDS[2], 9)
        with pytest.warns(JournalWarning, match=r"j\.jsonl:3: .*torn write"):
            replay = journal.load(path)
        assert replay.records == RECORDS[:2]
        assert [lineno for lineno, _ in replay.skipped] == [3]

    def test_warning_matches_both_legacy_categories(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('["not", "a", "dict"]\n{"ok": 1}\n')
        with pytest.warns(UserWarning, match="non-object"):
            journal.load(path)
        with pytest.warns(RuntimeWarning, match="expected an object, got list"):
            replay = journal.load(path)
        assert replay.records == [{"ok": 1}]

    def test_undecodable_bytes_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"ok": 1}\n\xff\xfe{\n')
        with pytest.warns(JournalWarning):
            replay = journal.load(path)
        assert replay.records == [{"ok": 1}]


class TestAppend:
    def test_missing_file_loads_empty(self, tmp_path):
        assert journal.load(tmp_path / "absent.jsonl") == ([], [])

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "j.jsonl"
        journal.append(path, RECORDS[0])
        assert journal.load(path).records == [RECORDS[0]]

    def test_duplicate_record_is_replayed_as_written(self, tmp_path):
        # A writer killed between fsync and ack retries the same record.
        path = tmp_path / "j.jsonl"
        for record in (RECORDS[0], RECORDS[2], RECORDS[2]):
            journal.append(path, record)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replay = journal.load(path)
        assert replay.records == [RECORDS[0], RECORDS[2], RECORDS[2]]
        assert replay.skipped == []

    def test_fsyncs_exactly_once_per_record(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or real_fsync(fd))
        path = tmp_path / "j.jsonl"
        path.write_text('{"torn": ')
        journal.append(path, FRESH)
        assert len(calls) == 1

    def test_floats_round_trip_bit_identical(self, tmp_path):
        scores = np.random.default_rng(3).standard_normal(25) * 1e-9
        path = tmp_path / "j.jsonl"
        journal.append(path, {"scores": [float(s) for s in scores]})
        assert np.array_equal(journal.load(path).records[0]["scores"], scores)


class TestAtomicWrite:
    def test_replaces_contents_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "blob.npz"
        journal.atomic_write(path, b"old")
        journal.atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.npz"]

    def test_failure_before_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "blob.npz"
        journal.atomic_write(path, b"previous")

        def crash(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", crash)
        with pytest.raises(OSError, match="disk gone"):
            journal.atomic_write(path, b"half-written replacement")
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.npz"]


class TestJobStoreAfterTornTail:
    """An acked record appended after a torn tail must survive replay."""

    def test_rejournaled_chunk_is_not_lost(self, tmp_path):
        store = JobStore(tmp_path)
        for index in range(3):
            store.append_chunk("job-abc", index, np.full(4, float(index)))
        path = store.job_dir("job-abc") / "chunks.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 3, "scores": [0.5, ')  # killed mid-append
        store.append_chunk("job-abc", 3, np.full(4, 3.0))  # resumed run
        with pytest.warns(UserWarning, match="torn write"):
            chunks = store.load_chunks("job-abc")
        assert sorted(chunks) == [0, 1, 2, 3]
        np.testing.assert_array_equal(chunks[3], np.full(4, 3.0))

    def test_terminal_state_after_torn_line_is_kept(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(
            job_id="job-abc",
            key="k",
            spec=JobSpec(detector="spectral-residual", window_length=16, stride=4),
            chunks_total=2,
        )
        series = np.arange(100, dtype=np.float64)
        store.append_submit(record, series, series)
        store.append_state("job-abc", RUNNING)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "job_id": "job-abc", "sta')
        store.append_state("job-abc", SUCCEEDED)
        with pytest.warns(UserWarning, match="torn write"):
            jobs = store.load_jobs()
        assert jobs["job-abc"].state == SUCCEEDED


def _durability_calls(path: Path) -> set[str]:
    """``os.fsync`` / ``os.replace`` references in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("fsync", "replace")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.add(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found |= {f"os.{a.name}" for a in node.names if a.name in ("fsync", "replace")}
    return found


def test_durability_code_lives_only_in_the_journal_module():
    offenders = {
        str(path.relative_to(SRC)): calls
        for path in sorted(SRC.rglob("*.py"))
        if (calls := _durability_calls(path))
    }
    assert offenders == {"runtime/journal.py": {"os.fsync", "os.replace"}}
