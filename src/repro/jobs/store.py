"""JSONL-journaled job persistence.

One directory holds every job:

- ``jobs.jsonl`` — the lifecycle journal: one line per submit or state
  transition, fsync'd, replayed by :meth:`JobStore.load_jobs` (latest
  event wins per job).
- ``<job_id>/series.npy`` / ``<job_id>/train.npy`` — the input arrays,
  written once at submit so a resumed job scores byte-identical data.
- ``<job_id>/chunks.jsonl`` — one fsync'd line per completed chunk with
  its window scores.  ``json`` round-trips Python floats exactly
  (shortest-repr), so replayed chunk scores are bit-identical to the
  run that produced them.
- ``<job_id>/scores.npy`` — the stitched result of a SUCCEEDED job.
- ``<job_id>/CANCEL`` — cooperative cancellation marker, checked by the
  executor between chunks (works across processes).

Both journals are written and replayed through
:mod:`repro.runtime.journal`: torn lines (a process killed mid-write)
are skipped with a warning, and the next append starts a fresh line.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

import numpy as np

from ..runtime import journal
from .spec import JobRecord, valid_transition

__all__ = ["JobStore"]


class JobStore:
    """Directory-backed job state that survives process death."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Lifecycle journal
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.root / "jobs.jsonl"

    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def append_submit(
        self, record: JobRecord, series: np.ndarray, train: np.ndarray
    ) -> None:
        """Persist the inputs, then journal the submission.

        Array writes precede the journal line, so a journaled job always
        has its inputs on disk (a crash in between leaves an orphaned
        directory the next submit simply overwrites).
        """
        directory = self.job_dir(record.job_id)
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / "series.npy", np.asarray(series, dtype=np.float64))
        np.save(directory / "train.npy", np.asarray(train, dtype=np.float64))
        journal.append(self.journal_path, {"kind": "submit", **record.to_dict()})

    def append_state(self, job_id: str, state: str, error: str = "") -> None:
        payload = {"kind": "state", "job_id": job_id, "state": state}
        if error:
            payload["error"] = error
        journal.append(self.journal_path, payload)

    def load_jobs(self) -> dict[str, JobRecord]:
        """Replay the lifecycle journal into records, submit-order
        preserved; later state events win, illegal edges are skipped
        with a warning (a stale writer racing a resume)."""
        records: dict[str, JobRecord] = {}
        for entry in journal.load(self.journal_path).records:
            kind = entry.pop("kind", None)
            try:
                if kind == "submit":
                    record = JobRecord.from_dict(entry)
                    records[record.job_id] = record
                elif kind == "state":
                    record = records.get(entry["job_id"])
                    if record is None:
                        continue
                    new_state = entry["state"]
                    if record.state != new_state and not valid_transition(
                        record.state, new_state
                    ):
                        warnings.warn(
                            f"{self.journal_path}: ignoring illegal "
                            f"{record.state} -> {new_state} for job "
                            f"{record.job_id}",
                            journal.JournalWarning,
                            stacklevel=2,
                        )
                        continue
                    record.state = new_state
                    record.error = entry.get("error", "")
            except (TypeError, KeyError, ValueError) as error:
                warnings.warn(
                    f"{self.journal_path}: skipping malformed "
                    f"{kind or 'journal'} entry: {error}",
                    journal.JournalWarning,
                    stacklevel=2,
                )
        for record in records.values():
            record.chunks_done = len(self.load_chunks(record.job_id))
        return records

    def get(self, job_id: str) -> JobRecord:
        records = self.load_jobs()
        if job_id not in records:
            raise KeyError(f"no job {job_id!r} in {self.root}")
        return records[job_id]

    def find_by_key(self, key: str) -> JobRecord | None:
        """The most recently submitted job with this idempotency key."""
        match = None
        for record in self.load_jobs().values():
            if record.key == key:
                match = record
        return match

    # ------------------------------------------------------------------
    # Inputs / chunk journal / result
    # ------------------------------------------------------------------
    def series(self, job_id: str) -> np.ndarray:
        return np.load(self.job_dir(job_id) / "series.npy")

    def train(self, job_id: str) -> np.ndarray:
        return np.load(self.job_dir(job_id) / "train.npy")

    def append_chunk(self, job_id: str, index: int, scores: np.ndarray) -> None:
        journal.append(
            self.job_dir(job_id) / "chunks.jsonl",
            {
                "chunk": int(index),
                "scores": [float(s) for s in np.asarray(scores, dtype=np.float64)],
            },
        )

    def load_chunks(self, job_id: str) -> dict[int, np.ndarray]:
        """Journaled per-chunk window scores (later lines win)."""
        chunks: dict[int, np.ndarray] = {}
        path = self.job_dir(job_id) / "chunks.jsonl"
        for entry in journal.load(path).records:
            try:
                chunks[int(entry["chunk"])] = np.asarray(
                    entry["scores"], dtype=np.float64
                )
            except (KeyError, TypeError, ValueError) as error:
                warnings.warn(
                    f"{path}: skipping malformed chunk entry: {error}",
                    journal.JournalWarning,
                    stacklevel=2,
                )
        return chunks

    def save_result(self, job_id: str, scores: np.ndarray) -> Path:
        path = self.job_dir(job_id) / "scores.npy"
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.asarray(scores, dtype=np.float64))
        return path

    def load_result(self, job_id: str) -> np.ndarray:
        path = self.job_dir(job_id) / "scores.npy"
        if not path.exists():
            raise FileNotFoundError(
                f"job {job_id} has no stitched result at {path}"
            )
        return np.load(path)

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def _cancel_marker(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "CANCEL"

    def request_cancel(self, job_id: str) -> None:
        self.job_dir(job_id).mkdir(parents=True, exist_ok=True)
        self._cancel_marker(job_id).touch()

    def cancel_requested(self, job_id: str) -> bool:
        return self._cancel_marker(job_id).exists()

    def clear_cancel(self, job_id: str) -> None:
        self._cancel_marker(job_id).unlink(missing_ok=True)
