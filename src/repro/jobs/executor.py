"""Chunked bulk scoring with journaling, fork workers, and failure isolation.

:class:`ChunkedExecutor` executes the missing chunks of a job (completed
ones replay from the journal), scores each chunk's windows in one
batched ``score_windows`` call, journals every completed chunk with an
fsync before moving on, honors cooperative cancellation between chunks,
and isolates per-chunk failures under a
:class:`~repro.runtime.RetryPolicy` / :class:`~repro.runtime.RunBudget`.
Chunks fan out through :func:`repro.runtime.workers.parallel_map`, in
its serial mode when ``workers`` is 1.

Worker failures are not fatal by themselves: a chunk that raises in a
worker, or whose worker dies (SIGKILL, OOM), comes back as an
``errors`` entry and is retried *serially* in the parent under the
retry policy, so one poisoned chunk degrades to an attributed
:class:`ChunkFailedError` instead of a hung or dead run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .. import obs
from ..runtime import CRASH_THROUGH, RetryPolicy, RunBudget
from ..runtime.workers import fork_available, parallel_map
from .chunking import Chunk, chunk_windows_view
from .store import JobStore

__all__ = ["ChunkFailedError", "ChunkedExecutor"]

CANCELLED_OUTCOME = "cancelled"
COMPLETED_OUTCOME = "completed"


class ChunkFailedError(RuntimeError):
    """One chunk exhausted its retry budget; names the chunk and cause."""

    def __init__(self, chunk_index: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"chunk {chunk_index} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.chunk_index = chunk_index
        self.attempts = attempts
        self.cause = cause


@dataclass
class _ChunkWindow:
    """Per-window metadata stand-in (scorers that track stream state
    expect :class:`repro.serve.stream.ReadyWindow`-shaped entries)."""

    stream_id: str
    end_index: int
    window: np.ndarray

    @property
    def start_index(self) -> int:
        return self.end_index - len(self.window)


def score_chunk(
    scorer,
    series: np.ndarray,
    chunk: Chunk,
    length: int,
    stride: int,
    tag: str = "job",
) -> np.ndarray:
    """Score one chunk's windows in a single batched call."""
    windows, starts = chunk_windows_view(series, chunk, length, stride)
    batch = [
        _ChunkWindow(stream_id=tag, end_index=int(start) + length, window=window)
        for window, start in zip(windows, starts)
    ]
    scores = np.asarray(scorer.score_windows(windows, batch), dtype=np.float64)
    if scores.shape != (chunk.n_windows,):
        raise ValueError(
            f"scorer returned {scores.shape} scores for chunk {chunk.index}, "
            f"expected ({chunk.n_windows},)"
        )
    return scores


class ChunkedExecutor:
    """Execute a job's missing chunks and journal every completion.

    Parameters
    ----------
    workers:
        Fork-worker count; ``1`` runs serially in-process.
    policy:
        Per-chunk :class:`~repro.runtime.RetryPolicy`.  ``None`` means
        :data:`~repro.runtime.CRASH_THROUGH`: one attempt, and the error
        propagates unwrapped (the manager records the failure).
    budget:
        Template :class:`~repro.runtime.RunBudget` for the whole run; a
        fresh instance is spawned per :meth:`run` and checked between
        chunk completions, so a hung run dies with
        :class:`~repro.runtime.BudgetExceededError` instead of spinning.
    """

    def __init__(
        self,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        budget: RunBudget | None = None,
    ) -> None:
        self.workers = max(int(workers), 1)
        self.policy = policy or CRASH_THROUGH
        self.budget = budget

    def _retry_serial(self, score, chunk: Chunk) -> np.ndarray:
        """``score(chunk)`` in-process under the retry policy."""
        last_error: BaseException | None = None
        for attempt in range(self.policy.attempts()):
            if attempt:
                obs.incr("jobs.chunks.retried")
            try:
                return score(chunk)
            except self.policy.retry_on as error:
                last_error = error
        assert last_error is not None
        raise ChunkFailedError(chunk.index, self.policy.attempts(), last_error)

    def run(
        self,
        store: JobStore,
        job_id: str,
        scorer,
        series: np.ndarray,
        chunks: Iterable[Chunk],
        length: int,
        stride: int,
    ) -> str:
        """Execute every chunk not already journaled.

        Returns :data:`COMPLETED_OUTCOME` when all chunks are journaled
        or :data:`CANCELLED_OUTCOME` if a cancel request stopped the run
        between chunks.  Raises :class:`ChunkFailedError` (retry budget
        exhausted) or :class:`~repro.runtime.BudgetExceededError` (run
        budget exhausted) — partial progress stays journaled either way,
        so a re-run resumes instead of restarting.
        """
        chunks = list(chunks)
        series = np.asarray(series, dtype=np.float64)
        journaled = store.load_chunks(job_id)
        pending = [
            c
            for c in chunks
            if c.index not in journaled
            or journaled[c.index].shape != (c.n_windows,)
        ]
        replayed = len(chunks) - len(pending)
        if replayed:
            obs.incr("jobs.chunks.replayed", replayed)
        budget = self.budget.spawn() if self.budget is not None else None

        def score(chunk: Chunk) -> np.ndarray:
            return score_chunk(scorer, series, chunk, length, stride, tag=job_id)

        def retried(chunk: Chunk) -> np.ndarray:
            return self._retry_serial(score, chunk)

        def record(position: int, scores: np.ndarray) -> None:
            store.append_chunk(job_id, pending[position].index, scores)
            obs.incr("jobs.chunks.completed")

        def should_stop() -> bool:
            # Serial mode asks before each chunk, worker mode after each
            # completion.
            if store.cancel_requested(job_id):
                return True
            if budget is not None:
                budget.check_time()
            return False

        with obs.span(
            "jobs.chunks",
            job_id=job_id,
            total=len(chunks),
            pending=len(pending),
            workers=self.workers,
        ):
            # A worker makes one attempt; its failures retry in the parent.
            serial = self.workers <= 1 or not fork_available()
            remaining, errors = parallel_map(
                retried if serial else score,
                pending,
                workers=self.workers,
                on_result=record,
                should_stop=should_stop,
            )
            if remaining:
                return CANCELLED_OUTCOME
            # Worker-side failures (raised or died) retry serially under
            # the policy so the exception type (not a marshalled string)
            # drives retry_on.
            for position in sorted(errors):
                if should_stop():
                    return CANCELLED_OUTCOME
                obs.incr("jobs.chunks.pool_failures")
                record(position, retried(pending[position]))
            return COMPLETED_OUTCOME
