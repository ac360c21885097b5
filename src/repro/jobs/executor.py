"""Chunked execution with journaling, fork workers, and failure isolation.

Two layers:

* :func:`parallel_map` — the generic fabric: run ``task(payload)`` over
  a list of payloads on :class:`~repro.runtime.workers.ForkWorker`
  processes (workers inherit the task and payloads through fork; only
  indices and results cross the pipe), delivering results to the
  parent as they complete.  Serial fallback when ``workers <= 1`` or
  fork is unavailable.  Both the bulk-scoring
  executor below and the archive sweep job
  (:mod:`repro.jobs.sweep`) run on this.
* :class:`ChunkedExecutor` — bulk scoring: executes the missing chunks
  of a job (completed ones replay from the journal), scores each
  chunk's windows in one batched ``score_windows`` call, journals every
  completed chunk with an fsync before moving on, honors cooperative
  cancellation between chunks, and isolates per-chunk failures under a
  :class:`~repro.runtime.RetryPolicy` / :class:`~repro.runtime.RunBudget`.

Worker failures are not fatal by themselves: a chunk that raises in a
worker, or whose worker dies (SIGKILL, OOM), comes back as an
``errors`` entry and is retried *serially* in the parent under the
retry policy, so one poisoned chunk degrades to an attributed
:class:`ChunkFailedError` instead of a hung or dead run.
"""

from __future__ import annotations

import warnings
from collections import deque
from contextlib import suppress
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Iterable, Sequence

import numpy as np

from .. import obs
from ..runtime import RetryPolicy, RunBudget
from ..runtime.workers import ForkWorker, WorkerDied, fork_available
from .chunking import Chunk, chunk_windows_view
from .store import JobStore

__all__ = ["ChunkFailedError", "ChunkedExecutor", "parallel_map"]

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


# ----------------------------------------------------------------------
# Generic fork-worker fabric
# ----------------------------------------------------------------------


def _map_worker(conn, task: Callable, payloads: Sequence) -> None:
    """Worker loop: reply ``(index, result, error)`` per index until ``None``.

    Exceptions are returned, not raised — the parent decides whether to
    retry (serially, under its policy) or fail the run.
    """
    while (index := conn.recv()) is not None:
        try:
            conn.send((index, task(payloads[index]), None))
        except Exception as error:  # noqa: BLE001 - marshalled to the parent
            conn.send((index, None, f"{type(error).__name__}: {error}"))


def parallel_map(
    task: Callable,
    payloads: Sequence,
    workers: int,
    on_result: Callable[[int, object], None],
    should_stop: Callable[[], bool] | None = None,
) -> tuple[list[int], dict[int, str]]:
    """Run ``task(payload)`` for every payload, streaming results.

    ``on_result(index, result)`` fires in the parent as each payload
    completes (arrival order with workers).  Workers inherit ``task``
    and ``payloads`` through fork; only indices and results cross the
    pipe.  Returns ``(remaining, errors)``: payload indices never
    finished because ``should_stop`` fired, and per-index error strings
    for payloads whose task raised in a worker or whose worker died
    (``"WorkerDied: exit code -9"``; the worker is respawned), for the
    parent to retry.  Serial mode raises through instead, letting the
    caller's retry policy see the live exception.
    """
    errors: dict[int, str] = {}
    if workers > 1 and not fork_available():  # pragma: no cover - non-POSIX
        warnings.warn(
            "multiprocessing 'fork' start method unavailable; "
            "running chunks serially",
            stacklevel=2,
        )
        workers = 1

    if workers <= 1:
        for index, payload in enumerate(payloads):
            if should_stop is not None and should_stop():
                return list(range(index, len(payloads))), errors
            on_result(index, task(payload))
        return [], errors

    queue = deque(range(len(payloads)))
    busy: dict = {}  # conn -> (worker, in-flight index)
    spawned: list[ForkWorker] = []

    def dispatch(worker: ForkWorker | None) -> None:
        """Hand ``worker`` (a fresh fork if ``None``) the next index."""
        if not queue:
            return
        if worker is None:
            worker = ForkWorker(_map_worker, task, payloads)
            spawned.append(worker)
        busy[worker.conn] = (worker, queue[0])
        with suppress(WorkerDied):  # a death surfaces on the next recv
            worker.send(queue.popleft())

    try:
        for _ in range(min(workers, len(payloads))):
            dispatch(None)
        while busy:
            for conn in wait(list(busy)):
                worker, index = busy.pop(conn)
                try:
                    _, result, error = worker.recv()
                except WorkerDied as died:
                    error, worker = f"WorkerDied: {died}", None
                dispatch(worker)  # the worker computes while on_result runs
                if error is not None:
                    errors[index] = error
                else:
                    on_result(index, result)
                if should_stop is not None and should_stop():
                    in_flight = [i for _, i in busy.values()]
                    return sorted([*queue, *in_flight]), errors
        return [], errors
    finally:
        for worker in spawned:
            with suppress(WorkerDied):
                worker.send(None)
            worker.close(grace=0.1)  # a worker still mid-task is terminated


# ----------------------------------------------------------------------
# Bulk-scoring chunk executor
# ----------------------------------------------------------------------


@dataclass
class _ChunkWindow:
    """Per-window metadata stand-in (scorers that track stream state
    expect :class:`repro.serve.stream.ReadyWindow`-shaped entries)."""

    stream_id: str
    end_index: int
    window: np.ndarray
    mean: float
    std: float

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
        _ChunkWindow(
            stream_id=tag,
            end_index=int(start) + length,
            window=window,
            mean=float(mean),
            std=float(std),
        )
        for window, start, mean, std in zip(
            windows, starts, windows.mean(axis=1), windows.std(axis=1)
        )
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
        one attempt, crash-through (the manager records the failure).
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
        self.policy = policy
        self.budget = budget

    def _retry_serial(
        self,
        scorer,
        series: np.ndarray,
        chunk: Chunk,
        length: int,
        stride: int,
        job_id: str,
    ) -> np.ndarray:
        """Serial per-chunk execution under the retry policy."""
        if self.policy is None:
            return score_chunk(scorer, series, chunk, length, stride, tag=job_id)
        last_error: BaseException | None = None
        for attempt in range(self.policy.attempts()):
            if attempt:
                self.policy.pause(attempt)
                obs.incr("jobs.chunks.retried")
            try:
                return score_chunk(
                    scorer, series, chunk, length, stride, tag=job_id
                )
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

        def record(chunk: Chunk, scores: np.ndarray) -> None:
            store.append_chunk(job_id, chunk.index, scores)
            obs.incr("jobs.chunks.completed")

        def cancelled() -> bool:
            return store.cancel_requested(job_id)

        with obs.span(
            "jobs.chunks",
            job_id=job_id,
            total=len(chunks),
            pending=len(pending),
            workers=self.workers,
        ):
            if cancelled():
                return CANCELLED_OUTCOME
            if self.workers <= 1 or not fork_available():
                for chunk in pending:
                    if cancelled():
                        return CANCELLED_OUTCOME
                    if budget is not None:
                        budget.check_time()
                    record(
                        chunk,
                        self._retry_serial(
                            scorer, series, chunk, length, stride, job_id
                        ),
                    )
                return COMPLETED_OUTCOME

            def task(chunk: Chunk) -> list[float]:
                scores = score_chunk(
                    scorer, series, chunk, length, stride, tag=job_id
                )
                return [float(s) for s in scores]

            def on_result(position: int, scores: list[float]) -> None:
                chunk = pending[position]
                record(chunk, np.asarray(scores, dtype=np.float64))
                if budget is not None:
                    budget.check_time()

            _, errors = parallel_map(
                task,
                pending,
                workers=self.workers,
                on_result=on_result,
                should_stop=cancelled,
            )
            if cancelled():
                return CANCELLED_OUTCOME
            # Worker-side failures (raised or died) retry serially under
            # the policy so the exception type (not a marshalled string)
            # drives retry_on.
            for position in sorted(errors):
                chunk = pending[position]
                obs.incr("jobs.chunks.pool_failures")
                record(
                    chunk,
                    self._retry_serial(
                        scorer, series, chunk, length, stride, job_id
                    ),
                )
                if cancelled():
                    return CANCELLED_OUTCOME
                if budget is not None:
                    budget.check_time()
            return COMPLETED_OUTCOME
