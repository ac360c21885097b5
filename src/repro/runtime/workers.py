"""The one worker-process primitive and the one fan-out built on it.

:class:`ForkWorker` is a forked daemon on a duplex pipe.  Fork is
deliberate: ``args`` are inherited, never pickled, so only messages
cross the pipe.  A worker that dies (SIGKILL, OOM) closes its end of
the pipe, so the parent's next ``recv`` or ``send`` raises
:class:`WorkerDied` instead of blocking.  A worker that hangs while
alive is not detected.

:func:`parallel_map` runs a task over a list of payloads on
:class:`ForkWorker` processes, or serially in-process.  The archive
sweep (:mod:`repro.eval.runner`) and the bulk-scoring executor
(:class:`repro.jobs.ChunkedExecutor`) both fan out through it;
:class:`repro.serve.shard.ShardRouter` runs its long-lived shards as
:class:`ForkWorker` directly.
"""

from __future__ import annotations

import multiprocessing
import warnings
from collections import deque
from contextlib import suppress
from multiprocessing.connection import wait
from typing import Callable, Sequence

__all__ = ["ForkWorker", "WorkerDied", "fork_available", "parallel_map"]


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerDied(RuntimeError):
    """The worker's end of the pipe closed: its process exited."""


class ForkWorker:
    """One forked daemon process running ``target(conn, *args)``."""

    def __init__(self, target, *args) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=target, args=(child, *args), daemon=True
        )
        self.process.start()
        child.close()

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError as error:  # BrokenPipeError included
            raise self._died() from error

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError) as error:
            raise self._died() from error

    def _died(self) -> WorkerDied:
        # The pipe closes as the process exits; reap it for the exit code.
        self.process.join(timeout=1.0)
        return WorkerDied(f"exit code {self.process.exitcode}")

    def close(self, grace: float = 2.0) -> None:
        """Join for ``grace`` seconds, then terminate; close the pipe."""
        self.process.join(timeout=grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=grace)
        self.conn.close()


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
            "running serially",
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
