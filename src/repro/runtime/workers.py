"""The one worker-process primitive: a forked daemon on a duplex pipe.

:func:`repro.jobs.executor.parallel_map` and
:class:`repro.serve.shard.ShardRouter` both run their workers as
:class:`ForkWorker`.  Fork is deliberate: ``args`` are inherited, never
pickled, so only messages cross the pipe.  A worker that dies (SIGKILL,
OOM) closes its end of the pipe, so the parent's next ``recv`` or
``send`` raises :class:`WorkerDied` instead of blocking.  A worker that
hangs while alive is not detected.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["ForkWorker", "WorkerDied", "fork_available"]


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
