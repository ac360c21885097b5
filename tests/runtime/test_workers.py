"""The one worker-process primitive (repro.runtime.workers).

A dead worker must surface as :class:`WorkerDied` on the parent's next
pipe operation, never as a blocked ``recv``; ``close`` must stop even a
worker that ignores its pipe; and no other module may create processes.
"""

from __future__ import annotations

import ast
import os
import signal
import time
from pathlib import Path

import pytest

from repro.runtime.workers import ForkWorker, WorkerDied

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _echo(conn) -> None:
    while (message := conn.recv()) is not None:
        conn.send(message)


def _sleep_forever(conn) -> None:
    while True:
        time.sleep(60)


def test_round_trip_then_clean_exit(hang_alarm):
    worker = ForkWorker(_echo)
    worker.send(("ping", 1))
    assert worker.recv() == ("ping", 1)
    worker.send(None)
    worker.close()
    assert not worker.alive()
    assert worker.process.exitcode == 0


def test_recv_on_sigkilled_worker_raises_worker_died(hang_alarm):
    worker = ForkWorker(_sleep_forever)
    os.kill(worker.pid, signal.SIGKILL)
    with pytest.raises(WorkerDied, match="exit code -9"):
        worker.recv()
    worker.close()


def test_send_to_sigkilled_worker_raises_worker_died(hang_alarm):
    worker = ForkWorker(_sleep_forever)
    os.kill(worker.pid, signal.SIGKILL)
    worker.process.join(timeout=5.0)
    with pytest.raises(WorkerDied, match="exit code -9"):
        worker.send("anyone there?")
    worker.close()


def test_close_terminates_a_worker_that_never_reads(hang_alarm):
    worker = ForkWorker(_sleep_forever)
    worker.close(grace=0.1)
    assert not worker.alive()
    assert worker.process.exitcode == -signal.SIGTERM
    assert worker.conn.closed


# The process-creating names of ``multiprocessing``; ``shared_memory``
# (serve.stores) creates no process and is allowed anywhere.
_PROCESS_NAMES = {"get_context", "Pool", "Process", "Pipe"}


def _process_calls(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in _PROCESS_NAMES:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "multiprocessing"
        ):
            found |= {a.name for a in node.names if a.name in _PROCESS_NAMES}
    return found


def test_processes_are_created_only_in_the_workers_module():
    offenders = {
        str(path.relative_to(SRC)): calls
        for path in sorted(SRC.rglob("*.py"))
        if (calls := _process_calls(path))
    }
    assert offenders == {"runtime/workers.py": {"get_context", "Pipe", "Process"}}
