"""The one worker-process primitive and its fan-out (repro.runtime.workers).

A dead worker must surface as :class:`WorkerDied` on the parent's next
pipe operation, never as a blocked ``recv``; ``close`` must stop even a
worker that ignores its pipe; :func:`parallel_map` must report a worker
that raised or died instead of hanging; and no other module may create
processes or wait on worker pipes.
"""

from __future__ import annotations

import ast
import os
import signal
import time
from pathlib import Path

import pytest

from repro.runtime.workers import ForkWorker, WorkerDied, parallel_map

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


def test_parallel_map_serial_raises_live_exception():
    def boom(payload):
        raise ValueError(f"bad payload {payload}")

    with pytest.raises(ValueError, match="bad payload"):
        parallel_map(boom, [1], workers=1, on_result=lambda i, r: None)


def test_parallel_map_pool_marshals_errors():
    def task(payload):
        if payload == 2:
            raise ValueError("poisoned")
        return payload * 10

    seen = {}
    remaining, errors = parallel_map(
        task, [1, 2, 3], workers=2, on_result=seen.__setitem__
    )
    assert remaining == []
    assert seen == {0: 10, 2: 30}
    assert list(errors) == [1] and "poisoned" in errors[1]


def test_parallel_map_reports_a_sigkilled_worker(hang_alarm):
    def task(payload):
        if payload == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return payload * 10

    seen = {}
    remaining, errors = parallel_map(
        task, [0, 1, 2, 3], workers=2, on_result=seen.__setitem__
    )
    assert remaining == []
    assert seen == {0: 0, 1: 10, 3: 30}
    assert errors == {2: "WorkerDied: exit code -9"}


def test_parallel_map_should_stop_short_circuits(hang_alarm):
    for workers in (1, 2):
        stop, seen = {"now": False}, {}

        def on_result(index, result):
            seen[index] = result
            stop["now"] = True

        remaining, errors = parallel_map(
            lambda p: p, list(range(5)), workers=workers,
            on_result=on_result, should_stop=lambda: stop["now"],
        )
        assert errors == {}
        # stopped after the first completion; in-flight indices count
        # as remaining
        assert len(remaining) == 4
        assert sorted([*seen, *remaining]) == list(range(5))


# The process-creating names of ``multiprocessing``; the rest of the
# module creates no process and is allowed anywhere.
_PROCESS_NAMES = {"get_context", "Pool", "Process", "Pipe"}


def _process_calls(source: str) -> set[str]:
    """Process-creating names, plus ``wait`` for
    ``multiprocessing.connection.wait`` (a fan-out loop over worker
    pipes), used in ``source``.  ``event.wait()`` and the like pass."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr in _PROCESS_NAMES:
                found.add(node.attr)
            elif node.attr == "wait" and ast.unparse(node.value).endswith(
                "connection"
            ):
                found.add("wait")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "multiprocessing"
        ):
            names = {a.name for a in node.names}
            found |= names & _PROCESS_NAMES
            if node.module == "multiprocessing.connection":
                found |= names & {"wait"}
    return found


def test_process_lint_flags_connection_wait_only():
    assert _process_calls("from multiprocessing.connection import wait") == {"wait"}
    assert _process_calls("multiprocessing.connection.wait([])") == {"wait"}
    assert _process_calls("threading.Event().wait(1.0)") == set()


def test_processes_are_created_only_in_the_workers_module():
    offenders = {
        str(path.relative_to(SRC)): calls
        for path in sorted(SRC.rglob("*.py"))
        if (calls := _process_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {
        "runtime/workers.py": {"get_context", "Pipe", "Process", "wait"}
    }
