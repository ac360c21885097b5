"""Durable append-only JSONL journals and atomic file writes.

The one home of durability code in ``repro``: the sweep checkpoint and
the job store write and replay through :func:`append`, :func:`load` and
:func:`atomic_write` (the ``repro profile`` reader replays metric
exports through :func:`load`).  A process killed mid-append leaves a torn final
line; it costs that record only, because the next append starts a fresh
line and replay skips the torn bytes with a warning.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import NamedTuple

__all__ = ["JournalWarning", "Replay", "append", "load", "atomic_write"]


class JournalWarning(UserWarning, RuntimeWarning):
    """A journal line or record was skipped on replay.

    Subclasses both categories the per-log readers emitted before they
    shared this module, so existing filters keep matching.
    """


class Replay(NamedTuple):
    """What :func:`load` recovered: the records in file order, and one
    ``(lineno, reason)`` diagnostic per skipped line."""

    records: list[dict]
    skipped: list[tuple[int, str]]


def append(path: str | os.PathLike, record: dict) -> None:
    """Durably append ``record`` as one JSON line (one write, one fsync),
    on a fresh line when the file ends mid-line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = (json.dumps(record) + "\n").encode("utf-8")
    with open(path, "a+b") as handle:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def load(path: str | os.PathLike) -> Replay:
    """Replay every JSON-object line of ``path`` (empty when missing).

    Blank lines are ignored; unparseable (torn) and non-object lines are
    skipped with one :class:`JournalWarning` each.
    """
    path = Path(path)
    replay = Replay([], [])
    if not path.exists():
        return replay
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError as error:  # JSONDecodeError / UnicodeDecodeError
                reason = f"skipping unparseable line (torn write?): {error}"
            else:
                if isinstance(record, dict):
                    replay.records.append(record)
                    continue
                reason = (
                    "skipping non-object line "
                    f"(expected an object, got {type(record).__name__})"
                )
            replay.skipped.append((lineno, reason))
            warnings.warn(f"{path}:{lineno}: {reason}", JournalWarning, stacklevel=2)
    return replay


def atomic_write(path: str | os.PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data`` durably (tmp file, fsync,
    ``os.replace``): a crash leaves the old file or the new, never a mix."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
