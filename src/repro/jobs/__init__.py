"""Async bulk-inference jobs: resumable chunked scoring at archive scale.

The serving engine (:mod:`repro.serve`) answers "score this window
now"; this package answers "score these 10 million points overnight".
A job is submitted once (``PENDING``), survives process death through
JSONL journals (:class:`JobStore`), executes as overlapping
window-preserving chunks on fork workers
(:class:`ChunkedExecutor`), and stitches per-chunk window scores back
into one contiguous point-score array bit-identical to a single pass.
Lifecycle::

    PENDING -> RUNNING -> SUCCEEDED | FAILED | CANCELLED

Re-submitting an identical payload dedupes onto the existing job
(content-digest idempotency keys), and re-running a job that died —
`kill -9` included — replays completed chunks from the journal and
executes only the rest.  Chunks fan out through
:func:`repro.runtime.workers.parallel_map`, the fan-out the archive
sweep (:func:`repro.eval.run_on_archive`) also uses.  CLI:
``repro submit`` / ``repro jobs`` / ``repro job-result`` /
``repro job-cancel``.  See ``docs/JOBS.md``.
"""

from .chunking import Chunk, chunk_windows_view, plan_chunks, stitch, window_starts
from .executor import ChunkedExecutor, ChunkFailedError
from .manager import JobManager
from .registry import (
    build_scorer,
    job_detectors,
    register_job_detector,
)
from .spec import (
    CANCELLED,
    FAILED,
    PENDING,
    RUNNING,
    STATES,
    SUCCEEDED,
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    idempotency_key,
)
from .store import JobStore

__all__ = [
    "JobManager",
    "JobStore",
    "JobSpec",
    "JobRecord",
    "idempotency_key",
    "PENDING",
    "RUNNING",
    "SUCCEEDED",
    "FAILED",
    "CANCELLED",
    "STATES",
    "TERMINAL_STATES",
    "Chunk",
    "plan_chunks",
    "window_starts",
    "chunk_windows_view",
    "stitch",
    "ChunkedExecutor",
    "ChunkFailedError",
    "register_job_detector",
    "job_detectors",
    "build_scorer",
]
