"""Crash-resume drill: a job killed with SIGKILL mid-run resumes from
its journal and produces scores bit-identical to an uninterrupted run."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.spectral_residual import SpectralResidualWindowScorer
from repro.jobs import (
    RUNNING,
    SUCCEEDED,
    JobManager,
    JobSpec,
    JobStore,
    register_job_detector,
)

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

SERIES_SEED = 42
N_POINTS = 6000
WINDOW, STRIDE, CHUNK_WINDOWS = 100, 25, 16

DRIVER = f"""
import sys, time
sys.path.insert(0, {str(REPO_SRC)!r})
import numpy as np
from repro.baselines.spectral_residual import SpectralResidualWindowScorer
from repro.jobs import JobManager, JobSpec, register_job_detector


class SlowScorer(SpectralResidualWindowScorer):
    def score_windows(self, windows, batch):
        time.sleep(0.3)  # slow enough for the parent to SIGKILL mid-run
        return super().score_windows(windows, batch)


register_job_detector(
    "slow-sr", lambda train, params: (SlowScorer(), {WINDOW}, {STRIDE})
)
series = np.sin(np.arange({N_POINTS}) / 9.0) + 0.05 * (
    np.random.default_rng({SERIES_SEED}).standard_normal({N_POINTS})
)
manager = JobManager(sys.argv[1])
spec = JobSpec(
    detector="slow-sr", window_length={WINDOW}, stride={STRIDE},
    chunk_windows={CHUNK_WINDOWS},
)
record = manager.submit(spec, series)
print(record.job_id, flush=True)
manager.run(record.job_id)
"""


def _series() -> np.ndarray:
    return np.sin(np.arange(N_POINTS) / 9.0) + 0.05 * (
        np.random.default_rng(SERIES_SEED).standard_normal(N_POINTS)
    )


@pytest.mark.resilience
def test_kill9_mid_run_resumes_bit_identical(tmp_path):
    store_path = tmp_path / "store"
    driver = subprocess.Popen(
        [sys.executable, "-c", DRIVER, str(store_path)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        job_id = driver.stdout.readline().strip()
        assert job_id.startswith("job-")
        chunk_journal = store_path / job_id / "chunks.jsonl"

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if chunk_journal.exists() and len(
                chunk_journal.read_text().splitlines()
            ) >= 2:
                break
            assert driver.poll() is None, "driver finished before it was killed"
            time.sleep(0.05)
        else:
            pytest.fail("driver never journaled two chunks")
        os.kill(driver.pid, signal.SIGKILL)
        driver.wait(timeout=30)
    finally:
        if driver.poll() is None:  # pragma: no cover - cleanup on failure
            driver.kill()
            driver.wait()

    store = JobStore(store_path)
    record = store.get(job_id)
    assert record.state == RUNNING  # the journal still says so: nobody
    # lived to write a terminal state
    done_before = record.chunks_done
    assert 0 < done_before < record.chunks_total

    # A fresh process registers the same detector (without the sleep —
    # builder identity is not part of the contract, the math is) and
    # resubmits the identical payload: the idempotency key lands on the
    # half-finished job, and run() replays the journaled chunks.
    register_job_detector(
        "slow-sr",
        lambda train, params: (SpectralResidualWindowScorer(), WINDOW, STRIDE),
    )
    spec = JobSpec(
        detector="slow-sr",
        window_length=WINDOW,
        stride=STRIDE,
        chunk_windows=CHUNK_WINDOWS,
    )
    manager = JobManager(store_path)
    resumed = manager.submit(spec, _series())
    assert resumed.job_id == job_id
    resumed = manager.run(job_id)
    assert resumed.state == SUCCEEDED
    assert resumed.chunks_done == resumed.chunks_total

    # every chunk journaled exactly once: the survivors were replayed,
    # not recomputed
    lines = (store_path / job_id / "chunks.jsonl").read_text().splitlines()
    assert len(lines) == resumed.chunks_total

    reference = JobManager(tmp_path / "ref").submit_and_run(spec, _series())
    assert reference.state == SUCCEEDED
    assert np.array_equal(
        manager.result(job_id), JobManager(tmp_path / "ref").result(reference.job_id)
    )
