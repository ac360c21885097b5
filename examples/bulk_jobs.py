"""Bulk scoring jobs: chunked execution, crash, and resume.

The serving stack scores small online windows; `repro.jobs` covers the
other extreme — "score this multi-million-point series overnight and
survive a mid-run kill".  This walkthrough:

1. submits a large series as a job (`JobManager.submit`) — the window
   plan is pinned and the job deduplicated by a content key;
2. runs it chunked: the global window grid is split into
   overlap-preserving chunks, each scored in one batched call and
   journaled as JSONL;
3. simulates a crash by cancelling mid-run, shows the journal holding
   the completed chunks, and resumes by re-running the *same* job —
   the stitched result is bit-identical to an uninterrupted pass.

Run:
    PYTHONPATH=src python examples/bulk_jobs.py

CLI equivalent: `python -m repro submit / jobs / job-result`
(see docs/JOBS.md).
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.baselines import SpectralResidualWindowScorer
from repro.jobs import JobManager, JobSpec, register_job_detector


def make_series(n: int = 200_000) -> np.ndarray:
    rng = np.random.default_rng(5)
    t = np.arange(n)
    series = np.sin(2 * np.pi * t / 256) + 0.05 * rng.standard_normal(n)
    series[120_000:120_040] += 3.5  # the needle in the haystack
    return series


class FlakyScorer(SpectralResidualWindowScorer):
    """Same math as the ``spectral-residual`` job scorer, but the owning
    manager cancels the job after a few chunks — standing in for a
    crash/preemption mid-run."""

    def __init__(self, manager: JobManager, job_id: str, after_chunks: int):
        super().__init__()
        self.manager = manager
        self.job_id = job_id
        self.remaining = after_chunks

    def score_windows(self, windows, batch):
        self.remaining -= 1
        if self.remaining == 0:
            self.manager.cancel(self.job_id)  # lands at the next chunk boundary
        return super().score_windows(windows, batch)


def main() -> None:
    series = make_series()
    spec = JobSpec(
        detector="example-sr",
        window_length=256,
        stride=64,
        chunk_windows=512,
    )

    with tempfile.TemporaryDirectory(prefix="bulk-jobs-") as root:
        manager = JobManager(root, workers=1)

        # -- 1. an uninterrupted run, for reference -----------------------
        register_job_detector(
            "example-sr",
            lambda train, params: (SpectralResidualWindowScorer(), 256, 64),
            plan=lambda train, params: (256, 64),
        )
        record = manager.submit(spec, series)
        print(f"submitted {record.job_id}: {record.state}, "
              f"{record.chunks_total} chunks of <= {spec.chunk_windows} windows")
        reference = manager.result(manager.run(record.job_id).job_id)

        # -- 2. the same payload in a fresh store, killed mid-run ---------
        with tempfile.TemporaryDirectory(prefix="bulk-jobs-crash-") as root2:
            crashy = JobManager(root2, workers=1)
            record = crashy.submit(spec, series)
            register_job_detector(
                "example-sr",
                lambda train, params: (
                    FlakyScorer(crashy, record.job_id, after_chunks=3), 256, 64,
                ),
                plan=lambda train, params: (256, 64),
            )
            record = crashy.run(record.job_id)
            print(f"after 'crash':   {record.state}, "
                  f"{record.chunks_done}/{record.chunks_total} chunks journaled")

            # -- 3. resume: same submit dedupes to the same job -----------
            register_job_detector(
                "example-sr",
                lambda train, params: (SpectralResidualWindowScorer(), 256, 64),
                plan=lambda train, params: (256, 64),
            )
            resumed = crashy.submit(spec, series)
            assert resumed.job_id == record.job_id, "content key must dedupe"
            record = crashy.run(record.job_id)
            scores = crashy.result(record.job_id)
            print(f"after resume:    {record.state}, "
                  f"{record.chunks_done}/{record.chunks_total} chunks")

        identical = np.array_equal(scores, reference)
        peak = int(np.argmax(scores))
        print(f"resumed result bit-identical to uninterrupted run: {identical}")
        print(f"anomaly planted at 120000..120040, peak score at {peak}")
        assert identical
        assert 119_900 <= peak <= 120_200


if __name__ == "__main__":
    main()
