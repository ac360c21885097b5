"""Job lifecycle: submit validation, idempotency, cancel, failure, retry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.jobs import (
    CANCELLED,
    FAILED,
    PENDING,
    SUCCEEDED,
    JobManager,
    JobSpec,
    job_detectors,
    register_job_detector,
)
from repro.jobs.registry import BatchedSpectralResidualScorer
from repro.pipeline.contracts import WindowScorer
from repro.pipeline.scores import spread_window_scores
from repro.runtime import RetryPolicy
from repro.signal.windows import sliding_windows


class MeanScorer(WindowScorer):
    name = "test-mean"

    def score_windows(self, windows, batch):
        return np.abs(np.asarray(windows)).mean(axis=-1)


def register_mean(name="test-mean", length=20, stride=10):
    register_job_detector(
        name,
        lambda train, params: (MeanScorer(), length, stride),
        plan=lambda train, params: (length, stride),
    )
    return JobSpec(detector=name, chunk_windows=4)


@pytest.fixture
def series():
    rng = np.random.default_rng(5)
    return np.sin(np.arange(400) / 7.0) + 0.1 * rng.standard_normal(400)


def test_submit_run_result_lifecycle(tmp_path, series):
    spec = register_mean()
    manager = JobManager(tmp_path / "store")
    record = manager.submit(spec, series)
    assert record.state == PENDING
    assert record.job_id.startswith("job-")
    assert record.chunks_total > 1
    assert record.spec.window_length == 20  # plan pinned at submit

    record = manager.run(record.job_id)
    assert record.state == SUCCEEDED
    assert record.chunks_done == record.chunks_total
    scores = manager.result(record.job_id)
    assert scores.shape == series.shape
    assert np.isfinite(scores).all()
    # SUCCEEDED jobs are idempotent: run again returns without rescoring
    assert manager.run(record.job_id).state == SUCCEEDED


def test_duplicate_submit_dedupes(tmp_path, series):
    spec = register_mean()
    manager = JobManager(tmp_path / "store")
    first = manager.submit(spec, series)
    second = manager.submit(spec, series)
    assert second.job_id == first.job_id
    assert len(manager.list_jobs()) == 1
    # a different payload is a different job
    third = manager.submit(spec, series * 2.0)
    assert third.job_id != first.job_id
    fourth = manager.submit(JobSpec(detector=spec.detector, chunk_windows=8), series)
    assert fourth.job_id != first.job_id


def test_submit_rejects_invalid_series(tmp_path, series):
    spec = register_mean()
    manager = JobManager(tmp_path / "store")
    with pytest.raises(ValueError):
        manager.submit(spec, np.array([]))
    with pytest.raises(ValueError, match="one window needs"):
        manager.submit(spec, series[:10])  # shorter than window_length=20
    with pytest.raises(ValueError):
        manager.submit(spec, np.array([1.0, np.nan, 3.0] * 20))


def test_unknown_detector_fails_job_not_submit(tmp_path, series):
    # submit resolves the plan via the registry, so an unknown name
    # surfaces there, before anything is journaled
    manager = JobManager(tmp_path / "store")
    spec = JobSpec(detector="no-such-detector", window_length=20, stride=10)
    record = manager.submit(spec, series)
    record = manager.run(record.job_id)
    assert record.state == FAILED
    assert "no-such-detector" in record.error
    with pytest.raises(RuntimeError, match="FAILED"):
        manager.result(record.job_id)


def test_cancel_pending_job(tmp_path, series):
    spec = register_mean()
    manager = JobManager(tmp_path / "store")
    record = manager.submit(spec, series)
    assert manager.cancel(record.job_id) is True
    assert manager.status(record.job_id).state == CANCELLED
    # cancelling a terminal job is a no-op
    assert manager.cancel(record.job_id) is False


def test_cancel_while_running_then_resume(tmp_path, series):
    """A cancel arriving mid-run stops between chunks; a later run
    resumes from the journal and finishes with identical scores."""
    store_path = tmp_path / "store"
    manager = JobManager(store_path)

    cancelling = {"armed": False}

    class CancellingScorer(MeanScorer):
        def score_windows(self, windows, batch):
            if cancelling["armed"]:
                # simulate an operator cancelling from another process
                manager.cancel(batch[0].stream_id)
            return super().score_windows(windows, batch)

    register_job_detector(
        "test-cancelling",
        lambda train, params: (CancellingScorer(), 20, 10),
        plan=lambda train, params: (20, 10),
    )
    spec = JobSpec(detector="test-cancelling", chunk_windows=4)
    record = manager.submit(spec, series)
    cancelling["armed"] = True
    record = manager.run(record.job_id)
    assert record.state == CANCELLED
    assert 0 < record.chunks_done < record.chunks_total

    cancelling["armed"] = False
    record = manager.run(record.job_id)
    assert record.state == SUCCEEDED

    reference = JobManager(tmp_path / "ref").submit_and_run(spec, series)
    assert np.array_equal(
        manager.result(record.job_id),
        JobManager(tmp_path / "ref").result(reference.job_id),
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_job_result_equals_single_batched_pass(tmp_path, workers):
    """The whole fabric — submit, chunk, fork pool, journal, npz
    artifacts, stitch — returns exactly the scores of one batched pass
    over every window."""
    rng = np.random.default_rng(11)
    series = np.sin(np.arange(3000) / 9.0) + 0.05 * rng.standard_normal(3000)
    series[1200:1210] += 4.0
    spec = JobSpec(detector="spectral-residual", chunk_windows=16)
    manager = JobManager(tmp_path / "store", workers=workers)
    record = manager.submit_and_run(spec, series)
    assert record.state == SUCCEEDED
    assert record.chunks_total > workers

    length, stride = record.spec.window_length, record.spec.stride
    windows, starts = sliding_windows(series, length, stride)
    single = BatchedSpectralResidualScorer().score_windows(windows, ())
    reference = spread_window_scores(single, starts, length, len(series))
    assert np.array_equal(manager.result(record.job_id), reference)


def test_failed_job_records_error_and_can_rerun(tmp_path, series):
    behavior = {"raise": True}

    class FlakyScorer(MeanScorer):
        def score_windows(self, windows, batch):
            if behavior["raise"]:
                raise RuntimeError("transient scoring outage")
            return super().score_windows(windows, batch)

    register_job_detector(
        "test-flaky",
        lambda train, params: (FlakyScorer(), 20, 10),
        plan=lambda train, params: (20, 10),
    )
    manager = JobManager(tmp_path / "store")
    record = manager.submit(JobSpec(detector="test-flaky", chunk_windows=4), series)
    record = manager.run(record.job_id)
    assert record.state == FAILED
    assert "transient scoring outage" in record.error

    behavior["raise"] = False
    record = manager.run(record.job_id)  # FAILED -> RUNNING is a legal resume
    assert record.state == SUCCEEDED


def test_retry_policy_recovers_flaky_chunks(tmp_path, series):
    calls = {"n": 0}

    class FirstCallFails(MeanScorer):
        def score_windows(self, windows, batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("cold cache")
            return super().score_windows(windows, batch)

    register_job_detector(
        "test-retry",
        lambda train, params: (FirstCallFails(), 20, 10),
        plan=lambda train, params: (20, 10),
    )
    manager = JobManager(
        tmp_path / "store", policy=RetryPolicy(max_retries=2, sleep=lambda _s: None)
    )
    record = manager.submit_and_run(
        JobSpec(detector="test-retry", chunk_windows=4), series
    )
    assert record.state == SUCCEEDED
    assert calls["n"] > 1


def test_builtin_registry_names_present():
    names = job_detectors()
    for expected in ("triad", "spectral-residual", "lstm-ae", "random"):
        assert expected in names
