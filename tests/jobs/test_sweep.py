"""The archive sweep on the job fabric must match the sequential runner."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.data import make_archive
from repro.eval import SweepCheckpoint, run_on_archive, run_scores_on_archive
from repro.jobs import parallel_map, run_archive_job
from repro.runtime import RetryPolicy


@pytest.fixture(scope="module")
def archive():
    return make_archive(size=3, seed=7, train_length=400, test_length=500)


def score_factory(seed):
    from repro.baselines import RandomScoreDetector

    return RandomScoreDetector(seed=seed)


def binary_factory(seed):
    from repro.baselines import OneLinerDetector

    return OneLinerDetector()


@pytest.mark.parametrize("workers", [1, 2])
def test_scores_sweep_matches_sequential(archive, workers):
    sequential = run_scores_on_archive("random", score_factory, archive, seeds=(0, 1))
    fabric = run_archive_job(
        "random", score_factory, archive, seeds=(0, 1), mode="scores", workers=workers
    )
    assert fabric.mean == sequential.mean
    assert fabric.std == sequential.std
    assert fabric.coverage == sequential.coverage
    assert [(r.dataset, r.seed) for r in fabric.per_run] == [
        (r.dataset, r.seed) for r in sequential.per_run
    ]
    assert [r.metrics for r in fabric.per_run] == [
        r.metrics for r in sequential.per_run
    ]


def test_binary_sweep_matches_sequential(archive):
    sequential = run_on_archive("one-liner", binary_factory, archive, seeds=(0,))
    fabric = run_archive_job(
        "one-liner", binary_factory, archive, seeds=(0,), workers=2
    )
    assert fabric.mean == sequential.mean
    assert fabric.std == sequential.std


def test_sweep_checkpoint_splices_on_rerun(archive, tmp_path):
    journal = tmp_path / "sweep.jsonl"
    first = run_archive_job(
        "random",
        score_factory,
        archive,
        seeds=(0,),
        mode="scores",
        workers=2,
        checkpoint=SweepCheckpoint(journal),
    )
    lines_after_first = len(journal.read_text().splitlines())
    assert lines_after_first == len(archive)

    second = run_archive_job(
        "random",
        score_factory,
        archive,
        seeds=(0,),
        mode="scores",
        workers=2,
        checkpoint=SweepCheckpoint(journal),
    )
    # everything spliced from the journal: no new lines, same aggregate
    assert len(journal.read_text().splitlines()) == lines_after_first
    assert second.mean == first.mean


def test_sweep_isolates_failures_under_policy(archive):
    def flaky_factory(seed):
        class Exploding:
            def fit(self, train):
                return self

            def score_series(self, test):
                raise RuntimeError("dead unit")

        return Exploding()

    result = run_archive_job(
        "flaky",
        flaky_factory,
        archive,
        seeds=(0,),
        mode="scores",
        workers=2,
        policy=RetryPolicy(max_retries=0, sleep=lambda _s: None),
    )
    assert result.coverage == 0.0
    assert len(result.failures) == len(archive)
    assert all(f.error_type == "RuntimeError" for f in result.failures)


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
