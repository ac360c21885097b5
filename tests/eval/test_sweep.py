"""An archive sweep on fork workers must match the same sweep run serially."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.baselines import OneLinerDetector, RandomScoreDetector
from repro.data import make_archive
from repro.eval import SweepCheckpoint, run_on_archive, run_scores_on_archive
from repro.runtime import RetryPolicy


@pytest.fixture(scope="module")
def archive():
    return make_archive(size=3, seed=7, train_length=400, test_length=500)


def score_factory(seed):
    return RandomScoreDetector(seed=seed)


def binary_factory(seed):
    return OneLinerDetector()


def assert_same_sweep(got, expected):
    assert got.mean == expected.mean
    assert got.std == expected.std
    assert got.coverage == expected.coverage
    assert [(r.dataset, r.seed) for r in got.per_run] == [
        (r.dataset, r.seed) for r in expected.per_run
    ]
    assert [r.metrics for r in got.per_run] == [r.metrics for r in expected.per_run]


@pytest.mark.parametrize("workers", [1, 2])
def test_scores_sweep_matches_sequential(archive, workers):
    sequential = run_scores_on_archive("random", score_factory, archive, seeds=(0, 1))
    fanned = run_scores_on_archive(
        "random", score_factory, archive, seeds=(0, 1), workers=workers
    )
    assert_same_sweep(fanned, sequential)


def test_binary_sweep_matches_sequential(archive):
    sequential = run_on_archive("one-liner", binary_factory, archive, seeds=(0,))
    fanned = run_on_archive(
        "one-liner", binary_factory, archive, seeds=(0,), workers=2
    )
    assert_same_sweep(fanned, sequential)


@pytest.mark.parametrize("first_workers,second_workers", [(2, 1), (1, 2)])
def test_sweep_checkpoint_splices_on_rerun(
    archive, tmp_path, first_workers, second_workers
):
    journal = tmp_path / "sweep.jsonl"
    first = run_scores_on_archive(
        "random",
        score_factory,
        archive,
        seeds=(0,),
        workers=first_workers,
        checkpoint=SweepCheckpoint(journal),
    )
    lines_after_first = len(journal.read_text().splitlines())
    assert lines_after_first == len(archive)

    second = run_scores_on_archive(
        "random",
        score_factory,
        archive,
        seeds=(0,),
        workers=second_workers,
        checkpoint=SweepCheckpoint(journal),
    )
    # everything spliced from the journal: no new lines, same aggregate
    assert len(journal.read_text().splitlines()) == lines_after_first
    assert_same_sweep(second, first)


def test_sweep_isolates_failures_under_policy(archive):
    def flaky_factory(seed):
        class Exploding:
            def fit(self, train):
                return self

            def score_series(self, test):
                raise RuntimeError("dead unit")

        return Exploding()

    result = run_scores_on_archive(
        "flaky",
        flaky_factory,
        archive,
        seeds=(0,),
        workers=2,
        policy=RetryPolicy(max_retries=0),
    )
    assert result.coverage == 0.0
    assert len(result.failures) == len(archive)
    assert all(f.error_type == "RuntimeError" for f in result.failures)


def test_sigkilled_unit_reruns_in_the_parent(archive, hang_alarm):
    """A unit that kills its worker re-runs serially in the parent, and
    the sweep still equals the serial one."""
    parent = os.getpid()
    victim = archive[1].train

    class KillsItsWorker(RandomScoreDetector):
        def fit(self, train_series):
            if train_series is victim and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return super().fit(train_series)

    def factory(seed):
        return KillsItsWorker(seed=seed)

    serial = run_scores_on_archive("random", factory, archive, seeds=(0, 1))
    fanned = run_scores_on_archive(
        "random", factory, archive, seeds=(0, 1), workers=2
    )
    assert not fanned.failures
    assert_same_sweep(fanned, serial)


def test_worker_error_crashes_through_without_policy(archive):
    """Without a policy the parent re-runs a unit whose worker raised, and
    the live exception escapes, as in a serial sweep."""

    def factory(seed):
        class Raising(RandomScoreDetector):
            def score_series(self, series):
                raise ValueError("broken detector")

        return Raising(seed=seed)

    with pytest.raises(ValueError, match="broken detector"):
        run_scores_on_archive("broken", factory, archive, workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_nan_scores_fail_at_the_score_stage(archive, workers):
    """The sweep rejects non-finite scores before evaluation, so a
    NaN-scoring unit is a score-stage failure, not an evaluation with a
    substituted score, whatever the worker count."""

    class NaNScores(RandomScoreDetector):
        def score_series(self, series):
            scores = super().score_series(series)
            scores[len(scores) // 2] = np.nan
            return scores

    result = run_scores_on_archive(
        "nan",
        lambda seed: NaNScores(seed=seed),
        archive,
        seeds=(0,),
        workers=workers,
        policy=RetryPolicy(max_retries=0),
    )
    assert result.coverage == 0.0
    assert not result.per_run
    failures = sorted((f.dataset, f.stage, f.error_type) for f in result.failures)
    assert failures == sorted((d.name, "score", "InvalidOutputError") for d in archive)
