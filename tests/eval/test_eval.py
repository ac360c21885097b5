"""Evaluation harness tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import make_archive
from repro.eval import (
    EXPERIMENTS,
    METRIC_NAMES,
    bench_archive,
    bench_config,
    evaluate_predictions,
    render_table,
    run_on_archive,
)


class OracleDetector:
    """Test double: knows the labels, predicts them exactly."""

    def __init__(self, archive):
        self._labels = {len(ds.test) + i: ds for i, ds in enumerate(archive)}
        self._archive = archive
        self._index = 0

    def fit(self, train_series):
        return self

    def predict(self, test_series):
        # Match by content: find the dataset whose test equals the input.
        for ds in self._archive:
            if len(ds.test) == len(test_series) and np.allclose(ds.test, test_series):
                return ds.labels.copy()
        raise AssertionError("unknown test series")


class TestEvaluatePredictions:
    def test_metric_names_complete(self, small_dataset):
        metrics = evaluate_predictions(small_dataset.labels, small_dataset.labels)
        assert set(metrics) == set(METRIC_NAMES)

    def test_perfect_prediction(self, small_dataset):
        metrics = evaluate_predictions(small_dataset.labels, small_dataset.labels)
        assert metrics["f1_pw"] == pytest.approx(1.0)
        assert metrics["pak_f1_auc"] == pytest.approx(1.0)
        assert metrics["affiliation_f1"] > 0.99

    def test_all_zero_prediction(self, small_dataset):
        pred = np.zeros_like(small_dataset.labels)
        metrics = evaluate_predictions(pred, small_dataset.labels)
        assert metrics["f1_pw"] == 0.0
        assert metrics["affiliation_recall"] == 0.0


class TestRunOnArchive:
    @pytest.fixture(scope="class")
    def archive(self):
        return make_archive(size=3, seed=1, train_length=400, test_length=500)

    def test_oracle_scores_perfect(self, archive):
        agg = run_on_archive("oracle", lambda s: OracleDetector(archive), archive)
        assert agg.mean["f1_pw"] == pytest.approx(1.0)
        assert agg.std["f1_pw"] == pytest.approx(0.0)
        assert len(agg.per_run) == 3

    def test_multiple_seeds_tracked(self, archive):
        agg = run_on_archive(
            "oracle", lambda s: OracleDetector(archive), archive, seeds=(0, 1)
        )
        assert len(agg.per_run) == 6
        assert {r.seed for r in agg.per_run} == {0, 1}

    def test_row_formatting(self, archive):
        agg = run_on_archive("oracle", lambda s: OracleDetector(archive), archive)
        row = agg.row()
        assert row[0] == "oracle"
        assert all("±" in cell for cell in row[1:])

    def test_on_detection_hook_called(self, archive):
        calls = []
        run_on_archive(
            "oracle",
            lambda s: OracleDetector(archive),
            archive,
            on_detection=lambda ds, seed, det, pred: calls.append(ds.name),
        )
        assert len(calls) == 3


class TestTables:
    def test_render_alignment(self):
        table = render_table(["a", "bbb"], [["x", "1"], ["yyyy", "22"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_cells_stringified(self):
        table = render_table(["n"], [[42]])
        assert "42" in table


class TestExperimentRegistry:
    def test_all_paper_artifacts_covered(self):
        artifacts = {e.paper_artifact for e in EXPERIMENTS.values()}
        for required in ["Table II", "Table III", "Table IV", "Fig. 6", "Fig. 7",
                         "Fig. 8", "Fig. 9", "Figs. 10-13", "Fig. 15"]:
            assert any(required in a for a in artifacts), required

    def test_bench_modules_exist(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        for experiment in EXPERIMENTS.values():
            assert (root / experiment.bench_module).exists(), experiment.bench_module

    def test_bench_archive_settings(self):
        archive = bench_archive(size=2)
        assert len(archive) == 2
        assert len(archive[0].train) == 1600

    def test_bench_config_overrides(self):
        config = bench_config(alpha=0.5)
        assert config.alpha == 0.5
        assert config.epochs == 5
