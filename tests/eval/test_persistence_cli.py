"""Tests for result persistence and the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.eval import (
    AggregateScores,
    DatasetScores,
    load_results,
    per_type_breakdown,
    save_results,
)


def make_aggregate() -> AggregateScores:
    runs = [
        DatasetScores("001_sine_noise", 0, {"pak_f1_auc": 0.5, "f1_pw": 0.2}),
        DatasetScores("002_ecg_noise", 0, {"pak_f1_auc": 0.3, "f1_pw": 0.1}),
        DatasetScores("003_am_level_shift", 0, {"pak_f1_auc": 0.9, "f1_pw": 0.7}),
    ]
    return AggregateScores(
        detector="demo",
        mean={"pak_f1_auc": 0.57, "f1_pw": 0.33},
        std={"pak_f1_auc": 0.0, "f1_pw": 0.0},
        per_run=runs,
    )


class TestResultPersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "results.json"
        save_results([make_aggregate()], path)
        loaded = load_results(path)
        assert len(loaded) == 1
        assert loaded[0].detector == "demo"
        assert loaded[0].mean["pak_f1_auc"] == pytest.approx(0.57)
        assert loaded[0].per_run[2].dataset == "003_am_level_shift"

    def test_json_is_valid_and_sorted(self, tmp_path):
        path = tmp_path / "results.json"
        save_results([make_aggregate()], path)
        payload = json.loads(path.read_text())
        assert payload[0]["detector"] == "demo"


class TestPerTypeBreakdown:
    def test_groups_by_suffix(self):
        breakdown = per_type_breakdown(make_aggregate())
        assert breakdown["noise"] == pytest.approx(0.4)
        assert breakdown["level_shift"] == pytest.approx(0.9)

    def test_unknown_bucket(self):
        agg = make_aggregate()
        agg.per_run.append(DatasetScores("mystery", 0, {"pak_f1_auc": 0.1}))
        assert "unknown" in per_type_breakdown(agg)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["archive", "--size", "3"])
        assert args.command == "archive" and args.size == 3
        args = parser.parse_args(["detect", "--dataset", "1"])
        assert args.command == "detect"

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "bench_fig9_ablation" in out

    def test_archive_command(self, capsys):
        assert main(["archive", "--size", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "001_" in out and "Length distribution" in out

    def test_archive_writes_ucr_files(self, tmp_path, capsys):
        assert main(["archive", "--size", "2", "--out", str(tmp_path / "ucr")]) == 0
        files = sorted((tmp_path / "ucr").glob("*.txt"))
        assert len(files) == 2
        # The written files must be loadable by the real-UCR loader.
        from repro.data import load_ucr_file

        dataset = load_ucr_file(files[0])
        assert dataset.labels.sum() > 0

    def test_detect_command_on_written_file(self, tmp_path, capsys):
        main(["archive", "--size", "1", "--out", str(tmp_path / "ucr")])
        capsys.readouterr()
        path = next((tmp_path / "ucr").glob("*.txt"))
        assert main(["detect", "--dataset", str(path), "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "PA%K F1-AUC" in out

    def test_detect_saves_detector(self, tmp_path, capsys):
        save_path = tmp_path / "model.npz"
        assert (
            main(["detect", "--dataset", "0", "--epochs", "1", "--save", str(save_path)])
            == 0
        )
        assert save_path.exists()
        from repro.core import load_detector

        detector = load_detector(save_path)
        assert detector.plan.length > 0

    def test_compare_command_with_json(self, tmp_path, capsys):
        json_path = tmp_path / "board.json"
        code = main(
            [
                "compare",
                "--size",
                "2",
                "--epochs",
                "1",
                "--detectors",
                "one-liner,spectral-residual",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "one-liner" in out
        loaded = load_results(json_path)
        assert {a.detector for a in loaded} == {"one-liner", "spectral-residual"}

    def test_compare_unknown_detector(self, capsys):
        assert main(["compare", "--detectors", "hal9000"]) == 2
        err = capsys.readouterr().err
        assert "known: one-liner," in err and err.rstrip().endswith("triad")

    @pytest.mark.parametrize("detectors, mode", [
        ("one-liner,nope", "binary"),
        ("one-liner,triad", "scores"),
    ])
    def test_compare_rejects_names_before_any_fit(self, monkeypatch, capsys,
                                                  detectors, mode):
        import repro.eval

        def fail(*args, **kwargs):
            raise AssertionError("a detector ran before every name was checked")

        monkeypatch.setattr(repro.eval, "run_on_archive", fail)
        monkeypatch.setattr(repro.eval, "run_scores_on_archive", fail)
        assert main(["compare", "--detectors", detectors, "--mode", mode]) == 2
        assert capsys.readouterr().out == ""


class TestCliReportAndTune:
    def test_report_from_fixture_dir(self, tmp_path, capsys):
        (tmp_path / "table2_pa_inflation.txt").write_text("Table II body")
        assert main(["report", "--results", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table II body" in out

    def test_report_to_file(self, tmp_path, capsys):
        (tmp_path / "fig6_length_dist.txt").write_text("Fig 6 body")
        out_path = tmp_path / "report.md"
        assert main(["report", "--results", str(tmp_path), "--out", str(out_path)]) == 0
        assert "Fig 6 body" in out_path.read_text()

    def test_report_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path / "nope")]) == 2


class TestCliScoresMode:
    def test_scores_leaderboard(self, capsys):
        assert main(["compare", "--size", "2", "--epochs", "1",
                     "--mode", "scores",
                     "--detectors", "one-liner,random"]) == 0
        out = capsys.readouterr().out
        assert "roc_auc" in out
        assert "one-liner" in out

    def test_triad_rejected_in_scores_mode(self, capsys):
        assert main(["compare", "--mode", "scores", "--detectors", "triad"]) == 2
