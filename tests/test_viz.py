"""Tests for the terminal visualization helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.viz import detection_report, mark_intervals, sparkline


class TestSparkline:
    def test_length_capped(self, rng):
        assert len(sparkline(rng.normal(size=500), width=40)) == 40

    def test_short_input_uncompressed(self, rng):
        assert len(sparkline(rng.normal(size=7), width=40)) == 7

    def test_monotone_input_monotone_levels(self):
        line = sparkline(np.arange(8.0), width=8)
        assert line == "▁▂▃▄▅▆▇█"

    def test_constant_input(self):
        line = sparkline(np.ones(10))
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline(np.array([])) == ""


class TestMarkIntervals:
    def test_marks_and_clipping(self):
        line = mark_intervals(10, [(2, 4), (8, 15)])
        assert line == "  ^^    ^^"

    def test_empty_intervals(self):
        assert mark_intervals(5, []) == "     "


class TestDetectionReport:
    @pytest.fixture(scope="class")
    def detection(self):
        from repro import TriAD, TriADConfig
        from repro.data import make_archive

        ds = make_archive(size=1, seed=3, train_length=900, test_length=1100)[0]
        detector = TriAD(TriADConfig(depth=1, hidden_dim=4, epochs=1, max_window=96))
        detector.fit(ds.train)
        return detector.detect(ds.test), ds

    def test_report_contains_sections(self, detection):
        det, ds = detection
        report = detection_report(det, ds.labels)
        assert "flagged window" in report
        assert "per-domain window similarity" in report
        assert "ground truth" in report
        for domain in det.similarity:
            assert domain in report

    def test_report_without_labels(self, detection):
        det, _ = detection
        report = detection_report(det)
        assert "ground truth" not in report
        assert "predictions" in report
