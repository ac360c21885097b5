"""End-to-end tests: replay harness, failover drill, and the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import SpectralResidualWindowScorer
from repro.data import make_archive
from repro.serve import (
    DiscordWindowScorer,
    EngineConfig,
    FailAfter,
    ModelRegistry,
    ScoringEngine,
    build_registry,
    replay_dataset,
)


class BackupSpectralResidual(SpectralResidualWindowScorer):
    """Spectral residual under a second name, so it can follow itself."""

    name = "spectral-residual-backup"


@pytest.fixture(scope="module")
def unit():
    """Archive unit 4 (005_sine_seasonal): clean separation for both the
    TriAD primary and the spectral-residual fallback."""
    return make_archive(size=5, seed=7, train_length=1600, test_length=2000)[4]


class TestTrainingFreeReplay:
    def test_detects_the_labelled_anomaly(self, unit):
        from repro.signal.windows import plan_windows

        plan = plan_windows(unit.train, max_length=256)
        registry = build_registry(train_series=unit.train)
        engine = ScoringEngine(
            registry,
            EngineConfig(window_length=plan.length, stride=plan.stride, max_batch=32),
        )
        report = replay_dataset(unit, engine, streams=2)

        assert report.points == 2 * len(unit.test)
        assert report.throughput_pps > 0
        assert report.anomaly_interval == unit.anomaly_interval
        assert report.detected, "replay missed the labelled anomaly"
        assert report.engine_report["shed"] == 0
        # Only the healthy primary was needed.
        assert report.engine_report["fallback_batches"] == 0

    def test_report_serializes_and_renders(self, unit):
        from repro.signal.windows import plan_windows

        plan = plan_windows(unit.train, max_length=256)
        registry = build_registry(train_series=unit.train)
        engine = ScoringEngine(
            registry, EngineConfig(window_length=plan.length, stride=plan.stride)
        )
        report = replay_dataset(unit, engine, streams=1)
        json.dumps(report.as_dict())
        rendered = report.render()
        assert "replayed" in rendered
        assert "anomaly" in rendered
        assert "queue wait" in rendered

    def test_streams_must_be_positive(self, unit):
        registry = build_registry(train_series=unit.train)
        engine = ScoringEngine(registry, EngineConfig(window_length=64, stride=16))
        with pytest.raises(ValueError):
            replay_dataset(unit, engine, streams=0)


class TestFailoverDrill:
    def test_forced_failure_degrades_without_dropping_streams(self, unit):
        from repro.signal.windows import plan_windows

        plan = plan_windows(unit.train, max_length=256)
        # Mirror the trained chain shape (primary -> healthy SR -> discord)
        # without paying for a TriAD fit: the fallback that takes over must
        # be one that separates this unit's anomaly.
        registry = ModelRegistry()
        registry.register(
            FailAfter(SpectralResidualWindowScorer(calibration_series=unit.train), 2),
            max_failures=1,
        )
        registry.register(BackupSpectralResidual(calibration_series=unit.train))
        registry.register(DiscordWindowScorer(calibration_series=unit.train))
        engine = ScoringEngine(
            registry,
            EngineConfig(window_length=plan.length, stride=plan.stride, max_batch=16),
        )
        report = replay_dataset(unit, engine, streams=4)

        chain = report.engine_report["chain"]
        assert chain[0]["tripped"], "forced failure did not trip the primary"
        assert report.engine_report["fallback_batches"] > 0
        # No stream dropped: every emitted window was scored (none lost
        # to the failure) and all four streams produced alerts/windows.
        expected_windows = 4 * (1 + (len(unit.test) - plan.length) // plan.stride)
        assert report.engine_report["windows_scored"] == expected_windows
        # The fallback still catches the anomaly thanks to the seeded
        # calibration baselines.
        assert report.detected

    def test_fail_after_delegates_until_the_injected_failure(self, unit):
        inner = SpectralResidualWindowScorer(calibration_series=unit.train)
        wrapped = FailAfter(inner, healthy_calls=2)
        windows = np.random.default_rng(0).normal(size=(3, 64))
        wrapped.score_windows(windows, [])
        wrapped.score_windows(windows, [])
        with pytest.raises(RuntimeError, match="injected failure"):
            wrapped.score_windows(windows, [])
        # Calibration passes through to the wrapped scorer.
        assert np.array_equal(
            wrapped.calibration_scores(64, 16), inner.calibration_scores(64, 16)
        )


@pytest.fixture(scope="module")
def triad(unit):
    from repro import TriAD, TriADConfig

    return TriAD(
        TriADConfig(depth=2, hidden_dim=8, epochs=1, seed=1, max_window=256)
    ).fit(unit.train)


def triad_engine(detector, unit, **config):
    # The deliberately tiny encoder separates this unit at ~4.4 sigma
    # (vs ~2.6 for the worst normal window), so alert at 3 sigma.
    return ScoringEngine(
        build_registry(detector, train_series=unit.train),
        EngineConfig(
            window_length=detector.plan.length,
            stride=detector.plan.stride,
            alert_sigma=3.0,
            **config,
        ),
    )


class TestTriADReplay:
    def test_trained_primary_detects(self, unit, triad):
        report = replay_dataset(unit, triad_engine(triad, unit), streams=2)
        assert report.engine_report["models_used"] == ["triad-encoder"]
        assert report.detected

    def test_alerts_do_not_depend_on_batch_boundaries(self, unit, triad):
        """The flush rule may cut a feed into batches of any size; a
        window's score, and so every alert, must not depend on its batch."""
        alerts, batches = {}, {}
        for max_batch in (64, 1):
            engine = triad_engine(triad, unit, max_batch=max_batch)
            report = replay_dataset(unit, engine, streams=2)
            assert report.engine_report["models_used"] == ["triad-encoder"]
            batches[max_batch] = engine.stats.batches
            alerts[max_batch] = [
                (a.stream_id, a.index, a.score, a.threshold, a.model)
                for a in report.alerts
            ]
        assert batches[64] < batches[1], "the max_batch=64 feed never batched"
        assert alerts[1] == alerts[64]
        assert alerts[64], "no alert to compare"


class TestServeReplayCLI:
    def test_training_free_run_writes_json_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            [
                "serve-replay",
                "--dataset", "4",
                "--epochs", "0",
                "--streams", "2",
                "--json", str(out),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["detected"] is True
        assert report["points"] == 2 * 2000
        assert metrics.exists() and metrics.stat().st_size > 0
        stdout = capsys.readouterr().out
        assert "DETECTED" in stdout

    def test_latency_budget_never_demotes_the_primary(self, tmp_path):
        """A budget every batch overruns shrinks the engine's batch limit;
        it must not trip the primary off the chain."""
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(
            [
                "serve-replay",
                "--dataset", "4",
                "--epochs", "0",
                "--streams", "4",
                "--latency-budget-ms", "0.05",
                "--json", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        engine = report["engine"]
        assert not engine["chain"][0]["tripped"]
        assert engine["models_used"] == ["spectral-residual"]
        assert engine["batch_limit"] < 64
        assert report["detected"] is True
