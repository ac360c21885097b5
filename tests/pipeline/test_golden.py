"""Refactor-guard goldens.

``tests/golden/pipeline_golden.json`` was captured at the pre-pipeline
commit by running detect / run_on_archive / serve replay on the spike
dataset.  These tests re-run the identical procedure on the current
code: the memoized pipeline must not move a single prediction, loss,
metric, or alert.  Regenerate the file only for a *deliberate*
behavior change (re-run the capture block in its docstring).

The file pins float64 outputs, so this module runs TriAD's encoder on
the float64 oracle; ``tests/core/test_float32.py`` bounds the float32
encoder against it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import TriAD, TriADConfig
from repro.eval import run_on_archive
from repro.serve import build_engine, build_registry, replay_dataset

from ..conftest import encoder_dtype

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "pipeline_golden.json"


@pytest.fixture(scope="module", autouse=True)
def float64_encoder_module():
    with encoder_dtype(np.float64):
        yield


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def config(golden) -> TriADConfig:
    return TriADConfig(**golden["config"])


@pytest.fixture(scope="module")
def fitted(spike_dataset_module, config) -> TriAD:
    return TriAD(config).fit(spike_dataset_module.train)


@pytest.fixture(scope="module")
def spike_dataset_module():
    from repro.data import DatasetSpec, make_dataset

    spec = DatasetSpec(
        name="spike_ds",
        family="sine",
        period=32,
        train_length=800,
        test_length=1000,
        anomaly_type="point",
        anomaly_start=500,
        anomaly_length=5,
        noise_level=0.03,
        seed=5,
    )
    return make_dataset(spec)


def test_detect_matches_golden(fitted, spike_dataset_module, golden):
    detection = fitted.detect(spike_dataset_module.test)
    want = golden["detect"]
    assert np.flatnonzero(detection.predictions).tolist() == want[
        "prediction_indices"
    ]
    assert list(detection.window) == want["window"]
    assert list(detection.search_region) == want["search_region"]
    assert {
        k: list(v) for k, v in sorted(detection.candidate_windows.items())
    } == want["candidate_windows"]
    np.testing.assert_allclose(
        fitted.train_losses, want["train_losses"], rtol=0, atol=1e-9
    )


def test_archive_sweep_matches_golden(spike_dataset_module, config, golden):
    agg = run_on_archive(
        "triad",
        lambda s: TriAD(config.with_overrides(seed=s)),
        [spike_dataset_module],
        seeds=(0, 1),
    )
    want = golden["run_on_archive"]
    assert agg.coverage == want["coverage"]
    for metric, value in want["mean"].items():
        assert agg.mean[metric] == pytest.approx(value, abs=1e-9), metric
    for metric, value in want["std"].items():
        assert agg.std[metric] == pytest.approx(value, abs=1e-9), metric


def test_serve_replay_matches_golden(fitted, spike_dataset_module, golden):
    registry = build_registry(fitted, train_series=spike_dataset_module.train)
    engine = build_engine(
        registry,
        window_length=fitted.plan.length,
        stride=fitted.plan.stride,
        expected_period=fitted.plan.period,
    )
    report = replay_dataset(spike_dataset_module, engine, streams=2)
    want = golden["serve_replay"]
    assert report.detected is want["detected"]
    assert len(report.alerts) == want["alerts"]
    assert sorted(report.engine_report.get("models_used", [])) == want[
        "models_used"
    ]
    assert report.engine_report.get("windows_scored") == want["windows_scored"]
    assert [
        [a.stream_id, a.index, a.model] for a in report.alerts[:16]
    ] == [list(key) for key in want["alert_keys"]]
    np.testing.assert_allclose(
        [a.score for a in report.alerts[:16]],
        want["alert_scores"],
        rtol=0,
        atol=1e-9,
    )
