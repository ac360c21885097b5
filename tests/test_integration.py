"""Cross-module integration tests: the full paper pipeline end-to-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TriAD, TriADConfig
from repro.core import load_detector, save_detector
from repro.data import DatasetSpec, make_dataset
from repro.discord import merlin
from repro.eval import evaluate_predictions
from repro.metrics import window_hits_event


@pytest.fixture(scope="module")
def pipeline_run():
    """Train TriAD once and detect once; several tests inspect the result."""
    spec = DatasetSpec(
        name="integration",
        family="harmonics",
        period=48,
        train_length=1400,
        test_length=1600,
        anomaly_type="noise",
        anomaly_start=800,
        anomaly_length=70,
        noise_level=0.05,
        seed=33,
    )
    dataset = make_dataset(spec)
    config = TriADConfig(depth=3, hidden_dim=16, epochs=4, seed=1, max_window=160)
    detector = TriAD(config).fit(dataset.train)
    detection = detector.detect(dataset.test)
    return dataset, detector, detection


class TestFullPipeline:
    def test_window_localizes_anomaly(self, pipeline_run):
        dataset, _, detection = pipeline_run
        assert window_hits_event(detection.window, dataset.anomaly_interval)

    def test_metrics_beat_trivial_floor(self, pipeline_run):
        dataset, _, detection = pipeline_run
        metrics = evaluate_predictions(detection.predictions, dataset.labels)
        assert metrics["pak_f1_auc"] > 0.1
        assert metrics["affiliation_f1"] > 0.6

    def test_search_region_is_fraction_of_series(self, pipeline_run):
        dataset, _, detection = pipeline_run
        lo, hi = detection.search_region
        assert (hi - lo) < 0.5 * len(dataset.test)

    def test_discords_concentrate_in_region(self, pipeline_run):
        dataset, _, detection = pipeline_run
        lo, hi = detection.search_region
        for discord in detection.discords.discords:
            assert 0 <= discord.index <= (hi - lo)

    def test_votes_consistent_with_predictions(self, pipeline_run):
        _, _, detection = pipeline_run
        votes = detection.votes
        if not votes.exception_applied:
            assert np.array_equal(
                detection.predictions.astype(bool) | (votes.votes > votes.threshold),
                votes.votes > votes.threshold,
            ) or detection.predictions.any()


class TestMerlinOnRawSeries:
    def test_direct_merlin_also_finds_anomaly(self, pipeline_run):
        """Sanity link: discord discovery alone locates the same region."""
        dataset, detector, _ = pipeline_run
        result = merlin(dataset.test, 24, 72, step=24)
        start, end = dataset.anomaly_interval
        hits = sum(
            1
            for d in result.discords
            if d.index + d.length > start - 100 and d.index < end + 100
        )
        assert hits >= 2


class TestSerializationRoundtrip:
    def test_encoder_persists(self, pipeline_run, tmp_path):
        """The dotted parameter names of the encoder survive the ``.npz``
        round trip production uses."""
        dataset, detector, detection = pipeline_run
        path = tmp_path / "detector.npz"
        save_detector(detector, path)
        clone = load_detector(path)
        windows = np.random.default_rng(0).normal(size=(3, detector.plan.length))
        a = detector.representations(windows)
        b = clone.representations(windows)
        assert a.keys() == b.keys()
        for domain in a:
            assert np.allclose(a[domain], b[domain], atol=1e-10)
