"""The float32 encoder against its float64 oracle.

TriAD's encoder computes in ``repro.core.encoder.ENCODER_DTYPE``
(float32).  These tests pin that contract from both sides:

- *dtype closure*: during a fit every autograd node output, parameter,
  gradient and Adam moment is float32 — a float64 anywhere means a
  silent NEP 50 upcast (a float64 0-d array or mask promotes a float32
  graph) that would quietly undo the speedup — while everything TriAD
  hands back (scores, similarities, votes) is float64;
- *oracle distance*: the same fit on the float64 oracle (the constant
  patched to float64 by ``encoder_dtype``) is at most :data:`LOSS_TOLERANCE` away in
  every epoch loss, and the float32 encoder leaves the golden pipeline's
  discrete outputs where the float64 golden file has them;
- *persistence*: files saved with float64 parameters (every file written
  before the encoder went float32) load into float32, and float32 files
  round-trip bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import TriAD, TriADConfig, nn
from repro.core import load_detector, save_detector, train_encoder
from repro.core.encoder import ENCODER_DTYPE
from repro.data import DatasetSpec, make_dataset
from repro.nn.tensor import Tensor
from repro.pipeline import FeaturePipeline, from_triad
from repro.serve import build_engine, build_registry, replay_dataset

from ..conftest import encoder_dtype

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "pipeline_golden.json"

#: Largest gap allowed between a float32 and a float64 epoch loss of the
#: same fit.  Measured: 5.0e-7 on the golden config (2 epochs) and
#: 4.3e-8 on the noisy wave (6 epochs); float32 rounding is ~6e-8 at
#: these loss values, and drift compounds with every Adam step.
LOSS_TOLERANCE = 1e-5

#: Relative gap allowed between float32 and float64 serve alert scores
#: on the golden replay (measured: 1.9e-4 on scores of ~0.7-1.2).
SCORE_RTOL = 1e-3


@pytest.fixture
def small_config():
    return TriADConfig(depth=2, hidden_dim=8, epochs=2, seed=0, max_window=96)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def spike():
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


def test_production_encoder_is_float32():
    assert ENCODER_DTYPE is np.float32


class TestDtypeClosure:
    def test_fit_graph_and_state_are_float32(
        self, noisy_wave, small_config, monkeypatch
    ):
        """The feature cache stays float64, as extracted: the trainer's
        per-batch slice-and-concatenate casts to float32 in the copy it
        makes anyway, so the first conv already sees float32."""
        node_dtypes: set[np.dtype] = set()
        make = Tensor._make

        def recording_make(data, parents, backward):
            out = make(data, parents, backward)
            node_dtypes.add(out.data.dtype)
            return out

        state_dtypes: set[np.dtype] = set()
        step = nn.Adam.step

        def recording_step(self):
            for param in self.parameters:
                state_dtypes.update((param.data.dtype, param.grad.dtype))
            step(self)
            state_dtypes.update(m.dtype for m in self._m)
            state_dtypes.update(v.dtype for v in self._v)

        monkeypatch.setattr(Tensor, "_make", staticmethod(recording_make))
        monkeypatch.setattr(nn.Adam, "step", recording_step)
        pipeline = FeaturePipeline()
        detector = TriAD(small_config, pipeline=pipeline).fit(noisy_wave)

        assert node_dtypes == {np.dtype(np.float32)}
        assert state_dtypes == {np.dtype(np.float32)}
        assert {p.data.dtype for p in detector.encoder.parameters()} == {
            np.dtype(np.float32)
        }
        cached = [
            array
            for entry in pipeline.cache._entries.values()
            if isinstance(entry, dict)
            for array in entry.values()
        ]
        assert len(cached) == len(small_config.domains)
        assert {array.dtype for array in cached} == {np.dtype(np.float64)}

    def test_scores_and_detection_are_float64(self, noisy_wave, small_config):
        detector = TriAD(small_config).fit(noisy_wave)
        windows, _ = detector.train_windows()
        scorer = from_triad(detector)
        assert scorer.score_windows(windows[:5], ()).dtype == np.float64
        assert scorer.calibration_scores(0, 0).dtype == np.float64
        reps = detector.representations(windows[:5])
        assert {r.dtype for r in reps.values()} == {np.dtype(np.float64)}

        detection = detector.detect(noisy_wave)
        assert {s.dtype for s in detection.similarity.values()} == {
            np.dtype(np.float64)
        }
        assert detection.votes.votes.dtype == np.float64


class TestFloat64Oracle:
    @pytest.mark.parametrize("case", ["golden", "noisy_wave"])
    def test_train_losses_track_float64(self, case, noisy_wave, spike, golden):
        if case == "golden":
            series, config = spike.train, TriADConfig(**golden["config"])
        else:
            series = noisy_wave
            config = TriADConfig(depth=2, hidden_dim=8, epochs=6, seed=1, max_window=128)
        fit32 = train_encoder(series, config)
        with encoder_dtype(np.float64):
            fit64 = train_encoder(series, config)
        assert (fit32.encoder.dtype, fit64.encoder.dtype) == (np.float32, np.float64)
        assert len(fit32.train_losses) == len(fit64.train_losses) == config.epochs
        gap = np.abs(np.subtract(fit32.train_losses, fit64.train_losses))
        assert gap.max() <= LOSS_TOLERANCE
        assert np.all(np.isfinite(fit32.val_losses))

    def test_golden_outputs_hold_in_float32(self, spike, golden):
        """The float64 golden file's discrete outputs, from the float32
        encoder; its losses within LOSS_TOLERANCE and its serve alert
        scores within SCORE_RTOL."""
        fitted = TriAD(TriADConfig(**golden["config"])).fit(spike.train)
        detection = fitted.detect(spike.test)
        want = golden["detect"]
        assert np.flatnonzero(detection.predictions).tolist() == want[
            "prediction_indices"
        ]
        assert list(detection.window) == want["window"]
        assert {
            k: list(v) for k, v in sorted(detection.candidate_windows.items())
        } == want["candidate_windows"]
        np.testing.assert_allclose(
            fitted.train_losses, want["train_losses"], rtol=0, atol=LOSS_TOLERANCE
        )

        registry = build_registry(fitted, train_series=spike.train)
        engine = build_engine(
            registry,
            window_length=fitted.plan.length,
            stride=fitted.plan.stride,
            expected_period=fitted.plan.period,
        )
        report = replay_dataset(spike, engine, streams=2)
        want = golden["serve_replay"]
        assert report.detected is want["detected"]
        assert len(report.alerts) == want["alerts"]
        assert [
            [a.stream_id, a.index, a.model] for a in report.alerts[:16]
        ] == [list(key) for key in want["alert_keys"]]
        np.testing.assert_allclose(
            [a.score for a in report.alerts[:16]],
            want["alert_scores"],
            rtol=SCORE_RTOL,
        )


class TestPersistence:
    def test_float64_file_loads_as_float32(self, noisy_wave, small_config, tmp_path):
        """A file with float64 parameters (the format saved before the
        encoder went float32) loads into float32 parameters and detects
        exactly like the same model cast to float32 in memory."""
        with encoder_dtype(np.float64):
            fitted = TriAD(small_config).fit(noisy_wave)
        path = tmp_path / "float64.npz"
        save_detector(fitted, path)
        with np.load(path) as archive:
            assert archive["dense1.weight"].dtype == np.float64

        loaded = load_detector(path)
        assert {p.data.dtype for p in loaded.encoder.parameters()} == {
            np.dtype(np.float32)
        }
        encoder = fitted.encoder
        for param in encoder.parameters():
            param.data = param.data.astype(np.float32)
        encoder.dtype = np.dtype(np.float32)

        want = fitted.detect(noisy_wave)
        got = loaded.detect(noisy_wave)
        assert got.window == want.window
        assert np.array_equal(got.predictions, want.predictions)
        for domain in want.similarity:
            assert np.array_equal(got.similarity[domain], want.similarity[domain])

    def test_float32_round_trip_is_bit_exact(self, noisy_wave, small_config, tmp_path):
        fitted = TriAD(small_config).fit(noisy_wave)
        path = tmp_path / "float32.npz"
        save_detector(fitted, path)
        loaded = load_detector(path)
        for (name, want), (_, got) in zip(
            fitted.encoder.named_parameters(), loaded.encoder.named_parameters()
        ):
            assert got.data.dtype == np.float32, name
            assert np.array_equal(got.data, want.data), name
        windows, _ = fitted.train_windows()
        want_reps = fitted.representations(windows)
        got_reps = loaded.representations(windows)
        for domain in want_reps:
            assert np.array_equal(got_reps[domain], want_reps[domain])
