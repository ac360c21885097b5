"""TriAD configuration and tri-domain feature tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TriADConfig
from repro.pipeline import domain_channels, extract_all_domains, extract_domain


class TestConfig:
    def test_paper_defaults(self):
        cfg = TriADConfig()
        assert cfg.depth == 6
        assert cfg.hidden_dim == 32
        assert cfg.alpha == 0.4
        assert cfg.batch_size == 8
        assert cfg.learning_rate == pytest.approx(1e-3)
        assert cfg.epochs == 20
        assert cfg.validation_fraction == pytest.approx(0.1)
        assert cfg.periods_per_window == pytest.approx(2.5)
        assert cfg.stride_fraction == pytest.approx(0.25)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ValueError):
            TriADConfig(alpha=alpha)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError):
            TriADConfig(domains=("temporal", "spectral"))

    def test_empty_domains_rejected(self):
        with pytest.raises(ValueError):
            TriADConfig(domains=())

    def test_both_losses_disabled_rejected(self):
        with pytest.raises(ValueError):
            TriADConfig(use_intra=False, use_inter=False)

    def test_with_overrides(self):
        cfg = TriADConfig().with_overrides(alpha=0.6, depth=4)
        assert cfg.alpha == 0.6 and cfg.depth == 4
        assert TriADConfig().alpha == 0.4  # original untouched


class TestFeatures:
    def test_channel_counts(self):
        assert domain_channels("temporal") == 1
        assert domain_channels("frequency") == 3
        assert domain_channels("residual") == 1
        with pytest.raises(KeyError):
            domain_channels("bogus")

    def test_temporal_shape_and_normalization(self, rng):
        windows = rng.normal(size=(4, 100)) * 5 + 2
        features = extract_domain(windows, "temporal", 20)
        assert features.shape == (4, 1, 100)
        assert np.allclose(features.mean(axis=-1), 0.0, atol=1e-10)

    def test_frequency_shape(self, rng):
        features = extract_domain(rng.normal(size=(4, 100)), "frequency", 20)
        assert features.shape == (4, 3, 100)

    def test_residual_shape(self, rng):
        features = extract_domain(rng.normal(size=(4, 100)), "residual", 20)
        assert features.shape == (4, 1, 100)

    def test_single_window_promoted(self, rng):
        features = extract_domain(rng.normal(size=80), "temporal", 20)
        assert features.shape == (1, 1, 80)

    def test_extract_all_domains(self, rng):
        windows = rng.normal(size=(2, 60))
        features = extract_all_domains(windows, 15)
        assert set(features) == {"temporal", "frequency", "residual"}
        assert features["frequency"].shape == (2, 3, 60)

    def test_subset_of_domains(self, rng):
        features = extract_all_domains(rng.normal(size=(2, 60)), 15, ("temporal",))
        assert set(features) == {"temporal"}

    def test_unknown_domain_raises(self, rng):
        with pytest.raises(KeyError):
            extract_domain(rng.normal(size=(2, 60)), "spectral", 15)

    def test_residual_highlights_shift(self, sine_wave):
        windows = np.stack([sine_wave[:200], sine_wave[200:400]])
        shifted = windows.copy()
        shifted[1, 100:130] += 3.0
        normal = extract_domain(windows, "residual", 50)
        anomalous = extract_domain(shifted, "residual", 50)
        assert not np.allclose(normal[1], anomalous[1], atol=0.1)
