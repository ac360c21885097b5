"""Persistence round-trips across every domain subset, and nn modules.

``save_detector``/``load_detector`` must reproduce the fitted state for
any ``TriADConfig.domains`` choice — each subset persists a different
set of encoders — and ``Module.state_dict``/``load_state_dict`` over an
``np.savez`` file must round-trip modules whose parameter names contain
dots (submodule paths), as ``save_detector`` relies on.  Files
written before a config field was retired must still load.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np
import pytest

from repro import TriAD, TriADConfig, nn
from repro.core import load_detector, save_detector
from repro.core.config import DOMAINS
from repro.nn import Tensor

ALL_SUBSETS = [
    subset
    for size in range(1, len(DOMAINS) + 1)
    for subset in combinations(DOMAINS, size)
]


@pytest.fixture(scope="module")
def train_series():
    rng = np.random.default_rng(12345)
    t = np.arange(1600)
    return np.sin(2 * np.pi * t / 40) + 0.05 * rng.standard_normal(len(t))


class TestDomainSubsetRoundTrips:
    @pytest.mark.parametrize("domains", ALL_SUBSETS, ids=lambda d: "+".join(d))
    def test_roundtrip_preserves_representations(self, domains, train_series, tmp_path):
        config = TriADConfig(
            depth=2, hidden_dim=8, epochs=1, seed=3, max_window=96, domains=domains
        )
        fitted = TriAD(config).fit(train_series)
        path = tmp_path / "triad.npz"
        save_detector(fitted, path)
        restored = load_detector(path)

        assert restored.config == fitted.config
        assert restored.config.domains == tuple(domains)
        assert restored.plan == fitted.plan

        windows = np.random.default_rng(0).normal(size=(3, fitted.plan.length))
        original = fitted.representations(windows)
        reloaded = restored.representations(windows)
        assert set(original) == set(reloaded) == set(domains)
        for domain in original:
            assert np.allclose(original[domain], reloaded[domain], atol=1e-12)


def _with_config_keys(path, **extra):
    """Rewrite a saved detector's config as if written with ``extra`` fields."""
    with np.load(path) as archive:
        payload = {key: archive[key] for key in archive.files}
    meta = json.loads(payload["__triad_meta__"].tobytes().decode("utf-8"))
    meta["config"].update(extra)
    payload["__triad_meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **payload)


class TestRetiredConfigKeys:
    @pytest.fixture(scope="class")
    def fitted(self, train_series):
        config = TriADConfig(depth=2, hidden_dim=8, epochs=1, seed=3, max_window=96)
        return TriAD(config).fit(train_series)

    def test_file_with_retired_keys_loads(self, fitted, tmp_path):
        path = tmp_path / "old.npz"
        save_detector(fitted, path)
        # The key set older versions wrote: two fields since retired.
        _with_config_keys(path, discord_mode="auto", data_parallel_workers=0)
        restored = load_detector(path)
        assert restored.config == fitted.config
        series = fitted._train_series
        assert restored.detect(series).window == fitted.detect(series).window

    def test_other_unknown_key_still_raises(self, fitted, tmp_path):
        path = tmp_path / "future.npz"
        save_detector(fitted, path)
        _with_config_keys(path, discord_mode="auto", not_a_field=1)
        with pytest.raises(TypeError, match="not_a_field"):
            load_detector(path)


def save_module(module, path):
    np.savez(path, **module.state_dict())


def load_module(module, path):
    with np.load(path) as archive:
        module.load_state_dict(dict(archive))


class TestModuleRoundTrips:
    def test_lstm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        original = nn.LSTM(3, 5, num_layers=2, rng=rng)
        path = tmp_path / "lstm.npz"
        save_module(original, path)

        other = nn.LSTM(3, 5, num_layers=2, rng=np.random.default_rng(99))
        x = Tensor(rng.normal(size=(2, 6, 3)))
        before, _ = other(x)
        load_module(other, path)
        after, _ = other(x)
        expected, _ = original(x)

        assert not np.allclose(before.data, expected.data)
        assert np.allclose(after.data, expected.data, atol=1e-12)
        # Dotted submodule names survive the npz round-trip verbatim.
        assert set(other.state_dict()) == set(original.state_dict())
        assert any("." in name for name in original.state_dict())

    def test_attention_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        original = nn.MultiHeadSelfAttention(8, num_heads=2, rng=rng)
        path = tmp_path / "attention.npz"
        save_module(original, path)

        other = nn.MultiHeadSelfAttention(8, num_heads=2, rng=np.random.default_rng(99))
        x = Tensor(rng.normal(size=(2, 5, 8)))
        load_module(other, path)
        ours, our_weights = other(x)
        theirs, their_weights = original(x)
        assert np.allclose(ours.data, theirs.data, atol=1e-12)
        assert np.allclose(our_weights.data, their_weights.data, atol=1e-12)

    def test_shape_mismatch_rejected(self, tmp_path):
        original = nn.LSTM(3, 5, rng=np.random.default_rng(0))
        path = tmp_path / "lstm.npz"
        save_module(original, path)
        wrong = nn.LSTM(3, 6, rng=np.random.default_rng(0))
        with pytest.raises((ValueError, KeyError)):
            load_module(wrong, path)
