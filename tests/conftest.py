"""Shared fixtures for the test suite."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.data import Dataset, DatasetSpec, make_dataset


@pytest.fixture
def hang_alarm():
    """Fail a test that blocks for 30 s by SIGALRM instead of stalling
    the suite (for code paths whose failure mode is a hang)."""

    def expire(signum, frame):
        raise TimeoutError("test still blocked after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@contextmanager
def encoder_dtype(dtype):
    """Build TriAD encoders in ``dtype`` inside the block by patching
    ``repro.core.encoder.ENCODER_DTYPE`` (production encoders are
    float32; float64 is the oracle)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.encoder.ENCODER_DTYPE", dtype)
        yield


@pytest.fixture
def float64_encoder():
    """Run this test's TriAD encoders on the float64 oracle."""
    with encoder_dtype(np.float64):
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def sine_wave() -> np.ndarray:
    """A clean periodic signal with period 50."""
    t = np.arange(1000)
    return np.sin(2 * np.pi * t / 50)


@pytest.fixture
def noisy_wave(rng: np.random.Generator) -> np.ndarray:
    """Periodic signal with period 40 plus mild noise."""
    t = np.arange(1600)
    return np.sin(2 * np.pi * t / 40) + 0.05 * rng.standard_normal(len(t))


@pytest.fixture
def small_dataset() -> Dataset:
    """A small synthetic dataset for fast end-to-end tests."""
    spec = DatasetSpec(
        name="test_ds",
        family="ecg",
        period=40,
        train_length=1000,
        test_length=1200,
        anomaly_type="contextual",
        anomaly_start=600,
        anomaly_length=60,
        noise_level=0.04,
        seed=11,
    )
    return make_dataset(spec)


@pytest.fixture
def spike_dataset() -> Dataset:
    """An 'easy' dataset whose anomaly is an amplitude spike."""
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
