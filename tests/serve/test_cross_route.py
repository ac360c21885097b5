"""One scorer name, one score on every route.

``spectral-residual`` is reachable two ways: the serving degradation
chain (``build_registry``) and the job registry (``build_scorer``).
Shard workers serve whatever scorer object the parent built and forked,
so the fabric adds no third construction; its exactness is pinned by
the shard drills (``tests/serve/test_shard.py``,
``tests/serve/test_shard_chaos.py``).  A stream that changes route must
keep its scores and its seeded alert baseline bit for bit, and the
whole-series baseline detector must be one row of the same saliency
function.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines import SpectralResidualDetector
from repro.baselines.spectral_residual import spectral_residual_saliency
from repro.jobs.registry import build_scorer
from repro.serve import build_registry

SETTINGS = dict(max_examples=40, deadline=None)
PARAMS = {"max_window": 64, "seed": 0}

window_batches = st.integers(min_value=16, max_value=160).flatmap(
    lambda length: hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(min_value=1, max_value=8), st.just(length)),
        elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
)


@pytest.fixture(scope="module")
def train():
    t = np.arange(800)
    return np.sin(2 * np.pi * t / 32) + 0.05 * np.random.default_rng(3).standard_normal(800)


@pytest.fixture(scope="module")
def routes(train):
    """The ``spectral-residual`` scorer as each route builds it."""
    serve = build_registry(train_series=train).entries[0].scorer
    job, _, _ = build_scorer("spectral-residual", train, dict(PARAMS))
    return {"serve": serve, "job": job}


@given(windows=window_batches)
@example(windows=np.random.default_rng(0).standard_normal((5, 120)))  # white noise
@settings(**SETTINGS)
def test_every_route_scores_windows_identically(routes, windows):
    want = routes["serve"].score_windows(windows, ())
    assert np.array_equal(routes["job"].score_windows(windows, ()), want)


@pytest.mark.parametrize("length, stride", [(32, 8), (64, 16)])
def test_every_route_seeds_the_same_alert_baseline(routes, length, stride):
    want = routes["serve"].calibration_scores(length, stride)
    assert want is not None
    assert np.array_equal(routes["job"].calibration_scores(length, stride), want)


@given(
    series=hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_value=24, max_value=400),
        elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
)
@settings(**SETTINGS)
def test_baseline_detector_is_one_row_of_the_saliency(series):
    got = SpectralResidualDetector().score_series(series)
    assert np.array_equal(got, spectral_residual_saliency(series[None])[0])
