"""Label-free threshold calibration strategies.

Detectors output continuous scores; turning them into binary
predictions needs a threshold chosen *without* test labels.  Three
standard strategies:

- mean + k·std of (training) scores, the default the baselines use, is
  :func:`repro.pipeline.scores.calibrate_threshold`;
- :func:`quantile_threshold` — an upper quantile of the scores;
- :func:`pot_threshold` — Peaks-Over-Threshold via a generalized Pareto
  fit to the score tail (the SPOT approach of Siffer et al., KDD 2017,
  used by OmniAnomaly and much of the TSAD literature): extrapolates to
  a target exceedance probability far beyond the observed quantiles.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantile_threshold", "pot_threshold", "fit_gpd_moments"]


def quantile_threshold(scores: np.ndarray, quantile: float = 0.99) -> float:
    """The given upper quantile of the scores."""
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    return float(np.quantile(np.asarray(scores, dtype=np.float64), quantile))


def fit_gpd_moments(excesses: np.ndarray) -> tuple[float, float]:
    """Method-of-moments fit of a generalized Pareto distribution.

    Returns ``(shape, scale)`` (xi, beta).  For excess mean m and
    variance v:  xi = 0.5 * (1 - m^2 / v),  beta = 0.5 * m * (1 + m^2/v).
    Falls back to an exponential fit (xi = 0) when the variance is
    degenerate.
    """
    excesses = np.asarray(excesses, dtype=np.float64)
    if excesses.size < 2:
        raise ValueError("need at least 2 excesses to fit a GPD")
    mean = float(excesses.mean())
    var = float(excesses.var())
    if var < 1e-12 or mean <= 0:
        return 0.0, max(mean, 1e-12)
    ratio = mean * mean / var
    shape = 0.5 * (1.0 - ratio)
    scale = 0.5 * mean * (1.0 + ratio)
    return shape, max(scale, 1e-12)


def pot_threshold(
    scores: np.ndarray,
    risk: float = 1e-3,
    initial_quantile: float = 0.98,
) -> float:
    """Peaks-Over-Threshold extreme-value threshold.

    Parameters
    ----------
    scores:
        Calibration scores (e.g. from the anomaly-free training split).
    risk:
        Target exceedance probability ``q``: the returned threshold is
        the level a score exceeds with probability ``risk`` under the
        fitted tail model.
    initial_quantile:
        Where the tail starts; excesses over this empirical quantile are
        fed to the GPD fit.

    Returns the extrapolated threshold ``z_q``; when too few excesses
    exist for a fit, falls back to the initial quantile itself.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size < 10:
        raise ValueError("need at least 10 calibration scores")
    if not 0.0 < risk < 1.0:
        raise ValueError("risk must be in (0, 1)")
    t = float(np.quantile(scores, initial_quantile))
    excesses = scores[scores > t] - t
    n = scores.size
    if excesses.size < 2:
        return t
    shape, scale = fit_gpd_moments(excesses)
    tail_fraction = excesses.size / n
    if abs(shape) < 1e-9:
        # Exponential tail.
        return t + scale * float(np.log(tail_fraction / risk))
    return t + (scale / shape) * float((risk / tail_fraction) ** (-shape) - 1.0)
