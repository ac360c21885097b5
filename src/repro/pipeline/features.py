"""Tri-domain feature extraction (paper Sec. III-B).

Each window yields three views:

- *temporal*: the z-normalized raw window, 1 channel;
- *frequency*: Table I's spectral amplitude/phase/power, 3 channels;
- *residual*: the window with its periodic structure removed, 1 channel.

This module is the one home of the extraction primitives: the
pipeline layer owns windowing *and* featurization without importing
upward into ``core``.  The
residual path runs through the batched, bit-identical
:func:`repro.signal.decompose.residual_components`, which amortizes the
per-window decomposition loop — the hot ~90% of extraction.
"""

from __future__ import annotations

import numpy as np

from ..signal.decompose import residual_components
from ..signal.fft import frequency_features
from ..signal.normalize import zscore

__all__ = ["DOMAINS", "domain_channels", "extract_domain", "extract_all_domains"]

DOMAINS = ("temporal", "frequency", "residual")


def domain_channels(domain: str) -> int:
    """Input-channel count per domain (1/3/1 as in the paper)."""
    if domain == "frequency":
        return 3
    if domain in DOMAINS:
        return 1
    raise KeyError(f"unknown domain {domain!r}")


def extract_domain(windows: np.ndarray, domain: str, period: int) -> np.ndarray:
    """Extract one domain's features from a batch of windows.

    Parameters
    ----------
    windows:
        Array of shape ``(batch, length)``.
    domain:
        One of ``temporal``, ``frequency``, ``residual``.
    period:
        Dataset period (used by the residual decomposition).

    Returns
    -------
    Array of shape ``(batch, channels, length)``.
    """
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    if domain == "temporal":
        return zscore(windows, axis=-1)[:, None, :]
    if domain == "frequency":
        return frequency_features(windows)
    if domain == "residual":
        return residual_components(windows, period)[:, None, :]
    raise KeyError(f"unknown domain {domain!r}")


def extract_all_domains(
    windows: np.ndarray, period: int, domains: tuple[str, ...] = DOMAINS
) -> dict[str, np.ndarray]:
    """Extract every requested domain for a batch of windows.

    Every domain is row-independent: extracting a window set in one call
    and slicing per batch is bit-identical to extracting each batch
    separately — the property :class:`repro.pipeline.FeaturePipeline`
    relies on to memoize per window set.
    """
    return {domain: extract_domain(windows, domain, period) for domain in domains}
