"""Frequency-domain feature sets (paper Table I).

The paper converts each time series window to the frequency domain with
the discrete Fourier transform (Definition 2, Eq. 2) and hand-crafts
three features per harmonic: spectral amplitude, spectral phase, and
spectral power.  These become the 3-channel input of TriAD's frequency
encoder.  Table I prints the phase as ``arctan(Re/Im)``; we use the
four-quadrant ``arctan2(Im, Re)``, which is what the released TriAD code
computes and what keeps the phase continuous in all quadrants.
"""

from __future__ import annotations

import numpy as np

__all__ = ["frequency_features"]


def frequency_features(x: np.ndarray) -> np.ndarray:
    """Stack Table I features into the frequency encoder's 3-channel input.

    Parameters
    ----------
    x:
        Window of shape ``(length,)`` or batch of shape ``(batch, length)``.

    Returns
    -------
    Array of shape ``(3, length)`` or ``(batch, 3, length)`` with channels
    ``[amplitude, phase, power]``.  Amplitude and power are log-compressed
    (``log1p``) so a handful of dominant harmonics do not swamp the
    encoder, then each channel is z-normalized per window.
    """
    x = np.asarray(x, dtype=np.float64)
    batched = x.ndim == 2
    if not batched:
        x = x[None, :]
    # Z-normalize each window first (as the temporal channel does), so
    # the frequency view is invariant to affine amplitude transforms and
    # one encoder serves datasets of arbitrary scale.
    mean_in = x.mean(axis=-1, keepdims=True)
    std_in = x.std(axis=-1, keepdims=True)
    x = (x - mean_in) / np.maximum(std_in, 1e-8)
    spectrum = np.fft.fft(x, axis=-1)
    magnitude = np.abs(spectrum)
    amplitude = np.log1p(magnitude)
    # Phase is undefined (and numerically unstable) for near-zero bins;
    # zero it there so floating-point dust cannot flip its sign.
    negligible = magnitude < 1e-9 * magnitude.max(axis=-1, keepdims=True)
    phase = np.where(negligible, 0.0, np.arctan2(spectrum.imag, spectrum.real))
    power = np.log1p(magnitude**2)
    features = np.stack([amplitude, phase, power], axis=1)
    mean = features.mean(axis=-1, keepdims=True)
    std = features.std(axis=-1, keepdims=True)
    features = (features - mean) / np.maximum(std, 1e-8)
    return features if batched else features[0]
