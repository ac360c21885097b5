"""Butterworth low-pass filter, implemented from first principles.

The paper's *warping* augmentation (Eq. 4) passes a window through a
Butterworth filter to obtain a smooth curve that emphasizes the primary
frequencies.  We implement the full chain ourselves — analog prototype
poles, bilinear transform, direct-form-II-transposed filtering, and
zero-phase forward-backward filtering — and validate it against
``scipy.signal`` in the test suite.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "butter_lowpass",
    "lfilter",
    "filtfilt",
    "butterworth_smooth",
]


def butter_lowpass(order: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Design a digital Butterworth low-pass filter.

    Parameters
    ----------
    order:
        Filter order (number of analog prototype poles).
    cutoff:
        Normalized cutoff in ``(0, 1)`` where 1 is the Nyquist frequency,
        matching :func:`scipy.signal.butter` conventions.

    Returns
    -------
    ``(b, a)`` transfer-function coefficients with ``a[0] == 1``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must lie strictly between 0 and 1 (Nyquist)")

    # Analog Butterworth prototype: poles evenly spaced on the unit
    # circle's left half-plane.
    prototype_poles = [
        cmath.exp(1j * math.pi * (2.0 * k + order + 1.0) / (2.0 * order))
        for k in range(order)
    ]

    # Pre-warp the digital cutoff so the bilinear transform lands it at
    # the requested frequency (sampling period normalized to 2).
    warped = 2.0 * math.tan(math.pi * cutoff / 2.0)
    poles = [warped * p for p in prototype_poles]
    gain = warped**order

    # Bilinear transform: s = 2 (z-1)/(z+1).
    fs2 = 2.0
    z_poles = [(fs2 + p) / (fs2 - p) for p in poles]
    z_zeros = [-1.0] * order  # low-pass zeros all map to Nyquist
    gain *= (1.0 / np.prod([fs2 - p for p in poles])).real

    b = gain * np.poly(z_zeros)
    a = np.poly(z_poles)
    return np.real(b), np.real(a)


def lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray | None = None):
    """IIR filter in direct form II transposed.

    Mirrors :func:`scipy.signal.lfilter` for 1-D input.  Returns the
    filtered signal, and the final filter state when ``zi`` is given.

    The per-sample recursion runs on Python floats: indexing numpy
    scalars costs ~3.5x more per step, and both are the same IEEE double
    operations in the same order, so the result is bit for bit the same.
    """
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a[0] != 1.0:
        b = b / a[0]
        a = a / a[0]
    n = max(len(a), len(b))
    b = np.pad(b, (0, n - len(b))).tolist()
    a = np.pad(a, (0, n - len(a))).tolist()
    state = [0.0] * (n - 1) if zi is None else np.array(zi, dtype=np.float64).tolist()
    b0 = b[0]
    if n == 1:
        y = [b0 * value for value in x.tolist()]
    else:
        y = []
        for value in x.tolist():
            out = b0 * value + state[0]
            for j in range(n - 2):
                state[j] = b[j + 1] * value + state[j + 1] - a[j + 1] * out
            state[n - 2] = b[n - 1] * value - a[n - 1] * out
            y.append(out)
    y = np.array(y, dtype=np.float64)
    if zi is None:
        return y
    return y, np.array(state, dtype=np.float64)


def _initial_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Steady-state filter state for a unit step (lfilter_zi equivalent)."""
    n = max(len(a), len(b))
    b = np.pad(np.asarray(b, dtype=np.float64), (0, n - len(b)))
    a = np.pad(np.asarray(a, dtype=np.float64), (0, n - len(a)))
    if n == 1:
        return np.zeros(0)
    # Solve (I - A) zi = B where A is the state-transition companion matrix.
    companion = np.zeros((n - 1, n - 1))
    companion[:, 0] = -a[1:]
    companion[:-1, 1:] = np.eye(n - 2)
    rhs = b[1:] - a[1:] * b[0]
    return np.linalg.solve(np.eye(n - 1) - companion, rhs)


def filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-phase filtering: forward pass, then backward pass.

    Uses odd-reflection edge padding (as scipy does) so transients decay
    in the padding rather than the signal.
    """
    x = np.asarray(x, dtype=np.float64)
    n = max(len(a), len(b))
    pad = 3 * (n - 1)
    if len(x) <= pad:
        raise ValueError(f"input length {len(x)} too short for filtfilt pad {pad}")

    front = 2.0 * x[0] - x[pad:0:-1]
    back = 2.0 * x[-1] - x[-2 : -pad - 2 : -1]
    extended = np.concatenate([front, x, back])

    zi = _initial_state(b, a)
    forward, _ = lfilter(b, a, extended, zi=zi * extended[0])
    reversed_forward = forward[::-1]
    backward, _ = lfilter(b, a, reversed_forward, zi=zi * reversed_forward[0])
    result = backward[::-1]
    return result[pad : pad + len(x)]


def butterworth_smooth(x: np.ndarray, cutoff: float, order: int = 3) -> np.ndarray:
    """Zero-phase Butterworth low-pass of ``x`` — the paper's warp curve."""
    b, a = butter_lowpass(order, cutoff)
    return filtfilt(b, a, x)
