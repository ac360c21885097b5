"""Signal-processing substrate: FFT features, Butterworth filtering,
period estimation, decomposition, normalization, and windowing."""

from .butterworth import (
    butter_lowpass,
    butterworth_smooth,
    filtfilt,
    lfilter,
)
from .decompose import Decomposition, decompose, moving_average, residual_component
from .fft import frequency_features
from .normalize import robust_zscore, zscore
from .period import acf_period, autocorrelation, estimate_period, fft_period
from .windows import WindowPlan, plan_windows, sliding_windows

__all__ = [
    "butter_lowpass",
    "butterworth_smooth",
    "filtfilt",
    "lfilter",
    "Decomposition",
    "decompose",
    "moving_average",
    "residual_component",
    "frequency_features",
    "robust_zscore",
    "zscore",
    "acf_period",
    "autocorrelation",
    "estimate_period",
    "fft_period",
    "WindowPlan",
    "plan_windows",
    "sliding_windows",
]
