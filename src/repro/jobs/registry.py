"""Detector registry for job payloads.

A job names its detector as a string so the spec is JSON-serializable
and a *different process* can rebuild and re-fit the exact model when
resuming.  Builders return a fitted
:class:`repro.pipeline.contracts.WindowScorer` plus the window plan the
job should score under — the same contract the serving registry hosts,
so TriAD, every baseline, and custom scorers are all submittable.

``register_job_detector`` is the extension point: tests and downstream
code can plug custom builders (the kill-resume drills register a
deliberately slow scorer this way).

Heavy imports (``core``, ``baselines``) happen inside the builders, so
importing :mod:`repro.jobs` stays cheap.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..pipeline.contracts import WindowScorer

__all__ = [
    "BuiltScorer",
    "register_job_detector",
    "job_detectors",
    "build_scorer",
    "resolve_plan",
    "BatchedSpectralResidualScorer",
    "BatchedDiscordScorer",
]

#: A builder returns (fitted scorer, window_length, stride).
BuiltScorer = tuple[WindowScorer, int, int]

_Builder = Callable[[np.ndarray, dict], BuiltScorer]
_Plan = Callable[[np.ndarray, dict], tuple[int, int]]
_REGISTRY: dict[str, _Builder] = {}
_PLANS: dict[str, _Plan] = {}


def register_job_detector(
    name: str, builder: _Builder, plan: _Plan | None = None
) -> None:
    """Register (or replace) a job detector builder.

    ``builder(train_series, params)`` must return ``(scorer,
    window_length, stride)`` with the scorer already fitted.  ``plan``
    optionally predicts ``(window_length, stride)`` *without* fitting —
    the manager calls it at submit time to pin the chunk plan cheaply;
    it must agree with what the builder later returns (the run-time
    drift check enforces this).  Omitted, the default TriAD-config plan
    (:func:`repro.pipeline.feature_pipeline.default_pipeline`) is used,
    which matches every built-in builder.
    """
    _REGISTRY[name] = builder
    if plan is not None:
        _PLANS[name] = plan
    else:
        _PLANS.pop(name, None)


def resolve_plan(name: str, train_series: np.ndarray, params: dict) -> tuple[int, int]:
    """Predict the (window_length, stride) a builder will score under.

    Unknown names fall back to the default plan so ``submit`` stays
    cheap and total — a bad detector name fails the *run*, attributed on
    the job record, not the submission.
    """
    planner = _PLANS.get(name)
    if planner is not None:
        return planner(np.asarray(train_series, dtype=np.float64), dict(params))
    plan = _plan(np.asarray(train_series, dtype=np.float64), dict(params))
    return plan.length, plan.stride


def job_detectors() -> tuple[str, ...]:
    """Names submittable as ``JobSpec.detector``, sorted."""
    return tuple(sorted(_REGISTRY))


def build_scorer(name: str, train_series: np.ndarray, params: dict) -> BuiltScorer:
    """Build the job detector registered as ``name`` on ``train_series``."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown job detector {name!r}; known: {', '.join(job_detectors())}"
        )
    return _REGISTRY[name](np.asarray(train_series, dtype=np.float64), dict(params))


def _plan(train_series: np.ndarray, params: dict):
    """Window plan from the TriAD config fields, like the CLI/serve do."""
    from ..core.config import TriADConfig
    from ..pipeline.feature_pipeline import default_pipeline

    config = TriADConfig(
        epochs=int(params.get("epochs", 0)) or 1,
        seed=int(params.get("seed", 0)),
        max_window=int(params.get("max_window", 256)),
    )
    return default_pipeline().plan_for(train_series, config)


# ----------------------------------------------------------------------
# Built-in builders
# ----------------------------------------------------------------------
def _build_triad(train_series: np.ndarray, params: dict) -> BuiltScorer:
    from ..core import TriAD, TriADConfig
    from ..pipeline.adapters import from_triad

    config = TriADConfig(
        epochs=int(params.get("epochs", 3)),
        seed=int(params.get("seed", 0)),
        max_window=int(params.get("max_window", 256)),
    )
    detector = TriAD(config).fit(train_series)
    plan = detector.plan
    return from_triad(detector), plan.length, plan.stride


def _baseline_builder(attr: str, **defaults) -> _Builder:
    def build(train_series: np.ndarray, params: dict) -> BuiltScorer:
        from .. import baselines
        from ..pipeline.adapters import from_baseline

        kwargs = dict(defaults)
        for key in ("epochs", "seed"):
            if key in params and key in kwargs:
                kwargs[key] = params[key]
        detector = getattr(baselines, attr)(**kwargs).fit(train_series)
        plan = _plan(train_series, params)
        return from_baseline(detector), plan.length, plan.stride

    return build


class BatchedSpectralResidualScorer(WindowScorer):
    """Spectral-residual window scoring, vectorized over the batch axis.

    Same per-window math as
    :func:`repro.baselines.spectral_residual.spectral_residual_saliency`
    applied to the z-normed window, but computed for a whole ``(batch,
    length)`` chunk in single array operations — FFT, log-amplitude
    smoothing, inverse FFT, and local-baseline normalization all batch
    along ``axis=-1``.  A window's score is its peak normalized
    saliency (the statistic :class:`~repro.pipeline.adapters.
    BaselineWindowScorer` extracts one window at a time).

    Every operation is row-independent, so scoring windows in chunks of
    any size is bit-identical to scoring them all at once — the
    property the chunked executor's stitching guarantee rests on
    (``tests/jobs/test_manager.py::test_job_result_equals_single_batched_pass``).
    """

    name = "spectral-residual-batched"

    def __init__(self, average_window: int = 3, baseline_window: int = 21) -> None:
        self.average_window = int(average_window)
        self.baseline_window = int(baseline_window)

    @staticmethod
    def _moving_average(values: np.ndarray, width: int) -> np.ndarray:
        """Edge-padded centered moving average along the last axis —
        the batched form of the reference's pad + convolve, computed in
        O(n) via cumulative sums instead of the O(n * width) per-window
        reduction.  Row-independent, so the result does not depend on
        how rows are batched into chunks."""
        left = (width - 1) // 2
        right = width - 1 - left
        padded = np.pad(
            values, [(0, 0)] * (values.ndim - 1) + [(left, right)], mode="edge"
        )
        sums = np.cumsum(padded, axis=-1)
        sums = np.concatenate(
            [np.zeros(sums.shape[:-1] + (1,), dtype=sums.dtype), sums], axis=-1
        )
        return (sums[..., width:] - sums[..., :-width]) / width

    def saliency(self, windows: np.ndarray) -> np.ndarray:
        """Normalized saliency per point, for a (batch, length) array."""
        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        mean = windows.mean(axis=-1, keepdims=True)
        std = windows.std(axis=-1, keepdims=True)
        z = (windows - mean) / np.maximum(std, 1e-12)
        spectrum = np.fft.fft(z, axis=-1)
        amplitude = np.maximum(np.abs(spectrum), 1e-12)
        log_amplitude = np.log(amplitude)
        averaged = self._moving_average(log_amplitude, self.average_window)
        # exp(log|S| - avg + i*angle(S)) == S * exp(-avg): same residual
        # spectrum without the (slow) complex exp and angle
        saliency = np.abs(np.fft.ifft(spectrum * np.exp(-averaged), axis=-1))
        baseline = self._moving_average(saliency, self.baseline_window)
        return (saliency - baseline) / np.maximum(baseline, 1e-12)

    def score_windows(self, windows: np.ndarray, batch: Sequence) -> np.ndarray:
        return self.saliency(windows).max(axis=-1)


class BatchedDiscordScorer(WindowScorer):
    """Discord-distance window scoring through the shared kernel layer.

    The bulk-inference counterpart of the serving registry's
    ``streaming-discord`` degradation-chain scorer: each window's score
    is the largest left nearest-neighbor distance among its z-normalized
    subsequences (:func:`repro.discord.streaming.left_matrix_profile`,
    which runs on the batched kernels under the active discord mode).
    Windows are scored independently, so chunked execution stitches
    bit-identically — the executor contract every job scorer must meet.
    """

    name = "streaming-discord-batched"

    def __init__(self, subsequence_length: int = 16) -> None:
        if subsequence_length < 2:
            raise ValueError("subsequence_length must be >= 2")
        self.subsequence_length = int(subsequence_length)

    def score_windows(self, windows: np.ndarray, batch: Sequence) -> np.ndarray:
        from ..discord.streaming import left_matrix_profile

        windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
        # A left-NN needs one fully-past subsequence, so the effective
        # length is capped at half the window.
        length = max(min(self.subsequence_length, windows.shape[1] // 2), 2)
        scores = np.zeros(len(windows))
        for i, window in enumerate(windows):
            profile = left_matrix_profile(window, length)
            finite = profile[np.isfinite(profile)]
            if finite.size:
                scores[i] = float(finite.max())
        return scores


def _build_streaming_discord(train_series: np.ndarray, params: dict) -> BuiltScorer:
    scorer = BatchedDiscordScorer(
        subsequence_length=int(params.get("subsequence_length", 16))
    )
    plan = _plan(train_series, params)
    return scorer, plan.length, plan.stride


def _build_batched_sr(train_series: np.ndarray, params: dict) -> BuiltScorer:
    scorer = BatchedSpectralResidualScorer(
        average_window=int(params.get("average_window", 3)),
        baseline_window=int(params.get("baseline_window", 21)),
    )
    plan = _plan(train_series, params)
    return scorer, plan.length, plan.stride


register_job_detector("triad", _build_triad)
register_job_detector("spectral-residual", _build_batched_sr)
register_job_detector("streaming-discord", _build_streaming_discord)
register_job_detector("lstm-ae", _baseline_builder("LSTMAEDetector", trained=True, epochs=4, seed=0))
register_job_detector("usad", _baseline_builder("USADDetector", epochs=4, seed=0))
register_job_detector("deepant", _baseline_builder("DeepAnTDetector", epochs=4, seed=0))
register_job_detector("donut", _baseline_builder("DonutDetector", epochs=4, seed=0))
register_job_detector("random", _baseline_builder("RandomScoreDetector", seed=0))
register_job_detector("changepoint", _baseline_builder("ChangePointDetector"))
