"""Detector registry for job payloads.

A job names its detector as a string so the spec is JSON-serializable
and a *different process* can rebuild and re-fit the exact model when
resuming.  Builders return a fitted
:class:`repro.pipeline.contracts.WindowScorer` plus the window plan the
job should score under — the same contract the serving registry hosts,
so TriAD, every baseline, and custom scorers are all submittable.  A
name means one scorer everywhere: ``spectral-residual`` builds the
:class:`~repro.baselines.spectral_residual.SpectralResidualWindowScorer`
the serving degradation chain registers, which is also what ``repro
serve-shard`` builds once in the parent and forks to its workers.

``register_job_detector`` is the extension point: tests and downstream
code can plug custom builders (the kill-resume drills register a
deliberately slow scorer this way).

Heavy imports (``core``, ``baselines``) happen inside the builders, so
importing :mod:`repro.jobs` stays cheap.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..pipeline.contracts import WindowScorer

__all__ = [
    "BuiltScorer",
    "register_job_detector",
    "job_detectors",
    "build_scorer",
    "resolve_plan",
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


def _build_spectral_residual(train_series: np.ndarray, params: dict) -> BuiltScorer:
    from ..baselines.spectral_residual import SpectralResidualWindowScorer

    scorer = SpectralResidualWindowScorer(calibration_series=train_series)
    plan = _plan(train_series, params)
    return scorer, plan.length, plan.stride


register_job_detector("triad", _build_triad)
register_job_detector("spectral-residual", _build_spectral_residual)
register_job_detector("lstm-ae", _baseline_builder("LSTMAEDetector", trained=True, epochs=4, seed=0))
register_job_detector("usad", _baseline_builder("USADDetector", epochs=4, seed=0))
register_job_detector("random", _baseline_builder("RandomScoreDetector", seed=0))
