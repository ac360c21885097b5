"""The one way to window, featurize, and score a series.

:class:`FeaturePipeline` composes ``plan_windows`` → ``sliding_windows``
→ ``extract_all_domains`` behind a content-keyed memo cache
(:class:`repro.pipeline.cache.FeatureCache`):

- the trainer extracts per-domain features *once per window set*
  instead of once per batch per epoch;
- archive sweeps across seeds reuse one extraction per dataset (the
  window content is seed-independent);
- the serving registry windows calibration data through the same cache
  the trainer populated, instead of re-deriving it from private
  detector state.

Memoized results are returned **read-only** (``writeable=False``); the
usual consumers either only read them (encoder forwards) or slice
batches out of them (fancy indexing copies).  Mutating consumers must
copy first — by design, so a cache hit can never be corrupted.

A process-wide :func:`default_pipeline` is shared by ``TriAD`` and the
serve builders so independent components actually hit each other's
entries; pass an explicit pipeline for isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..signal.windows import WindowPlan, plan_windows, sliding_windows
from .cache import FeatureCache, content_key
from .features import DOMAINS, extract_all_domains

__all__ = ["FeaturePipeline", "WindowFeatures", "default_pipeline"]


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class WindowFeatures:
    """One series' windows, their offsets, and per-domain features."""

    windows: np.ndarray
    starts: np.ndarray
    features: dict[str, np.ndarray]
    plan: WindowPlan


class FeaturePipeline:
    """Memoized window→feature pipeline over a :class:`FeatureCache`.

    ``memoize=False`` disables lookups/stores while keeping the exact
    same code path — the knob the cache-correctness tests flip to prove
    cached and uncached outputs are bit-identical
    (``tests/pipeline/test_feature_pipeline.py``).
    """

    def __init__(
        self, cache: FeatureCache | None = None, memoize: bool = True
    ) -> None:
        self.cache = cache if cache is not None else FeatureCache()
        self.memoize = memoize

    # ------------------------------------------------------------------
    # Memo plumbing
    # ------------------------------------------------------------------
    def _memo(self, key_parts: tuple, compute):
        if not self.memoize:
            return compute()
        key = content_key(*key_parts)
        value = self.cache.get(key)
        if value is not None:
            obs.incr("pipeline.cache.hits")
            return value
        obs.incr("pipeline.cache.misses")
        value = compute()
        self.cache.put(key, value)
        return value

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def plan(
        self,
        train_series: np.ndarray,
        periods_per_window: float = 2.5,
        stride_fraction: float = 0.25,
        min_length: int = 16,
        max_length: int | None = None,
    ) -> WindowPlan:
        """Memoized :func:`repro.signal.windows.plan_windows` (the period
        estimate is the expensive part)."""
        return self._memo(
            (
                "plan",
                train_series,
                periods_per_window,
                stride_fraction,
                min_length,
                max_length,
            ),
            lambda: plan_windows(
                train_series,
                periods_per_window=periods_per_window,
                stride_fraction=stride_fraction,
                min_length=min_length,
                max_length=max_length,
            ),
        )

    def plan_for(self, train_series: np.ndarray, config) -> WindowPlan:
        """Plan windows from any config exposing the TriAD plan fields
        (``periods_per_window``/``stride_fraction``/``min_window``/
        ``max_window``) — the CLI and serve builders route here instead
        of hardcoding plan constants."""
        return self.plan(
            train_series,
            periods_per_window=config.periods_per_window,
            stride_fraction=config.stride_fraction,
            min_length=config.min_window,
            max_length=config.max_window,
        )

    def windows(
        self, series: np.ndarray, length: int, stride: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Memoized :func:`repro.signal.windows.sliding_windows`."""

        def compute():
            windows, starts = sliding_windows(series, length, stride)
            return _freeze(windows), _freeze(starts)

        return self._memo(("windows", series, length, stride), compute)

    def features(
        self,
        windows: np.ndarray,
        period: int,
        domains: tuple[str, ...] = DOMAINS,
    ) -> dict[str, np.ndarray]:
        """Memoized per-domain features for one window set.

        Extraction is row-independent, so slicing a batch out of the
        result is bit-identical to extracting that batch directly — the
        trainer's per-epoch loop depends on this.
        """
        return self._memo(
            ("features", windows, period, tuple(domains)),
            lambda: {
                domain: _freeze(array)
                for domain, array in extract_all_domains(
                    windows, period, tuple(domains)
                ).items()
            },
        )

    def extract(
        self,
        windows: np.ndarray,
        period: int,
        domains: tuple[str, ...] = DOMAINS,
    ) -> dict[str, np.ndarray]:
        """Uncached batched extraction for epoch-varying content (e.g.
        freshly augmented windows, live serve batches) — same math, no
        memo traffic, no cache pollution."""
        return extract_all_domains(windows, period, tuple(domains))

    def series_features(
        self,
        series: np.ndarray,
        plan: WindowPlan,
        domains: tuple[str, ...] = DOMAINS,
    ) -> WindowFeatures:
        """Windows + offsets + features for ``series`` under ``plan``."""
        windows, starts = self.windows(series, plan.length, plan.stride)
        features = self.features(windows, plan.period, domains)
        return WindowFeatures(
            windows=windows, starts=starts, features=features, plan=plan
        )


_DEFAULT = FeaturePipeline()


def default_pipeline() -> FeaturePipeline:
    """The process-wide shared pipeline (one cache for all layers)."""
    return _DEFAULT
