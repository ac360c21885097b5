"""Measurement helpers shared by the workloads.

- :func:`summary` and :func:`percentile` turn samples into reported
  numbers (median with quartiles and sample count, as ``run.py`` prints
  them and ``compare.py`` reads them).
- :class:`Ledger` is the per-layer record of a traced run.  It reads the
  counters, histograms and spans that :mod:`repro.obs` already emits,
  adds spans the benchmark records around its own calls into each layer
  (``bench.*``), and turns on the ``obs.instrument_nn()`` hooks.  Nothing
  in ``src/`` is changed to produce it.
"""

from __future__ import annotations

import contextlib
import resource
import statistics

from repro import nn, obs
from repro.nn import hooks
from repro.pipeline import FeaturePipeline

__all__ = [
    "Ledger",
    "TracedPipeline",
    "peak_rss_mb",
    "percentile",
    "summary",
]


def summary(samples, scale: float = 1.0) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    values = sorted(float(v) * scale for v in samples)
    if not values:
        raise ValueError("no samples to summarize")
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(samples, q: float, scale: float = 1.0) -> float:
    """Nearest-rank ``q``-quantile; 0 for no samples."""
    values = sorted(float(v) * scale for v in samples)
    if not values:
        return 0.0
    return values[min(int(q * len(values)), len(values) - 1)]


def peak_rss_mb() -> float:
    """Peak resident memory of the largest process: this one or a child.

    Not their sum: a forked worker's resident set includes the pages it
    shares with its parent, so the sum counts them twice, and how many
    there are depends on the parent's heap at fork time.  With identical
    code and inputs the largest job worker read 135 MB in some runs and
    209 MB in others.
    """
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


class TracedPipeline(FeaturePipeline):
    """A :class:`FeaturePipeline` that records a span around its plan and
    feature stages, so the ledger can split them by caller."""

    def plan(self, *args, **kwargs):
        with obs.span("bench.pipeline.plan"):
            return super().plan(*args, **kwargs)

    def features(self, *args, **kwargs):
        with obs.span("bench.pipeline.features"):
            return super().features(*args, **kwargs)


class Ledger:
    """The per-layer record of one run.

    Traced, it owns one :class:`repro.obs.ObsSession` with spans on,
    installed only inside :meth:`recording` so set-up, warm-up and checks
    leave nothing in it.  Untraced, every method is a no-op and the
    workload runs the production path: plain ``FeaturePipeline``, no
    session, no nn hooks.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.session = obs.ObsSession(trace=True) if traced else None
        if traced:
            obs.instrument_nn()
            record = hooks.get_timing_hook()

            def split_training_forward(kind: str, name: str, seconds: float) -> None:
                record(kind, name, seconds)
                # Encoder forwards with grad on are the training epochs';
                # validation, detection and serving run under no_grad.
                if kind == "forward" and name == "TriDomainEncoder" and nn.is_grad_enabled():
                    obs.observe("bench.nn.encoder_forward_train", seconds, unit="s")

            hooks.set_timing_hook(split_training_forward)

    def pipeline(self) -> FeaturePipeline:
        """A fresh pipeline (and cache) for one detector."""
        return TracedPipeline() if self.traced else FeaturePipeline()

    def recording(self):
        if self.session is None:
            return contextlib.nullcontext()
        return obs.observed(session=self.session)

    # ------------------------------------------------------------------
    # Reading the session
    # ------------------------------------------------------------------
    def _histogram(self, name: str):
        return self.session.metrics.histograms.get(name)

    def total(self, name: str) -> float:
        """Sum of histogram ``name`` (seconds for spans and nn hooks)."""
        hist = self._histogram(name)
        return hist.sum if hist is not None else 0.0

    def calls(self, name: str) -> int:
        hist = self._histogram(name)
        return hist.count if hist is not None else 0

    def median(self, name: str) -> float:
        hist = self._histogram(name)
        return hist.quantile(0.5) if hist is not None else 0.0

    def counter(self, prefix: str) -> float:
        """Sum of every counter named ``prefix`` or ``prefix.*``."""
        return sum(
            counter.value
            for name, counter in self.session.metrics.counters.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def span_total(self, name: str, under: str) -> float:
        """Seconds in spans ``name`` that run inside a span ``under``."""
        spans = {span.span_id: span for span in self.session.tracer.spans}
        seconds = 0.0
        for span in spans.values():
            if span.name != name:
                continue
            parent = spans.get(span.parent_id)
            while parent is not None and parent.name != under:
                parent = spans.get(parent.parent_id)
            if parent is not None:
                seconds += span.duration
        return seconds

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """The metrics every workload reads from the session.

        Times and counts are per operation of the workload; rates,
        fractions and ``_p50`` values are not.  A layer the workload does
        not run reads 0.
        """
        hits = self.counter("pipeline.cache.hits")
        lookups = hits + self.counter("pipeline.cache.misses")
        drag_calls = self.counter("discord.drag_calls")
        epochs = self.calls("trainer.epoch")
        backward = self.total("nn.backward.graph")
        epoch_other = (
            self.total("trainer.epoch")
            - self.total("bench.nn.encoder_forward_train")
            - backward
        )
        per_op = {
            "pipeline.plan_s": self.span_total("bench.pipeline.plan", "bench.core.fit"),
            "pipeline.features_s": self.span_total(
                "bench.pipeline.features", "bench.core.fit"
            ),
            "pipeline.test_features_s": self.span_total(
                "bench.pipeline.features", "bench.core.detect"
            ),
            "nn.encoder_forward_s": self.total("nn.forward.TriDomainEncoder"),
            "nn.encoder_forward_calls": self.calls("nn.forward.TriDomainEncoder"),
            "nn.conv1d_forward_s": self.total("nn.forward.Conv1d"),
            "nn.conv1d_calls": self.calls("nn.forward.Conv1d"),
            "nn.backward_s": backward,
            "core.fit_s": self.total("bench.core.fit"),
            "core.train_encoder_s": self.total("trainer.train_encoder"),
            "core.detect_s": self.total("bench.core.detect"),
            "core.nominate_s": self.total("bench.core.nominate"),
            "core.select_s": self.total("bench.core.select"),
            "core.merlin_s": self.total("bench.core.merlin"),
            "core.vote_s": self.total("bench.core.vote"),
            "discord.merlin_full_s": self.total("bench.discord.merlin_full"),
            "discord.drag_calls": drag_calls,
            "discord.kernel_calls": self.counter("discord.kernels.profiles")
            + self.counter("discord.kernels.nn_profile"),
            "discord.lb_seeds": self.counter("discord.merlin.lb_seeds"),
            "discord.brute_force_fallbacks": self.counter("discord.brute_force_fallbacks"),
        }
        metrics = {name: value / ops for name, value in per_op.items()}
        metrics.update(
            {
                "pipeline.cache_hit_rate": hits / lookups if lookups else 0.0,
                "core.epoch_p50_s": self.median("trainer.epoch"),
                "core.epoch_other_s": epoch_other / epochs if epochs else 0.0,
                "discord.drag_failure_frac": (
                    self.counter("discord.drag.failures") / drag_calls if drag_calls else 0.0
                ),
                "discord.drag_prune_rate_p50": self.median("discord.drag.prune_rate"),
            }
        )
        return metrics
