"""Online serving: multi-stream scoring on top of fitted detectors.

The production-facing layer of the reproduction (ROADMAP north star):
per-stream sliding-window state (:mod:`repro.serve.stream`), a fixed
fallback chain of scorers behind circuit breakers
(:mod:`repro.serve.registry`), a micro-batching scoring engine with
admission control and the one latency budget, its adaptive batch limit
(:mod:`repro.serve.engine`), a labelled-replay
harness with a failover drill (:mod:`repro.serve.replay`, surfaced as
``repro serve-replay``), and a sharded fabric over a fixed fleet of
worker processes that keeps each stream's last acked snapshot
(:mod:`repro.serve.shard`, surfaced as ``repro serve-shard`` — see
``docs/SHARDING.md``).

Quick start::

    from repro.serve import EngineConfig, ScoringEngine, build_registry

    registry = build_registry(fitted_triad)        # triad -> SR -> discord
    engine = ScoringEngine(registry, EngineConfig(
        window_length=fitted_triad.plan.length,
        stride=fitted_triad.plan.stride))
    for alert in engine.ingest("sensor-7", value):
        page_someone(alert)

See ``docs/SERVING.md`` for the architecture and semantics.
"""

from .engine import EngineConfig, ScoringEngine, StreamAlert, StreamSnapshot
from .registry import (
    DegradationExhaustedError,
    DiscordWindowScorer,
    ModelEntry,
    ModelRegistry,
    TriADWindowScorer,
    WindowScorer,
)
from .replay import (
    FailAfter,
    ReplayReport,
    build_registry,
    replay_dataset,
)
from .shard import RecordingEngine, ShardRouter
from .stream import PointRing, ReadyWindow, RingBuffer, StreamState

__all__ = [
    "RecordingEngine",
    "ShardRouter",
    "StreamSnapshot",
    "PointRing",
    "RingBuffer",
    "ReadyWindow",
    "StreamState",
    "WindowScorer",
    "TriADWindowScorer",
    "DiscordWindowScorer",
    "ModelEntry",
    "ModelRegistry",
    "DegradationExhaustedError",
    "EngineConfig",
    "ScoringEngine",
    "StreamAlert",
    "FailAfter",
    "ReplayReport",
    "build_registry",
    "replay_dataset",
]
