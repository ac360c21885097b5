"""Online serving: multi-stream scoring on top of fitted detectors.

The production-facing layer of the reproduction (ROADMAP north star):
per-stream sliding-window state (:mod:`repro.serve.stream`), a
versioned model registry with hot-swap and a graceful-degradation chain
(:mod:`repro.serve.registry`), a micro-batching scoring engine with
admission control (:mod:`repro.serve.engine`), online drift monitors
(:mod:`repro.serve.drift`), a self-healing adaptive controller closing
the drift -> retrain -> promote loop (:mod:`repro.serve.adapt`, see
``docs/ADAPTIVE.md``), a labelled-replay harness with chaos
injectors (:mod:`repro.serve.replay`, surfaced as ``repro
serve-replay``), and a sharded multi-worker fabric with pluggable
stream-state stores (:mod:`repro.serve.stores`,
:mod:`repro.serve.shard`, surfaced as ``repro serve-shard`` — see
``docs/SHARDING.md``).

Quick start::

    from repro.serve import build_registry, build_engine, replay_dataset

    registry = build_registry(fitted_triad)        # triad -> SR -> discord
    engine = build_engine(registry,
                          window_length=fitted_triad.plan.length,
                          stride=fitted_triad.plan.stride,
                          expected_period=fitted_triad.plan.period)
    for alert in engine.ingest("sensor-7", value):
        page_someone(alert)

See ``docs/SERVING.md`` for the architecture and semantics.
"""

from .adapt import (
    AdaptConfig,
    AdaptationDecision,
    AdaptationJournal,
    AdaptiveController,
    MomentShiftScorer,
    ShadowReport,
    moment_trainer,
    nan_poisoned,
    shadow_evaluate,
    triad_trainer,
)
from .drift import DriftMonitor, DriftSignal, PeriodChangeMonitor, ScoreShiftMonitor
from .engine import EngineConfig, ScoringEngine, StreamAlert
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
    LevelShift,
    ReplayReport,
    build_engine,
    build_registry,
    replay_dataset,
)
from .shard import HashRing, RecordingEngine, ShardRouter
from .stores import (
    FileBackedStore,
    InMemoryStore,
    StoreProvider,
    StreamSnapshot,
)
from .stream import ReadyWindow, RingBuffer, StreamState

__all__ = [
    "HashRing",
    "RecordingEngine",
    "ShardRouter",
    "StoreProvider",
    "StreamSnapshot",
    "InMemoryStore",
    "FileBackedStore",
    "AdaptConfig",
    "AdaptationDecision",
    "AdaptationJournal",
    "AdaptiveController",
    "MomentShiftScorer",
    "ShadowReport",
    "moment_trainer",
    "nan_poisoned",
    "shadow_evaluate",
    "triad_trainer",
    "LevelShift",
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
    "DriftSignal",
    "ScoreShiftMonitor",
    "PeriodChangeMonitor",
    "DriftMonitor",
    "FailAfter",
    "ReplayReport",
    "build_registry",
    "build_engine",
    "replay_dataset",
]
