"""Training loop for TriAD (paper Sec. IV-A3).

Trains the tri-domain encoder on *normal data only*: windows of the
training split paired with freshly augmented variants each epoch,
optimized with Adam under the combined contrastive loss.  A 10%
validation split tracks generalization and the best-validation weights
are restored at the end.

The loop carries numerical guard rails
(:class:`~repro.runtime.DivergenceGuard`): a NaN/Inf epoch loss or an
exploding gradient rolls the encoder back to the last good weights with
a learning-rate backoff (rebuilding the optimizer, whose moments the
bad step poisoned); after too many rollbacks training aborts and still
returns the best-validation encoder seen so far, flagged
``diverged=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn, obs
from ..augment import augment_batch
from ..pipeline import FeaturePipeline, default_pipeline, extract_all_domains
from ..runtime import DivergenceGuard
from ..signal.windows import WindowPlan
from ..validation import ensure_series, ensure_variation
from .config import TriADConfig
from .encoder import TriDomainEncoder
from .losses import total_contrastive_loss

__all__ = ["TrainResult", "train_encoder"]


def _contrastive_representations(
    encoder: TriDomainEncoder,
    original_features: dict[str, np.ndarray],
    augmented_features: dict[str, np.ndarray],
    size: int,
):
    """Encode originals and augmented variants in one forward pass.

    The contrastive loss needs representations of both batches; one
    ``[originals; augmented]`` forward halves the graph.  Every encoder
    op is row-independent, so this equals two separate passes — bitwise
    up to BLAS blocking, which may round the last ulp differently for
    the doubled row count (pinned against a two-pass run by
    ``tests/core/test_trainer.py::TestContrastiveForwardFusion``).
    """
    fused = encoder(
        {
            d: np.concatenate([a, augmented_features[d]])
            for d, a in original_features.items()
        }
    )
    r_orig = {d: r[:size] for d, r in fused.items()}
    r_aug = {d: r[size:] for d, r in fused.items()}
    return r_orig, r_aug


@dataclass
class TrainResult:
    """A fitted encoder plus the segmentation plan and loss history.

    ``rollbacks`` counts divergence-guard interventions; ``diverged``
    marks a run aborted after exhausting its rollback budget (the
    encoder still holds the best-validation weights observed).
    """

    encoder: TriDomainEncoder
    plan: WindowPlan
    config: TriADConfig
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    rollbacks: int = 0
    diverged: bool = False


def _batches(count: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches; drop sub-2 remainders (a contrastive
    batch needs at least two windows to form positive pairs)."""
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        batch = order[start : start + batch_size]
        if len(batch) >= 2:
            yield batch


def _epoch_loss(
    encoder: TriDomainEncoder,
    windows: np.ndarray,
    period: int,
    config: TriADConfig,
    rng: np.random.Generator,
    optimizer: nn.Adam | None,
    grad_norms: list[float] | None = None,
    features: dict[str, np.ndarray] | None = None,
) -> float:
    """One pass over ``windows``; updates weights when ``optimizer`` given.

    ``features`` are the precomputed per-domain features of ``windows``
    (row-aligned).  When given, each batch's original-window features
    are sliced out instead of re-extracted — bit-identical because
    extraction is row-independent, and the reason the epoch loop no
    longer extracts once per batch per epoch.  Augmented windows are
    fresh content every epoch, so their features are always extracted.

    A batch whose loss is non-finite is recorded but *not* backpropagated
    (its gradients would poison the weights and optimizer moments); the
    NaN still surfaces in the epoch mean so the divergence guard fires.
    Pre-clip gradient norms are appended to ``grad_norms`` when given.
    """
    losses = []
    for batch_idx in _batches(len(windows), config.batch_size, rng):
        batch = windows[batch_idx]
        augmented = augment_batch(batch, rng)
        if features is not None:
            original_features = {d: a[batch_idx] for d, a in features.items()}
        else:
            original_features = extract_all_domains(batch, period, config.domains)
        augmented_features = extract_all_domains(augmented, period, config.domains)
        r_orig, r_aug = _contrastive_representations(
            encoder, original_features, augmented_features, len(batch)
        )
        loss = total_contrastive_loss(
            r_orig,
            r_aug,
            alpha=config.alpha,
            temperature=config.temperature,
            use_intra=config.use_intra,
            use_inter=config.use_inter,
        )
        value = float(loss.data)
        if optimizer is not None and np.isfinite(value):
            optimizer.zero_grad()
            loss.backward()
            norm = nn.clip_grad_norm(encoder.parameters(), config.grad_clip)
            if grad_norms is not None:
                grad_norms.append(norm)
            optimizer.step()
        losses.append(value)
    return float(np.mean(losses)) if losses else 0.0


def train_encoder(
    train_series: np.ndarray,
    config: TriADConfig,
    guard: DivergenceGuard | None = None,
    pipeline: FeaturePipeline | None = None,
) -> TrainResult:
    """Fit a :class:`TriDomainEncoder` on an anomaly-free training series.

    Returns the encoder with its best-validation weights restored,
    together with the window plan used for segmentation.  ``guard``
    customizes divergence handling (rollback budget, LR backoff); the
    default tolerates two rollbacks before aborting.  ``pipeline``
    supplies windowing and memoized feature extraction (the shared
    :func:`~repro.pipeline.default_pipeline` when omitted): per-domain
    features of the training windows are computed once per window set —
    and reused across seeds, since window content is seed-independent —
    instead of once per batch per epoch.

    Raises ``ValueError`` when the series is non-finite, constant, or so
    short that the window plan cannot form a single contrastive batch.
    """
    train_series = ensure_series(train_series, "train_series")
    ensure_variation(train_series, "train_series")
    guard = guard if guard is not None else DivergenceGuard()
    pipeline = pipeline if pipeline is not None else default_pipeline()
    rng = np.random.default_rng(config.seed)
    plan = pipeline.plan_for(train_series, config)
    windows, _ = pipeline.windows(train_series, plan.length, plan.stride)
    all_features = pipeline.features(windows, plan.period, config.domains)

    # Hold out a random validation slice (paper: 10%).  Features are
    # sliced with the same permutation so each split stays row-aligned
    # with its windows.
    count = len(windows)
    val_count = max(int(round(count * config.validation_fraction)), 1) if count > 4 else 0
    order = rng.permutation(count)
    val_idx = order[:val_count]
    fit_idx = order[val_count:]
    val_windows = windows[val_idx]
    fit_windows = windows[fit_idx]
    val_features = {d: a[val_idx] for d, a in all_features.items()}
    fit_features = {d: a[fit_idx] for d, a in all_features.items()}

    if len(fit_windows) < 2:
        raise ValueError(
            f"window plan yields {len(fit_windows)} training window(s) of "
            f"length {plan.length} (series length {len(train_series)}); a "
            "contrastive batch needs at least 2 — provide a longer series "
            "or lower min_window / periods_per_window"
        )

    encoder = TriDomainEncoder(config, rng=np.random.default_rng(config.seed))
    learning_rate = config.learning_rate
    optimizer = nn.Adam(encoder.parameters(), lr=learning_rate)
    result = TrainResult(encoder=encoder, plan=plan, config=config)

    best_val = np.inf
    best_state = encoder.state_dict()
    last_good = encoder.state_dict()
    with obs.span(
        "trainer.train_encoder",
        epochs=config.epochs,
        windows=len(fit_windows),
        window_length=plan.length,
    ):
        for epoch in range(config.epochs):
            encoder.train()
            grad_norms: list[float] = []
            with obs.span("trainer.epoch"):
                train_loss = _epoch_loss(
                    encoder, fit_windows, plan.period, config, rng,
                    optimizer, grad_norms, features=fit_features,
                )
            worst_norm = max(grad_norms) if grad_norms else None
            obs.gauge("trainer.lr", learning_rate)
            if worst_norm is not None:
                obs.observe("trainer.grad_norm", worst_norm)
            verdict = guard.assess(train_loss, worst_norm)
            if verdict != "ok":
                # Roll back to the last finite weights; the optimizer
                # moments may be poisoned, so rebuild it at the
                # backed-off rate.
                encoder.load_state_dict(last_good)
                learning_rate = guard.backed_off_lr(learning_rate)
                optimizer = nn.Adam(encoder.parameters(), lr=learning_rate)
                result.rollbacks += 1
                result.train_losses.append(train_loss)
                obs.incr("trainer.rollbacks")
                obs.event(
                    "trainer.rollback",
                    epoch=epoch,
                    verdict=verdict,
                    train_loss=train_loss,
                    grad_norm=worst_norm,
                    backed_off_lr=learning_rate,
                )
                if verdict == "abort":
                    result.diverged = True
                    obs.incr("trainer.divergence_aborts")
                    obs.event("trainer.divergence_abort", epoch=epoch,
                              rollbacks=result.rollbacks)
                    break
                continue
            result.train_losses.append(train_loss)
            last_good = encoder.state_dict()
            val_loss = None
            if val_count:
                encoder.eval()
                with nn.no_grad():
                    val_loss = _epoch_loss(
                        encoder, val_windows, plan.period, config, rng,
                        optimizer=None, features=val_features,
                    )
                result.val_losses.append(val_loss)
                if val_loss < best_val:
                    best_val = val_loss
                    best_state = encoder.state_dict()
            obs.event(
                "trainer.epoch",
                epoch=epoch,
                train_loss=train_loss,
                val_loss=val_loss,
                grad_norm=worst_norm,
                lr=learning_rate,
            )
    if val_count and result.val_losses:
        encoder.load_state_dict(best_state)
    elif result.diverged:
        encoder.load_state_dict(last_good)
    encoder.eval()
    return result
