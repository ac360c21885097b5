"""TriAD configuration.

Defaults follow the paper's Sec. IV-A3/IV-A4 settings: 6 residual
blocks, h_d = 32, alpha = 0.4, batch size 8, learning rate 1e-3,
20 epochs, 10% validation split, windows of 2.5 periods with a
quarter-window stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..pipeline.features import DOMAINS

__all__ = ["TriADConfig", "DOMAINS"]


@dataclass(frozen=True)
class TriADConfig:
    """Hyper-parameters for the TriAD detector.

    Attributes
    ----------
    depth:
        Number of dilated residual blocks per encoder (paper: 6).
    hidden_dim:
        Encoder representation width ``h_d`` (paper: 32).
    alpha:
        Weight of the inter-domain loss in Eq. 7 (paper: 0.4).
    temperature:
        Softmax temperature on representation dot products.  The paper's
        Eq. 5–6 use raw dot products; we L2-normalize representations and
        divide by this temperature for numerical stability — standard
        InfoNCE practice that leaves the objective's optima unchanged.
    domains:
        Which encoders to instantiate; the ablation study (Fig. 9)
        removes one at a time.
    use_intra / use_inter:
        Loss-term toggles for the ablation study.
    merlin_step:
        Stride over candidate anomaly lengths in the MERLIN stage; 1
        reproduces the paper's full sweep, larger values bound runtime.
    train_stride:
        Stride used when scanning the training series during
        single-window selection (paper analyzes the worst case of 1).
    """

    depth: int = 6
    hidden_dim: int = 32
    kernel_size: int = 3
    alpha: float = 0.4
    temperature: float = 0.2
    batch_size: int = 8
    learning_rate: float = 1e-3
    epochs: int = 20
    validation_fraction: float = 0.1
    periods_per_window: float = 2.5
    stride_fraction: float = 0.25
    min_window: int = 16
    max_window: int = 512
    domains: tuple[str, ...] = DOMAINS
    use_intra: bool = True
    use_inter: bool = True
    grad_clip: float = 5.0
    seed: int = 0
    top_z: int = 1
    scoring: str = "uniform"
    exception_enabled: bool = True
    merlin_min_length: int = 4
    merlin_max_length: int | None = None
    merlin_step: int | None = None
    merlin_padding: int | None = None
    train_stride: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.depth < 1:
            raise ValueError("depth must be positive")
        unknown = set(self.domains) - set(DOMAINS)
        if unknown:
            raise ValueError(f"unknown domains: {sorted(unknown)}")
        if not self.domains:
            raise ValueError("at least one domain is required")
        if not (self.use_intra or self.use_inter):
            raise ValueError("at least one contrastive loss term is required")
        if self.scoring not in ("uniform", "weighted"):
            raise ValueError("scoring must be 'uniform' (Eq. 8) or 'weighted'")
        if self.top_z < 1:
            raise ValueError("top_z must be positive")

    def with_overrides(self, **kwargs) -> "TriADConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
