"""TriAD's dilated-convolution encoders (paper Sec. III-B).

Each domain has its own encoder: a stack of residual blocks whose
dilation doubles per block, growing the receptive field exponentially
so both short- and long-range patterns are captured.  The per-domain
latent ``(batch, h_d, length)`` maps are funneled through two dense
layers *shared across domains* into a one-dimensional representation
``r`` of shape ``(batch, length)``, which feeds the contrastive losses
and the window similarity ranking.

The encoder computes in :data:`ENCODER_DTYPE` (float32): its parameters
are built in it, its inputs are cast to it, and the whole training graph
— activations, gradients, Adam moments — follows.  float64 is the test
oracle, not a mode: tests reach it by monkeypatching the constant.

Inference runs in row tiles (:meth:`TriDomainEncoder.row_tiles`) sized
from one budget, :data:`INFERENCE_TILE_BYTES`.  Every encoder op is
row-independent, so a tiled forward is bytewise equal to one untiled
forward; training runs its fused batches whole, since backward needs
the whole graph.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor
from ..pipeline.features import domain_channels
from .config import TriADConfig

__all__ = [
    "ENCODER_DTYPE",
    "INFERENCE_TILE_BYTES",
    "ResidualBlock",
    "DilatedConvEncoder",
    "TriDomainEncoder",
]

#: Dtype of every encoder parameter and activation.  float32 halves the
#: memory traffic of the conv kernels, which are most of a fit.
ENCODER_DTYPE = np.float32

#: Bytes one ``(rows, hidden_dim, length)`` activation of an inference
#: forward may fill (:meth:`TriDomainEncoder.row_tiles`): 34 rows at
#: length 120, 16 at 256 in float32.  A 256-row batch made ~4 MB hidden
#: maps that were faulted in again on every call (~19k minor faults per
#: 256-window score); tiles this size take none.  Picked by a row sweep
#: (docs/PERF.md, "Encoder inference tiles").
INFERENCE_TILE_BYTES = 512 * 1024


class ResidualBlock(nn.Module):
    """Two same-padding dilated convolutions with a skip connection.

    The convs are kept as ``Conv1d`` modules for their parameters (and
    so ``state_dict`` keys), but ``forward`` runs the whole block as one
    fused autograd node, :func:`repro.nn.functional.residual_block`.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.conv1 = nn.Conv1d(
            in_channels, out_channels, kernel_size, dilation=dilation, rng=rng
        )
        self.conv2 = nn.Conv1d(
            out_channels, out_channels, kernel_size, dilation=dilation, rng=rng
        )
        self.skip = (
            nn.Conv1d(in_channels, out_channels, 1, rng=rng)
            if in_channels != out_channels
            else nn.Identity()
        )

    def forward(self, x: Tensor) -> Tensor:
        skip = self.skip if isinstance(self.skip, nn.Conv1d) else None
        return F.residual_block(
            x,
            self.conv1.weight,
            self.conv1.bias,
            self.conv2.weight,
            self.conv2.bias,
            self.conv1.dilation,
            skip_w=skip.weight if skip is not None else None,
            skip_b=skip.bias if skip is not None else None,
        )


class DilatedConvEncoder(nn.Module):
    """Stack of residual blocks with dilation doubling per block."""

    def __init__(self, in_channels: int, config: TriADConfig, rng: np.random.Generator) -> None:
        super().__init__()
        blocks = []
        channels = in_channels
        for level in range(config.depth):
            blocks.append(
                ResidualBlock(
                    channels,
                    config.hidden_dim,
                    config.kernel_size,
                    dilation=2**level,
                    rng=rng,
                )
            )
            channels = config.hidden_dim
        self.blocks = nn.Sequential(*blocks)

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(batch, channels, length)`` to ``(batch, h_d, length)``."""
        return self.blocks(x)


class TriDomainEncoder(nn.Module):
    """Per-domain encoders plus the shared dense projection head.

    ``forward`` returns L2-normalized representations so that dot
    products in the contrastive losses are bounded cosine similarities
    (see :class:`repro.core.config.TriADConfig.temperature`).

    Parameters are drawn in float64 and rounded once to
    :data:`ENCODER_DTYPE`, which is read at construction and kept as
    ``dtype``; :meth:`encode` casts its features to it.
    """

    def __init__(self, config: TriADConfig, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.domains = config.domains
        for domain in config.domains:
            encoder = DilatedConvEncoder(domain_channels(domain), config, rng)
            setattr(self, f"encoder_{domain}", encoder)
        self.dense1 = nn.Linear(config.hidden_dim, config.hidden_dim, rng=rng)
        self.dense2 = nn.Linear(config.hidden_dim, 1, rng=rng)
        self.dtype = np.dtype(ENCODER_DTYPE)
        for param in self.parameters():
            param.data = param.data.astype(self.dtype)

    def encode(self, features: np.ndarray | Tensor, domain: str) -> Tensor:
        """Encode one domain's ``(batch, channels, length)`` features
        (cast to ``dtype`` unless they already have it)."""
        if domain not in self.domains:
            raise KeyError(f"domain {domain!r} not active in this encoder")
        encoder: DilatedConvEncoder = getattr(self, f"encoder_{domain}")
        if not isinstance(features, Tensor):
            features = np.asarray(features, dtype=self.dtype)
        hidden = encoder(nn.as_tensor(features))  # (B, h_d, L)
        hidden = hidden.transpose(0, 2, 1)  # (B, L, h_d)
        projected = self.dense2(self.dense1(hidden).relu())  # (B, L, 1)
        batch, length, _ = projected.shape
        r = projected.reshape(batch, length)
        norm = ((r * r).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
        return r / norm

    def row_tiles(self, rows: int, length: int) -> list[slice]:
        """Even row tiles of a ``rows``-window inference batch: as few as
        keep each ``(tile, hidden_dim, length)`` activation within
        :data:`INFERENCE_TILE_BYTES`, sizes differing by at most one row
        (so no tiny tail tile).  Zero rows give one empty tile."""
        row_bytes = self.dtype.itemsize * self.config.hidden_dim * length
        cap = max(INFERENCE_TILE_BYTES // row_bytes, 1)
        count = max(-(-rows // cap), 1)
        bounds = [rows * tile // count for tile in range(count + 1)]
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def forward(self, features_by_domain: dict[str, np.ndarray]) -> dict[str, Tensor]:
        """Encode every active domain; returns ``{domain: (batch, length)}``."""
        return {
            domain: self.encode(features_by_domain[domain], domain)
            for domain in self.domains
        }
