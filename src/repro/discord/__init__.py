"""Discord discovery algorithms: brute force, DRAG, MERLIN, DAMP and
the matrix profile — all built on the shared chunked distance-kernel
layer in :mod:`repro.discord.kernels` (``set_discord_mode`` selects the
implementation family; ``reference`` restores the original scalar
loops)."""

from .brute import Discord, brute_force_discord
from .distance import (
    default_exclusion,
    trivial_match_mask,
    znorm_distance,
    znorm_subsequences,
)
from .damp import DampResult, damp
from .drag import drag
from .kernels import (
    DISCORD_MODES,
    SeriesContext,
    discord_mode,
    get_discord_mode,
    nearest_neighbor_distances,
    set_discord_mode,
)
from .matrix_profile import MatrixProfile, matrix_profile
from .motifs import Motif, top_k_motifs
from .merlin import MerlinResult, merlin
from .streaming import StreamingDiscordDetector, left_matrix_profile
from .topk import top_k_discords

__all__ = [
    "StreamingDiscordDetector",
    "left_matrix_profile",
    "top_k_discords",
    "Motif",
    "top_k_motifs",
    "DampResult",
    "damp",
    "Discord",
    "brute_force_discord",
    "DISCORD_MODES",
    "SeriesContext",
    "discord_mode",
    "get_discord_mode",
    "set_discord_mode",
    "default_exclusion",
    "nearest_neighbor_distances",
    "trivial_match_mask",
    "znorm_distance",
    "znorm_subsequences",
    "drag",
    "MatrixProfile",
    "matrix_profile",
    "MerlinResult",
    "merlin",
]
