"""Discord discovery algorithms: brute force, DRAG, MERLIN and the
streaming left matrix profile — all built on the one chunked
distance-kernel layer in :mod:`repro.discord.kernels`.  The original
scalar loops they are checked against live under ``tests/discord``."""

from .brute import Discord, brute_force_discord
from .distance import (
    default_exclusion,
    trivial_match_mask,
    znorm_distance,
    znorm_subsequences,
)
from .drag import drag
from .kernels import SeriesContext, nearest_neighbor_distances
from .merlin import MerlinResult, merlin
from .streaming import StreamingDiscordDetector, left_matrix_profile

__all__ = [
    "StreamingDiscordDetector",
    "left_matrix_profile",
    "Discord",
    "brute_force_discord",
    "SeriesContext",
    "default_exclusion",
    "nearest_neighbor_distances",
    "trivial_match_mask",
    "znorm_distance",
    "znorm_subsequences",
    "drag",
    "MerlinResult",
    "merlin",
]
