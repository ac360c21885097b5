"""Brute-force discord discovery — the exact O(N^2) reference.

A *discord* is the subsequence whose distance to its nearest non-trivial
neighbor is largest.  This module computes it directly from the full
nearest-neighbor profile; DRAG and MERLIN must agree with it (asserted
in the test suite) while doing less work.  The profile itself comes from
the shared kernel layer (:func:`~repro.discord.kernels.
nearest_neighbor_distances`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    SeriesContext,
    default_exclusion,
    nearest_neighbor_distances,
    snap_argmax,
)

__all__ = ["Discord", "brute_force_discord"]


@dataclass(frozen=True)
class Discord:
    """A discovered discord: subsequence start, length, and NN distance."""

    index: int
    length: int
    distance: float

    @property
    def interval(self) -> tuple[int, int]:
        """Half-open ``[start, end)`` span of the discord subsequence."""
        return self.index, self.index + self.length


def brute_force_discord(
    series: np.ndarray,
    length: int,
    exclusion: int | None = None,
    *,
    ctx: SeriesContext | None = None,
) -> Discord:
    """Find the top-1 discord of ``series`` at ``length`` exhaustively.

    Raises ``ValueError`` when the exclusion zone bans every pair (the
    profile is all-``inf``; see :func:`nearest_neighbor_distances`), with
    the offending geometry in the message so MERLIN failure reports say
    *which* length/exclusion combination was unsatisfiable.
    """
    profile = nearest_neighbor_distances(series, length, exclusion=exclusion, ctx=ctx)
    finite = np.isfinite(profile)
    if not finite.any():
        effective = (
            exclusion if exclusion is not None else default_exclusion(length, "profile")
        )
        raise ValueError(
            "no subsequence has a non-trivial neighbor: series length "
            f"{len(np.asarray(series))} yields {len(profile)} subsequence(s) "
            f"at length={length} under exclusion={effective} — shorten the "
            "exclusion zone or provide a longer series"
        )
    # Tie-snapped so the kernels and their test oracle report the same
    # discord when the top pair is mutual (exactly tied in real
    # arithmetic).
    profile = np.where(finite, profile, -np.inf)
    index = snap_argmax(profile)
    return Discord(index=index, length=length, distance=float(profile[index]))
