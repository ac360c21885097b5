"""Matrix profile (nearest-neighbor distance profile) for time series.

Related discord machinery the paper cites ([27], [28]): the profile's
maximum is the top discord, its minimum a motif.  Computed exactly
through the shared kernel layer (:func:`repro.discord.kernels.
nn_profile`), which keeps the original chunked loop as the
``reference``-mode oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import SeriesContext, as_context, default_exclusion, nn_profile

__all__ = ["MatrixProfile", "matrix_profile"]


@dataclass(frozen=True)
class MatrixProfile:
    """Distance profile and nearest-neighbor index per subsequence."""

    profile: np.ndarray
    indices: np.ndarray
    length: int

    def discord_index(self) -> int:
        """Start of the top discord (largest NN distance)."""
        finite = np.where(np.isfinite(self.profile), self.profile, -np.inf)
        return int(np.argmax(finite))

    def motif_pair(self) -> tuple[int, int]:
        """Start indices of the closest non-trivial pair."""
        finite = np.where(np.isfinite(self.profile), self.profile, np.inf)
        i = int(np.argmin(finite))
        return i, int(self.indices[i])


def matrix_profile(
    series: np.ndarray,
    length: int,
    exclusion: int | None = None,
    chunk: int | None = None,
    *,
    ctx: SeriesContext | None = None,
) -> MatrixProfile:
    """Exact matrix profile of ``series`` at subsequence ``length``.

    ``exclusion`` defaults to the matrix-profile convention,
    ``default_exclusion(length, "profile")`` (``length // 2``).
    """
    if exclusion is None:
        exclusion = default_exclusion(length, "profile")
    context = as_context(series, ctx)
    profile, indices = nn_profile(
        context, length, exclusion, chunk=chunk, want_indices=True
    )
    return MatrixProfile(profile=profile, indices=indices, length=length)
