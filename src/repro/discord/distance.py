"""Scalar distance primitives for discord discovery.

All discord algorithms in this package operate on z-normalized Euclidean
distance between subsequences, the convention of the matrix-profile /
MERLIN literature.  For z-normalized vectors of length ``l`` the squared
distance reduces to ``2l - 2 * dot``, which lets nearest-neighbor scans
run as matrix products.

This module is the *bottom* of the discord sublayer stack: it holds the
z-normalization helpers, the one documented home for the exclusion-zone
defaults (:func:`default_exclusion`), the exact recompute of
near-duplicate distances (:func:`correct_tiny_distances`), and the
original :func:`nearest_neighbor_distances` loop, kept as the
equivalence oracle for the batched kernels in
:mod:`repro.discord.kernels`.  New code should call the mode-aware
``nearest_neighbor_distances`` re-exported from :mod:`repro.discord`
(defined in ``kernels``); importing it from here always gets the
reference path.
"""

from __future__ import annotations

import numpy as np

from .. import obs

__all__ = [
    "znorm_subsequences",
    "znorm_distance",
    "nearest_neighbor_distances",
    "trivial_match_mask",
    "default_exclusion",
    "correct_tiny_distances",
]

_EPS = 1e-8

# Squared distances below this are recomputed with the exact
# subtract-and-square formula: the dot-product identity's absolute error
# (~eps * l) turns into a distance error of eps*l/(2d), which breaks the
# 1e-9 contract precisely when d is tiny — near-duplicate subsequences.
# Entries this small are rare (their distance is < 0.01), so the exact
# pass costs nothing in the common case.
TINY_SQ = 1e-4


def default_exclusion(length: int, convention: str = "discord") -> int:
    """The documented exclusion-zone defaults, in one place.

    Two conventions coexist in the literature and in this package; the
    kernel layer and every algorithm resolve their default zone through
    this function so the choice is explicit at each call site:

    - ``"discord"`` — zone equals the subsequence ``length``: neighbors
      must be completely non-overlapping.  MERLIN's convention (Nakamura
      et al., ICDM 2020), used by DRAG, MERLIN and
      ``top_k_discords``.
    - ``"profile"`` — zone is ``max(length // 2, 1)``: the common
      matrix-profile convention, used by ``nearest_neighbor_distances``
      and ``matrix_profile``.
    """
    if convention == "discord":
        return max(int(length), 1)
    if convention == "profile":
        return max(length // 2, 1)
    raise ValueError(
        f"unknown exclusion convention {convention!r}; choose 'discord' or 'profile'"
    )


def znorm_subsequences(series: np.ndarray, length: int) -> np.ndarray:
    """All z-normalized subsequences of ``series`` with the given length.

    Returns an array of shape ``(len(series) - length + 1, length)``.
    Constant subsequences map to zero vectors (distance to anything
    z-normalized is then ``sqrt(2l)``, a sane 'featureless' placement).
    """
    series = np.asarray(series, dtype=np.float64)
    if length > len(series):
        raise ValueError("subsequence length exceeds series length")
    if length < 1:
        raise ValueError("subsequence length must be positive")
    subs = np.lib.stride_tricks.sliding_window_view(series, length)
    mean = subs.mean(axis=1, keepdims=True)
    std = subs.std(axis=1, keepdims=True)
    return (subs - mean) / np.maximum(std, _EPS)


def znorm_distance(a: np.ndarray, b: np.ndarray) -> float:
    """z-normalized Euclidean distance between two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    za = (a - a.mean()) / max(a.std(), _EPS)
    zb = (b - b.mean()) / max(b.std(), _EPS)
    return float(np.linalg.norm(za - zb))


def trivial_match_mask(count: int, exclusion: int) -> np.ndarray:
    """Boolean ``(count, count)`` mask of self/trivial matches to ignore.

    Overlapping subsequences trivially match; the standard exclusion zone
    bans pairs closer than ``exclusion`` positions apart:
    ``mask[i, j]`` is ``|i - j| < exclusion``.  The mask is a read-only
    view of one ``2 * count - 1`` template, so a tiled kernel builds it
    once per call and takes its rows per tile (``mask[start:stop]`` is a
    view, ``mask[rows]`` a bool copy) instead of materialising an int64
    ``|i - j|`` matrix per tile.
    """
    template = np.abs(np.arange(2 * count - 1) - (count - 1)) < exclusion
    return np.lib.stride_tricks.sliding_window_view(template, count)[::-1]


def correct_tiny_distances(
    series: np.ndarray, length: int, indices: np.ndarray, sq: np.ndarray
) -> None:
    """Recompute entries of ``sq`` below :data:`TINY_SQ` exactly, in place.

    ``sq[q, j]`` must hold squared z-norm distances from subsequence
    ``indices[q]`` of ``series`` to subsequence ``j``.  The recomputed
    entries subtract and square the two z-normed windows, so tiny
    distances (near-duplicate subsequences) come out the same in every
    mode.  Call *after* masking the trivial band — overlapping
    neighbors are near duplicates by construction and would otherwise
    all be recomputed.
    """
    rows, cols = np.nonzero(sq < TINY_SQ)
    if rows.size == 0:
        return
    series = np.asarray(series, dtype=np.float64)
    subs = np.lib.stride_tricks.sliding_window_view(series, length)
    wi = subs[np.asarray(indices, dtype=np.int64)[rows]]
    wj = subs[cols]
    zi = (wi - wi.mean(axis=1, keepdims=True)) / np.maximum(
        wi.std(axis=1, keepdims=True), _EPS
    )
    zj = (wj - wj.mean(axis=1, keepdims=True)) / np.maximum(
        wj.std(axis=1, keepdims=True), _EPS
    )
    sq[rows, cols] = ((zi - zj) ** 2).sum(axis=1)
    obs.incr("discord.kernels.tiny_recomputes", int(rows.size))


def nearest_neighbor_distances(
    series: np.ndarray,
    length: int,
    exclusion: int | None = None,
    chunk: int = 512,
) -> np.ndarray:
    """Exact nearest-non-trivial-neighbor distance for every subsequence.

    This is the matrix profile of ``series`` at the given length,
    computed in chunks so memory stays ``O(chunk * count)``.

    Parameters
    ----------
    exclusion:
        Half-width of the trivial-match zone; defaults to
        ``default_exclusion(length, "profile")`` (``length // 2``, the
        common matrix-profile convention).

    Returns
    -------
    numpy.ndarray
        One distance per subsequence.  **Contract:** a row whose every
        pair falls inside the exclusion zone — possible whenever
        ``count <= 2 * exclusion - 1``, i.e. a short series under a wide
        zone — has *no* non-trivial neighbor and its entry is ``inf``,
        not an error.  Callers that need a finite profile must filter
        with ``np.isfinite`` (see :func:`~repro.discord.brute.
        brute_force_discord`, which raises when nothing is finite).
    """
    if exclusion is None:
        exclusion = default_exclusion(length, "profile")
    return reference_nn_profile(series, length, exclusion, chunk)[0]


def reference_nn_profile(
    series: np.ndarray, length: int, exclusion: int, chunk: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """The reference loop behind :func:`nearest_neighbor_distances`:
    ``(profile, nearest)``, each row's NN distance and NN start index
    (undefined — still returned — for ``inf`` rows)."""
    z = znorm_subsequences(series, length)
    count = len(z)
    norms = (z**2).sum(axis=1)
    profile = np.empty(count)
    nearest_all = np.empty(count, dtype=np.int64)
    columns = np.arange(count)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        # Squared distances via the dot-product identity, exact where
        # they are tiny.
        dots = z[start:stop] @ z.T
        sq = norms[start:stop, None] + norms[None, :] - 2.0 * dots
        rows = np.arange(start, stop)
        sq[np.abs(rows[:, None] - columns[None, :]) < exclusion] = np.inf
        correct_tiny_distances(series, length, rows, sq)
        nearest = sq.argmin(axis=1)
        nearest_all[start:stop] = nearest
        profile[start:stop] = np.sqrt(
            np.maximum(sq[np.arange(stop - start), nearest], 0.0)
        )
    return profile, nearest_all
