"""Scalar distance primitives for discord discovery.

All discord algorithms in this package operate on z-normalized Euclidean
distance between subsequences, the convention of the matrix-profile /
MERLIN literature.  For z-normalized vectors of length ``l`` the squared
distance reduces to ``2l - 2 * dot``, which lets nearest-neighbor scans
run as matrix products.

This module is the *bottom* of the discord sublayer stack: it holds the
z-normalization helpers, the trivial-match mask, the one documented
home for the exclusion-zone defaults (:func:`default_exclusion`) and
the exact recompute of near-duplicate distances
(:func:`correct_tiny_distances`) that the batched kernels in
:mod:`repro.discord.kernels` build on.
"""

from __future__ import annotations

import numpy as np

from .. import obs

__all__ = [
    "znorm_subsequences",
    "znorm_distance",
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
      et al., ICDM 2020), used by DRAG and MERLIN.
    - ``"profile"`` — zone is ``max(length // 2, 1)``: the common
      matrix-profile convention, used by ``nearest_neighbor_distances``.
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
    distances (near-duplicate subsequences) come out the same in the
    kernels and in their test oracle.  Call *after* masking the trivial
    band — overlapping neighbors are near duplicates by construction and
    would otherwise all be recomputed.
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
