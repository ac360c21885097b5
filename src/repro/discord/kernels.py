"""Shared chunked distance-kernel layer for discord discovery.

Every discord algorithm in this package reduces to the same primitive:
z-normalized Euclidean distances between subsequences, computed via the
dot-product identity ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b``.  This
module is the one home for that math — one production kernel, as
``repro.nn.conv1d`` has — so DRAG, MERLIN, brute force and the
streaming detector all draw from one set of batched sweeps instead of
hand-rolling their own loops.

Three pieces:

- :class:`SeriesContext` — computes prefix-sum rolling moments **once
  per series** and derives per-length z-norm statistics on demand, so a
  MERLIN length sweep never re-normalizes the subsequence matrix from
  scratch at each length.  Z-normed matrices for the most recent lengths
  are kept in a tiny LRU.
- Batched primitives — :func:`distance_profiles` (squared distances from
  a batch of query subsequences to *all* subsequences, as chunked matrix
  products against the cached z-norm matrix) and :func:`nn_profile` /
  :func:`nearest_neighbor_distances` (the full
  nearest-non-trivial-neighbor profile).
- The tile rule — :func:`tile_rows` turns one scratch budget,
  :data:`TILE_BYTES`, into the row count of every kernel's tiles (DRAG's
  two phases, the NN profile, the left matrix profile).  Tiles take
  their rows of one trivial-match mask built per call
  (:func:`~repro.discord.distance.trivial_match_mask`).

The original scalar/loop implementations live under ``tests/discord``
as the equivalence oracle; tests swap them in by patching this
package's module attributes.  Numerical contract (asserted by the
hypothesis suite there): the batched kernels match the oracle with
discord indices identical and distances within ``1e-9`` on
reasonably-scaled series.  Prefix-sum moments lose precision when a
window's variance is tiny relative to its mean square (catastrophic
cancellation); such windows are detected and their moments recomputed
with the exact two-pass formula, so constant subsequences behave
bit-identically to :func:`repro.discord.distance.znorm_subsequences`.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from .. import obs
from .distance import (
    _EPS,
    TINY_SQ,
    correct_tiny_distances,
    default_exclusion,
    trivial_match_mask,
)

__all__ = [
    "default_exclusion",
    "SeriesContext",
    "as_context",
    "snap_argmax",
    "TILE_BYTES",
    "tile_rows",
    "correct_tiny_distances",
    "distance_profiles",
    "pair_sq_distances",
    "nn_profile",
    "nearest_neighbor_distances",
]

# Prefix-sum variance is recomputed exactly (two-pass) for windows where
# cancellation could dominate: var <= VAR_RTOL * (E[x^2] + 1).  The
# threshold is deliberately wide: the cumsum's absolute error (~eps * n
# * E[x^2]) becomes a *relative* std error of eps*n*E[x^2]/(2*var), and
# a relative std error rescales every z value, so the 1e-9 distance
# contract needs var to dominate the cumsum error by ~1e6.  Flagged rows
# cost one exact two-pass each — only low-variance windows pay it.
VAR_RTOL = 1e-3

#: Scratch bytes one tile of a discord kernel may fill with a float64
#: block (:func:`tile_rows`).  Fixed 512-row tiles made 2 MB temporaries
#: that were handed back to the OS and faulted in again on every tile,
#: ~60k minor faults per full-series MERLIN on 1,200 points; at this
#: budget it takes ~1k.  Picked by a sweep over both tile shapes
#: (docs/PERF.md, "Discord tiles").
TILE_BYTES = 128 * 1024

# Discord selections treat distances within this of the maximum as tied
# and pick the smallest index (see :func:`snap_argmax`).
TIE_TOL = 1e-9


def snap_argmax(values: np.ndarray) -> int:
    """Argmax with a deterministic tie-break: smallest index within
    :data:`TIE_TOL` of the maximum.

    A discord's nearest-neighbor pair is *mutual* whenever nothing sits
    closer to either end, so the top two profile values are often equal
    in real arithmetic — and the kernels' and the test oracle's distinct
    rounding would then pick different winners under a plain
    ``argmax``.  Snapping the selection makes both return the same
    discord index, which is the equivalence contract
    ``tests/discord/test_kernel_properties.py`` asserts.
    """
    values = np.asarray(values)
    best = values.max()
    return int(np.flatnonzero(values >= best - TIE_TOL)[0])


def tile_rows(width: int | None = None) -> int:
    """Rows per tile: the most rows whose float64 ``(rows, width)`` block
    fits in :data:`TILE_BYTES`, or with no ``width`` the side of the
    largest square block that fits; at least one."""
    cells = TILE_BYTES // 8
    rows = math.isqrt(cells) if width is None else cells // max(width, 1)
    return max(rows, 1)


class SeriesContext:
    """Per-series moment and z-norm caches shared across lengths and
    algorithms.

    Construction is O(n): two prefix sums.  ``moments(length)`` then
    derives every subsequence's mean/std in O(n) per length — no
    re-normalization of the subsequence matrix — and ``znorm(length)``
    materializes the z-normed matrix only when a blocked sweep needs it,
    keeping the most recent :data:`ZNORM_CACHE` lengths alive so DRAG
    retries and MERLIN's per-length work reuse one matrix.
    """

    ZNORM_CACHE = 2

    def __init__(self, series: np.ndarray) -> None:
        series = np.ascontiguousarray(np.asarray(series, dtype=np.float64))
        if series.ndim != 1:
            raise ValueError("SeriesContext expects a 1-D series")
        self.series = series
        self._cum = np.concatenate(([0.0], np.cumsum(series)))
        self._cum2 = np.concatenate(([0.0], np.cumsum(series * series)))
        self._moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._znorm: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()

    def __len__(self) -> int:
        return len(self.series)

    def count(self, length: int) -> int:
        """Number of subsequences at ``length`` (raises if too long)."""
        if length > len(self.series):
            raise ValueError("subsequence length exceeds series length")
        if length < 1:
            raise ValueError("subsequence length must be positive")
        return len(self.series) - length + 1

    def moments(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-subsequence ``(mean, std)`` at ``length``, from prefix sums.

        Windows whose prefix-sum variance is cancellation-prone are
        recomputed with the exact two-pass formula so degenerate
        (constant) subsequences match ``znorm_subsequences`` exactly.
        """
        cached = self._moments.get(length)
        if cached is not None:
            obs.incr("discord.kernels.moments_reuse")
            return cached
        count = self.count(length)
        s = self._cum[length:] - self._cum[:-length]
        s2 = self._cum2[length:] - self._cum2[:-length]
        mean = s / length
        meansq = s2 / length
        var = meansq - mean * mean
        suspect = var <= VAR_RTOL * (np.abs(meansq) + 1.0)
        np.maximum(var, 0.0, out=var)
        std = np.sqrt(var)
        if suspect.any():
            subs = np.lib.stride_tricks.sliding_window_view(self.series, length)
            rows = np.flatnonzero(suspect[:count])
            window = subs[rows]
            mean[rows] = window.mean(axis=1)
            std[rows] = window.std(axis=1)
        result = (mean[:count], std[:count])
        self._moments[length] = result
        return result

    def _znorm_entry(self, length: int) -> tuple[np.ndarray, np.ndarray]:
        entry = self._znorm.get(length)
        if entry is not None:
            self._znorm.move_to_end(length)
            obs.incr("discord.kernels.znorm_reuse")
            return entry
        count = self.count(length)
        mean, std = self.moments(length)
        subs = np.lib.stride_tricks.sliding_window_view(self.series, length)[:count]
        z = (subs - mean[:, None]) / np.maximum(std, _EPS)[:, None]
        sq_norms = np.einsum("ij,ij->i", z, z)
        self._znorm[length] = (z, sq_norms)
        while len(self._znorm) > self.ZNORM_CACHE:
            self._znorm.popitem(last=False)
        return z, sq_norms

    def znorm(self, length: int) -> np.ndarray:
        """Z-normed subsequence matrix at ``length`` (LRU-cached)."""
        return self._znorm_entry(length)[0]

    def znorm_sq_norms(self, length: int) -> np.ndarray:
        """``||z_i||^2`` per subsequence, cached alongside the z matrix."""
        return self._znorm_entry(length)[1]


def as_context(series: np.ndarray, ctx: SeriesContext | None = None) -> SeriesContext:
    """Reuse ``ctx`` when given, else build a fresh one for ``series``."""
    if ctx is not None:
        return ctx
    return SeriesContext(series)


def pair_sq_distances(
    a: np.ndarray, a_norms: np.ndarray, b: np.ndarray, b_norms: np.ndarray
) -> np.ndarray:
    """``(a_norms[i] + b_norms[j]) - 2 a_i.b_j`` for every row pair.

    Two float64 temporaries instead of four: doubling is exact, so the
    Gram matrix doubled in place and subtracted from the norm outer sum
    gives the same bits as ``a_norms[:, None] + b_norms[None, :] - 2.0 *
    (a @ b.T)``.
    """
    gram = a @ b.T
    gram *= 2.0
    sq = a_norms[:, None] + b_norms[None, :]
    sq -= gram
    return sq


def distance_profiles(
    ctx: SeriesContext, length: int, indices: np.ndarray
) -> np.ndarray:
    """Squared z-norm distances from each query subsequence to all others.

    Returns a ``(len(indices), count)`` matrix, clamped at zero: one
    matrix product of the queries' rows of the cached z-norm matrix
    against all of it.  No exclusion zone is applied — callers mask
    their own trivial-match band.  The test oracles live at the
    algorithm level (DRAG's scan, the NN profile loop), not down here.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    z = ctx.znorm(length)
    sq_norms = ctx.znorm_sq_norms(length)
    sq = pair_sq_distances(z[indices], sq_norms[indices], z, sq_norms)
    np.maximum(sq, 0.0, out=sq)
    obs.incr("discord.kernels.profiles")
    return sq


def nn_profile(
    ctx: SeriesContext, length: int, exclusion: int, chunk: int | None = None
) -> np.ndarray:
    """Exact nearest-non-trivial-neighbor profile at ``length``.

    Rows whose every pair falls inside the exclusion zone are ``inf``
    (the short-series contract of :func:`nearest_neighbor_distances`).
    ``chunk`` rows per tile default to :func:`tile_rows` of the
    profile's width.
    """
    count = ctx.count(length)
    if chunk is None:
        chunk = tile_rows(count)
    profile = np.empty(count)
    z = ctx.znorm(length)
    sq_norms = ctx.znorm_sq_norms(length)
    band = trivial_match_mask(count, exclusion)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        # distance_profiles over a contiguous row range, on views.
        sq = pair_sq_distances(z[start:stop], sq_norms[start:stop], z, sq_norms)
        np.maximum(sq, 0.0, out=sq)
        obs.incr("discord.kernels.profiles")
        np.copyto(sq, np.inf, where=band[start:stop])
        best = sq.min(axis=1)
        # A row holds an entry below TINY_SQ exactly when its minimum is
        # below it, so only such tiles pay the correction's full scan.
        if (best < TINY_SQ).any():
            correct_tiny_distances(ctx.series, length, np.arange(start, stop), sq)
            best = sq.min(axis=1)
        profile[start:stop] = np.sqrt(np.maximum(best, 0.0))
    obs.incr("discord.kernels.nn_profile")
    return profile


def nearest_neighbor_distances(
    series: np.ndarray,
    length: int,
    exclusion: int | None = None,
    chunk: int | None = None,
    *,
    ctx: SeriesContext | None = None,
) -> np.ndarray:
    """Exact nearest-non-trivial-neighbor distance for every subsequence
    (the matrix profile of ``series`` at ``length``; the package entry
    point).

    **Contract:** a row whose every pair falls inside the exclusion zone
    — possible whenever ``count <= 2 * exclusion - 1``, i.e. a short
    series under a wide zone — has *no* non-trivial neighbor and its
    entry is ``inf``, not an error.  Callers that need a finite profile
    must filter with ``np.isfinite`` (see :func:`~repro.discord.brute.
    brute_force_discord`, which raises when nothing is finite).
    ``exclusion`` defaults to the matrix-profile convention
    via :func:`default_exclusion` — explicitly, so the zone each
    algorithm runs under is auditable in one place.  Pass a shared
    :class:`SeriesContext` to reuse moment and z-norm caches across
    calls.
    """
    if exclusion is None:
        exclusion = default_exclusion(length, "profile")
    return nn_profile(as_context(series, ctx), length, exclusion, chunk=chunk)
