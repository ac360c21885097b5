"""Shared chunked distance-kernel layer for discord discovery.

Every discord algorithm in this package reduces to the same primitive:
z-normalized Euclidean distances between subsequences, computed via the
dot-product identity ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b``.  This
module is the one home for that math — the same
kernel-family-behind-one-contract design ``repro.nn.conv1d`` uses — so
DRAG, MERLIN, DAMP, the matrix profile and the streaming
detector all draw from one set of batched sweeps instead of hand-rolling
their own loops.

Three pieces:

- :class:`SeriesContext` — computes prefix-sum rolling moments **once
  per series** and derives per-length z-norm statistics on demand, so a
  MERLIN length sweep never re-normalizes the subsequence matrix from
  scratch at each length.  Z-normed matrices for the most recent lengths
  are kept in a tiny LRU; the series rFFT is cached for the fft path.
- Batched primitives — :func:`distance_profiles` (squared distances from
  a batch of query subsequences to *all* subsequences) and
  :func:`nn_profile` / :func:`nearest_neighbor_distances` (the full
  nearest-non-trivial-neighbor profile), each dispatching on the active
  mode.
- Mode dispatch — ``set_discord_mode`` / ``get_discord_mode`` /
  ``discord_mode``, one :class:`repro.nn.switch.Switch` like
  ``repro.nn.set_conv1d_mode``:

  - ``"auto"`` (default) — blocked GEMM sweeps, switching to the FFT
    path for very long subsequences on large counts;
  - ``"blocked"`` — chunked matrix products against the cached z-norm
    matrix;
  - ``"fft"`` — MASS-style sliding dot products through the cached
    series rFFT plus prefix-sum moments (no z matrix materialized).
    Falls back to ``blocked`` when any window's std is too small for
    the FFT's absolute error to survive the z-normalization divide
    (counted in ``discord.kernels.fft_fallbacks``);
  - ``"reference"`` — the original scalar/loop implementations, kept
    verbatim in each algorithm module as the equivalence oracle.

Numerical contract (asserted by the hypothesis suite in
``tests/discord``): blocked/fft modes match the reference oracle with
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
from ..nn.switch import Switch
from .distance import _EPS, default_exclusion, znorm_subsequences
from .distance import nearest_neighbor_distances as _reference_nn_distances

__all__ = [
    "DISCORD_MODES",
    "set_discord_mode",
    "get_discord_mode",
    "discord_mode",
    "default_exclusion",
    "SeriesContext",
    "as_context",
    "snap_argmax",
    "correct_tiny_distances",
    "distance_profiles",
    "nn_profile",
    "nearest_neighbor_distances",
]

DISCORD_MODES = ("auto", "blocked", "fft", "reference")

# ``auto`` switches to the FFT path only when a blocked GEMM row costs
# clearly more than two length-n transforms: very long subsequences over
# large subsequence counts.  Everything in the paper's regime (padded
# MERLIN regions, UCR-scale series) stays on the blocked path.
AUTO_FFT_MIN_LENGTH = 256
AUTO_FFT_MIN_COUNT = 4096

# Prefix-sum variance is recomputed exactly (two-pass) for windows where
# cancellation could dominate: var <= VAR_RTOL * (E[x^2] + 1).  The
# threshold is deliberately wide: the cumsum's absolute error (~eps * n
# * E[x^2]) becomes a *relative* std error of eps*n*E[x^2]/(2*var), and
# a relative std error rescales every z value, so the 1e-9 distance
# contract needs var to dominate the cumsum error by ~1e6.  Flagged rows
# cost one exact two-pass each — only low-variance windows pay it.
VAR_RTOL = 1e-3

# Discord selections treat distances within this of the maximum as tied
# and pick the smallest index (see :func:`snap_argmax`).
TIE_TOL = 1e-9

# Squared distances below this are recomputed with the exact
# subtract-and-square formula: the dot-product identity's absolute error
# (~eps * l) turns into a distance error of eps*l/(2d), which breaks the
# 1e-9 contract precisely when d is tiny — near-duplicate subsequences.
# Entries this small are rare (their distance is < 0.01), so the exact
# pass costs nothing in the common case.
TINY_SQ = 1e-4


def snap_argmax(values: np.ndarray) -> int:
    """Argmax with a deterministic tie-break: smallest index within
    :data:`TIE_TOL` of the maximum.

    A discord's nearest-neighbor pair is *mutual* whenever nothing sits
    closer to either end, so the top two profile values are often equal
    in real arithmetic — and each kernel mode's distinct rounding would
    then pick a different winner under a plain ``argmax``.  Snapping the
    selection makes every mode (the reference oracle included) return
    the same discord index, which is the equivalence contract
    ``tests/discord/test_kernel_properties.py`` asserts.
    """
    values = np.asarray(values)
    best = values.max()
    return int(np.flatnonzero(values >= best - TIE_TOL)[0])


# Mode switch (see the module docstring): ``set_discord_mode`` returns
# the previous mode, ``discord_mode`` pins one for a ``with`` block.
_DISCORD = Switch("discord", "auto", DISCORD_MODES)
set_discord_mode = _DISCORD.set
get_discord_mode = _DISCORD.get
discord_mode = _DISCORD.pinned


def resolve_mode(mode: str | None, length: int, count: int) -> str:
    """Collapse ``None``/``"auto"`` to a concrete kernel choice."""
    if mode is None:
        mode = _DISCORD.value
    elif mode not in DISCORD_MODES:
        raise ValueError(f"unknown discord mode {mode!r}; choose from {DISCORD_MODES}")
    if mode == "auto":
        if length >= AUTO_FFT_MIN_LENGTH and count >= AUTO_FFT_MIN_COUNT:
            return "fft"
        return "blocked"
    return mode


class SeriesContext:
    """Per-series moment/FFT caches shared across lengths and algorithms.

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
        n = len(series)
        self._cum = np.concatenate(([0.0], np.cumsum(series)))
        self._cum2 = np.concatenate(([0.0], np.cumsum(series * series)))
        self._meansq = float(self._cum2[-1] / n) if n else 0.0
        self._n_fft = 1 << max(n - 1, 1).bit_length()
        # Smallest window std the fft path can z-normalize without the
        # transform's absolute dot error (~eps * n_fft * E[x^2]) blowing
        # past the 1e-9 distance contract after the 1/(std_i*std_j)
        # divide.
        self._fft_std_floor = math.sqrt(
            np.finfo(np.float64).eps * self._n_fft * (self._meansq + 1.0) / 1e-10
        )
        self._moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._znorm: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._series_rfft: np.ndarray | None = None

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

    def series_rfft(self) -> np.ndarray:
        """rFFT of the zero-padded series, computed once per context."""
        if self._series_rfft is None:
            self._series_rfft = np.fft.rfft(self.series, n=self._n_fft)
        return self._series_rfft

    def sliding_dots(self, indices: np.ndarray, length: int) -> np.ndarray:
        """Raw sliding dot products of query subsequences vs the series.

        ``out[q, j] = sum_k series[indices[q] + k] * series[j + k]`` for
        every lag ``j``, via one cached series rFFT plus a batched query
        rFFT — O(q * n log n) regardless of ``length``.
        """
        count = self.count(length)
        subs = np.lib.stride_tricks.sliding_window_view(self.series, length)
        queries = subs[np.asarray(indices, dtype=np.int64)]
        spectra = np.fft.rfft(queries, n=self._n_fft, axis=1)
        corr = np.fft.irfft(
            self.series_rfft()[None, :] * np.conj(spectra), n=self._n_fft, axis=1
        )
        return corr[:, :count]

    def fft_safe(self, length: int) -> bool:
        """Whether every window's std clears the fft-mode error floor."""
        _, std = self.moments(length)
        return bool((std >= self._fft_std_floor).all())


def as_context(series: np.ndarray, ctx: SeriesContext | None = None) -> SeriesContext:
    """Reuse ``ctx`` when given, else build a fresh one for ``series``."""
    if ctx is not None:
        return ctx
    return SeriesContext(series)


def correct_tiny_distances(
    ctx: SeriesContext, length: int, indices: np.ndarray, sq: np.ndarray
) -> None:
    """Recompute entries of ``sq`` below :data:`TINY_SQ` exactly, in place.

    ``sq[q, j]`` must hold squared z-norm distances from subsequence
    ``indices[q]`` to subsequence ``j``.  The recomputed entries use the
    same subtract-and-square arithmetic as the reference oracle, so tiny
    distances (near-duplicate subsequences) match it bitwise.  Call
    *after* masking the trivial band — overlapping neighbors are near
    duplicates by construction and would otherwise all be recomputed.
    """
    rows, cols = np.nonzero(sq < TINY_SQ)
    if rows.size == 0:
        return
    subs = np.lib.stride_tricks.sliding_window_view(ctx.series, length)
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


def distance_profiles(
    ctx: SeriesContext,
    length: int,
    indices: np.ndarray,
    mode: str | None = None,
) -> np.ndarray:
    """Squared z-norm distances from each query subsequence to all others.

    Returns a ``(len(indices), count)`` matrix, clamped at zero.  No
    exclusion zone is applied — callers mask their own trivial-match
    band.  ``"reference"`` resolves to the blocked path: the reference
    oracles live at the algorithm level (the scalar loops kept verbatim
    in each module), not down here.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.int64))
    count = ctx.count(length)
    mode = resolve_mode(mode, length, count)
    if mode == "reference":
        mode = "blocked"
    if mode == "fft" and not ctx.fft_safe(length):
        obs.incr("discord.kernels.fft_fallbacks")
        mode = "blocked"
    if mode == "fft":
        mean, std = ctx.moments(length)
        stdf = np.maximum(std, _EPS)
        # ||z_i||^2 = l * (std_i / max(std_i, eps))^2 — exactly l for
        # any window that was not floored.
        sq_norms = length * np.where(std >= _EPS, 1.0, (std / _EPS) ** 2)
        dots = ctx.sliding_dots(indices, length)
        zdots = (dots - length * mean[indices][:, None] * mean[None, :]) / (
            stdf[indices][:, None] * stdf[None, :]
        )
        sq = sq_norms[indices][:, None] + sq_norms[None, :] - 2.0 * zdots
    else:
        z = ctx.znorm(length)
        sq_norms = ctx.znorm_sq_norms(length)
        sq = (
            sq_norms[indices][:, None]
            + sq_norms[None, :]
            - 2.0 * (z[indices] @ z.T)
        )
    np.maximum(sq, 0.0, out=sq)
    obs.incr(f"discord.kernels.profiles.{mode}")
    return sq


def nn_profile(
    ctx: SeriesContext,
    length: int,
    exclusion: int,
    chunk: int = 512,
    mode: str | None = None,
    want_indices: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact nearest-non-trivial-neighbor profile at ``length``.

    Rows whose every pair falls inside the exclusion zone are ``inf``
    (the short-series contract of
    :func:`repro.discord.distance.nearest_neighbor_distances`, preserved
    in every mode).  With ``want_indices``, also returns each row's
    nearest-neighbor start index (undefined — still returned — for
    ``inf`` rows, matching ``matrix_profile``'s historical behavior).
    """
    count = ctx.count(length)
    mode = resolve_mode(mode, length, count)
    if mode == "reference" and not want_indices:
        profile = _reference_nn_distances(
            ctx.series, length, exclusion=exclusion, chunk=chunk
        )
        obs.incr("discord.kernels.nn_profile.reference")
        return profile, None
    if mode == "reference":
        # Verbatim matrix-profile reference loop (repro.discord.
        # matrix_profile pre-kernels), kept as the with-indices oracle.
        z = znorm_subsequences(ctx.series, length)
        norms = (z**2).sum(axis=1)
        profile = np.empty(count)
        nearest_all = np.empty(count, dtype=np.int64)
        columns = np.arange(count)
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            dots = z[start:stop] @ z.T
            sq = norms[start:stop, None] + norms[None, :] - 2.0 * dots
            rows = np.arange(start, stop)
            band = np.abs(rows[:, None] - columns[None, :]) < exclusion
            sq[band] = np.inf
            nearest = sq.argmin(axis=1)
            nearest_all[start:stop] = nearest
            profile[start:stop] = np.sqrt(
                np.maximum(sq[np.arange(stop - start), nearest], 0.0)
            )
        obs.incr("discord.kernels.nn_profile.reference")
        return profile, nearest_all
    profile = np.empty(count)
    nearest_all = np.empty(count, dtype=np.int64) if want_indices else None
    columns = np.arange(count)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        rows = np.arange(start, stop)
        sq = distance_profiles(ctx, length, rows, mode=mode)
        band = np.abs(rows[:, None] - columns[None, :]) < exclusion
        sq[band] = np.inf
        correct_tiny_distances(ctx, length, rows, sq)
        nearest = sq.argmin(axis=1)
        if nearest_all is not None:
            nearest_all[start:stop] = nearest
        profile[start:stop] = np.sqrt(
            np.maximum(sq[np.arange(stop - start), nearest], 0.0)
        )
    obs.incr(f"discord.kernels.nn_profile.{mode}")
    return profile, nearest_all


def nearest_neighbor_distances(
    series: np.ndarray,
    length: int,
    exclusion: int | None = None,
    chunk: int = 512,
    *,
    ctx: SeriesContext | None = None,
    mode: str | None = None,
) -> np.ndarray:
    """Mode-dispatching nearest-neighbor profile (the package entry point).

    Same contract as :func:`repro.discord.distance.
    nearest_neighbor_distances` (which remains the reference oracle):
    one distance per subsequence, ``inf`` where the exclusion zone bans
    every pair.  ``exclusion`` defaults to the matrix-profile convention
    via :func:`default_exclusion` — explicitly, so the zone each
    algorithm runs under is auditable in one place.  Pass a shared
    :class:`SeriesContext` to reuse moments/FFT caches across calls.
    """
    if exclusion is None:
        exclusion = default_exclusion(length, "profile")
    resolved = resolve_mode(mode, length, max(len(np.asarray(series)) - length + 1, 0))
    if resolved == "reference" and ctx is None:
        return _reference_nn_distances(series, length, exclusion=exclusion, chunk=chunk)
    context = as_context(series, ctx)
    profile, _ = nn_profile(
        context, length, exclusion, chunk=chunk, mode=resolved
    )
    return profile
