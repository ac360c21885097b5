"""DRAG — Discord Range-Aware Gathering (Yankov, Keogh & Rebbapragada,
KAIS 2008).

Two-phase discord search with a range threshold ``r``:

1. *Candidate gathering*: scan subsequences once, keeping a set of
   candidates that have no non-trivial neighbor within ``r`` so far.
   A subsequence landing within ``r`` of a candidate eliminates both
   itself and that candidate from discord contention.
2. *Refinement*: compute each surviving candidate's true nearest-neighbor
   distance and keep those at distance >= ``r``.

If ``r`` is at most the true discord distance, DRAG provably returns the
true discord; if ``r`` was chosen too large, it fails (returns ``None``)
and the caller (MERLIN) retries with a smaller ``r``.

Phase 1 runs as tiled matrix sweeps against a preallocated candidate
buffer — per square tile of :func:`~repro.discord.kernels.tile_rows`
rows, one GEMM against the surviving candidates plus one intra-tile
GEMM, no Python-level candidate-list rebuilds — and phase 2 is a
batched nearest-neighbor scan in tiles of the same scratch budget.
Tile-level elimination is *order-free*: any pair at distance < ``r``
with non-trivial separation eliminates both members, which can only
prune **more** than the sequential scan (every such elimination
certifies a nearest neighbor below ``r``), never the true discord;
phase 2's exact filter makes the final answer identical for every tile
size.  The original sequential scan is kept under ``tests/discord`` as
the equivalence oracle.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .brute import Discord
from .distance import trivial_match_mask
from .kernels import (
    SeriesContext,
    as_context,
    correct_tiny_distances,
    default_exclusion,
    distance_profiles,
    pair_sq_distances,
    snap_argmax,
    tile_rows,
)

__all__ = ["drag"]


def drag(
    series: np.ndarray,
    length: int,
    r: float,
    exclusion: int | None = None,
    *,
    ctx: SeriesContext | None = None,
    preprune: np.ndarray | None = None,
) -> Discord | None:
    """Run DRAG at subsequence ``length`` with range threshold ``r``.

    Returns the top discord, or ``None`` when no subsequence has its
    nearest non-trivial neighbor at distance >= ``r``.

    Parameters
    ----------
    ctx:
        Optional shared :class:`~repro.discord.kernels.SeriesContext`
        (MERLIN threads one across its whole length schedule).
    preprune:
        Optional boolean mask of subsequences already known to have a
        non-trivial neighbor closer than ``r`` (e.g. from a previous
        length's discord profile); they are skipped outright.
    """
    if exclusion is None:
        exclusion = default_exclusion(length, "discord")
    return _drag_blocked(series, length, r, exclusion, ctx, preprune)


def _drag_blocked(
    series: np.ndarray,
    length: int,
    r: float,
    exclusion: int,
    ctx: SeriesContext | None,
    preprune: np.ndarray | None,
) -> Discord | None:
    context = as_context(series, ctx)
    count = context.count(length)
    if count <= exclusion:
        obs.incr("discord.drag.degenerate")
        return None
    z = context.znorm(length)
    sq_norms = context.znorm_sq_norms(length)
    r_sq = r * r

    # ------------------------------------------------------------------
    # Phase 1: tiled candidate gathering into a preallocated buffer.
    # ------------------------------------------------------------------
    rows = min(tile_rows(), count)
    # Non-trivial pairs inside one tile, by row offset in it.
    far = ~trivial_match_mask(rows, exclusion)
    buffer = np.empty(count, dtype=np.int64)
    n_cand = 0
    for start in range(0, count, rows):
        local = np.arange(min(rows, count - start))
        if preprune is not None:
            local = local[~preprune[start : start + local.size]]
            if local.size == 0:
                continue
        idx = start + local
        z_tile = z[idx]
        n_tile = sq_norms[idx]
        killed = np.zeros(idx.size, dtype=bool)
        if n_cand:
            cand = buffer[:n_cand]
            hit = pair_sq_distances(z_tile, n_tile, z[cand], sq_norms[cand]) < r_sq
            # The buffer is sorted and sits wholly below this tile, so only
            # its tail can reach into a row's exclusion zone.
            near = np.searchsorted(cand, idx[0] - exclusion, side="right")
            if near < n_cand:
                hit[:, near:] &= idx[:, None] - cand[None, near:] >= exclusion
            killed |= hit.any(axis=1)
            cand_dead = hit.any(axis=0)
            if cand_dead.any():
                survivors = cand[~cand_dead]
                n_cand = survivors.size
                buffer[:n_cand] = survivors
        if local[-1] - local[0] >= exclusion:  # else every pair is trivial
            hit_in = pair_sq_distances(z_tile, n_tile, z_tile, n_tile) < r_sq
            hit_in &= far[local[:, None], local]
            killed |= hit_in.any(axis=1)
        fresh = idx[~killed]
        buffer[n_cand : n_cand + fresh.size] = fresh
        n_cand += fresh.size

    obs.observe("discord.drag.candidates", n_cand)
    if count:
        obs.observe("discord.drag.prune_rate", 1.0 - n_cand / count)
    if n_cand == 0:
        obs.incr("discord.drag.failures")
        return None

    # ------------------------------------------------------------------
    # Phase 2: one batched NN scan over the surviving candidates.
    # ------------------------------------------------------------------
    candidates = buffer[:n_cand]
    band = trivial_match_mask(count, exclusion)
    step = tile_rows(count)
    nn = np.empty(n_cand)
    for chunk_start in range(0, n_cand, step):
        chunk = candidates[chunk_start : chunk_start + step]
        sq = distance_profiles(context, length, chunk)
        np.copyto(sq, np.inf, where=band[chunk])
        correct_tiny_distances(context.series, length, chunk, sq)
        nn[chunk_start : chunk_start + chunk.size] = np.sqrt(
            np.maximum(sq.min(axis=1), 0.0)
        )
    # Candidates whose zone bans every pair have no neighbor at all (the
    # oracle skips them); candidates with a neighbor inside the range
    # fail the >= r filter.  Tie-snapped argmax in ascending candidate
    # order keeps the winner identical to the oracle's.
    eligible = np.isfinite(nn) & (nn >= r)
    if not eligible.any():
        obs.incr("discord.drag.failures")
        return None
    scored = np.where(eligible, nn, -np.inf)
    best = snap_argmax(scored)
    return Discord(
        index=int(candidates[best]), length=length, distance=float(nn[best])
    )
