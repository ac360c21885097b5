"""MERLIN — parameter-free discovery of arbitrary-length discords
(Nakamura, Imamura, Mercer & Keogh, ICDM 2020).

MERLIN runs DRAG across a range of subsequence lengths, choosing the
range threshold ``r`` adaptively so each DRAG call prunes aggressively
yet never misses the true discord.  Distances are tracked divided by
``sqrt(length)``, so the schedule holds for any length step:

- until a first discord is found: ``r = 2 * sqrt(length)``, halved on
  each failed DRAG pass;
- next four successful lengths: ``r = 0.99 x`` the previous discord
  distance, decayed by 0.9 on failure;
- afterwards: ``r = mean - 2 * std`` of the last five discord distances,
  decayed by 0.9 on failure.

``r`` is floored at ``1e-6`` and every DRAG call runs at ``r`` backed off
by :data:`LB_MARGIN`.  After ``max_retries`` failed passes, or once
``r`` falls below ``1e-9``, the length is searched by brute force.
Lengths where even the brute-force fallback finds no non-trivial
neighbor (e.g. a wide exclusion zone on a short region) are skipped and
contribute nothing to the schedule.

One :class:`~repro.discord.kernels.SeriesContext` is threaded across the
whole length schedule — prefix-sum moments are computed once for the
series, never re-derived per length — and the previous length's discord
is reused three ways around each DRAG call:

- *lower-bound seeding*: its nearest-neighbor distance at the *current*
  length is a valid lower bound on the current discord distance (the
  discord maximizes NN distance over all starts, this start included),
  so ``r`` is raised to it when the schedule's guess is lower — and DRAG
  is then guaranteed to succeed on the first call;
- *dropping to the bound*: when the schedule's guess is higher and a
  DRAG pass fails, ``r`` drops straight to the seeded bound instead of
  decaying, so a seeded length takes at most two DRAG calls; only below
  the bound (a failure there is impossible in exact arithmetic) does
  ``r`` decay by 0.9;
- *pre-pruning*: every subsequence within ``r`` of it already has a
  non-trivial neighbor inside the range and is handed to DRAG as dead on
  arrival (recomputed from the cached profile row on each retry since
  ``r`` shrinks).

These reuses only tighten DRAG's pruning or skip passes that would
fail; the discord returned is identical because a successful DRAG
always reports the exact argmax over subsequences with NN distance
>= ``r``.  The test oracle (``tests/discord``) runs without a context
or seed, so it takes the plain schedule above verbatim.

TriAD invokes MERLIN only on the short padded region around its
suspected window, which is where the 10x inference speedup of Table IV
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .brute import Discord, brute_force_discord
from .drag import drag
from .kernels import SeriesContext, distance_profiles

__all__ = ["MerlinResult", "merlin"]

#: Relative safety margin applied to every ``r`` handed to DRAG.  The
#: schedule's values can sit exactly on a discord distance: a seeded
#: lower bound equals it whenever the previous discord start is *still*
#: the discord (or tied with it), and the first-length guess
#: ``2 * sqrt(length)`` halves to ``sqrt(length)``, the distance between
#: a constant (all-zero after z-normalization) subsequence and any
#: other.  At ``r`` equal to a tied discord distance every tied
#: candidate sits on DRAG's ``< r`` elimination knife edge, where the
#: kernel's and the test oracle's rounding decide differently.  Backing
#: off by a sliver keeps the guarantee (any ``r`` <= the true discord
#: distance is safe) and costs only marginal pruning.
LB_MARGIN = 1e-6


@dataclass
class MerlinResult:
    """Discords found per subsequence length, plus search bookkeeping."""

    discords: list[Discord] = field(default_factory=list)
    drag_calls: int = 0

    def intervals(self) -> list[tuple[int, int]]:
        """Half-open spans of all found discords."""
        return [d.interval for d in self.discords]

    def best(self) -> Discord | None:
        """Discord with the largest length-normalized distance."""
        if not self.discords:
            return None
        return max(self.discords, key=lambda d: d.distance / np.sqrt(d.length))


def _prev_discord_profile(
    ctx: SeriesContext, prev_index: int, length: int, exclusion: int
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Distances from the previous length's discord start at ``length``.

    Returns ``(distances, nontrivial_mask, lower_bound)`` where the lower
    bound is that start's NN distance at this length, or ``None`` when
    the start no longer fits or has no non-trivial neighbor.
    """
    count = ctx.count(length)
    if prev_index >= count:
        return None
    sq = distance_profiles(ctx, length, np.asarray([prev_index]))[0]
    distances = np.sqrt(sq)
    nontrivial = np.abs(np.arange(count) - prev_index) >= exclusion
    if not nontrivial.any():
        return None
    return distances, nontrivial, float(distances[nontrivial].min())


def merlin(
    series: np.ndarray,
    min_length: int,
    max_length: int,
    step: int = 1,
    exclusion_factor: float = 1.0,
    max_retries: int = 64,
) -> MerlinResult:
    """Find the top discord at every length in ``range(min_length,
    max_length + 1, step)``.

    Parameters
    ----------
    step:
        Length stride; 1 reproduces the original algorithm, larger
        values trade completeness for speed (used by the benchmark
        harness on long series).
    exclusion_factor:
        Trivial-match zone as a fraction of the subsequence length.
        1.0 = non-overlapping neighbors only (MERLIN's convention).
    """
    series = np.asarray(series, dtype=np.float64)
    lengths = [
        l for l in range(min_length, max_length + 1, step) if 2 * l <= len(series)
    ]
    result = MerlinResult()
    # One moment/z-norm cache for the whole sweep.
    ctx = SeriesContext(series)
    prev_index: int | None = None
    # Track *length-normalized* discord distances (z-norm distances grow
    # like sqrt(length)), so the schedule stays valid for any step size.
    # The schedule keys off how many lengths have actually *succeeded*:
    # a length whose search failed outright (brute force included) adds
    # nothing to recent_norm, and the next length must not assume a
    # previous distance exists.
    recent_norm: list[float] = []
    with obs.span(
        "discord.merlin",
        series_length=len(series),
        min_length=min_length,
        max_length=max_length,
        step=step,
    ) as merlin_span:
        for length in lengths:
            exclusion = max(int(round(exclusion_factor * length)), 1)
            scale = float(np.sqrt(length))
            if not recent_norm:
                r = 2.0 * scale
                decay = 0.5
            elif len(recent_norm) < 5:
                r = 0.99 * recent_norm[-1] * scale
                decay = 0.9
            else:
                window = np.asarray(recent_norm[-5:])
                r = float(window.mean() - 2.0 * window.std()) * scale
                decay = 0.9
            r = max(r, 1e-6)

            prev_profile = None
            if prev_index is not None:
                prev_profile = _prev_discord_profile(
                    ctx, prev_index, length, exclusion
                )
            seeded = None if prev_profile is None else prev_profile[2]
            if seeded is not None and seeded > r:
                # Seeding never overshoots: the current discord distance
                # is >= this bound, so DRAG succeeds immediately.
                r = seeded
                obs.incr("discord.merlin.lb_seeds")

            found: Discord | None = None
            retries = 0
            for _ in range(max_retries):
                result.drag_calls += 1
                retries += 1
                r_safe = r * (1.0 - LB_MARGIN)
                preprune = None
                if prev_profile is not None:
                    distances, nontrivial, _ = prev_profile
                    preprune = nontrivial & (distances < r_safe)
                found = drag(
                    series, length, r_safe, exclusion=exclusion, ctx=ctx,
                    preprune=preprune,
                )
                if found is not None:
                    break
                if seeded is not None and r > seeded:
                    # A failed pass means r overshot the discord distance;
                    # the seeded bound does not, so the next pass succeeds.
                    # At or below the bound retries decay, so a failure
                    # there (impossible in exact arithmetic, conceivable in
                    # floating point) cannot loop.
                    r = seeded
                else:
                    r *= decay
                if r < 1e-9:
                    break
            obs.incr("discord.drag_calls", retries)
            if found is None:
                # Retries exhausted (or degenerate series): fall back to
                # the exact scan so no length is silently skipped.
                obs.incr("discord.brute_force_fallbacks")
                try:
                    found = brute_force_discord(
                        series, length, exclusion=exclusion, ctx=ctx
                    )
                except ValueError:
                    obs.incr("discord.skipped_lengths")
                    continue
            result.discords.append(found)
            recent_norm.append(found.distance / scale)
            prev_index = found.index
        merlin_span.set(
            lengths=len(lengths),
            discords=len(result.discords),
            drag_calls=result.drag_calls,
        )
    return result
