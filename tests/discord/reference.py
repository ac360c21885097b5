"""The discord test oracles: the original scalar and loop
implementations the batched kernels in :mod:`repro.discord.kernels` are
checked against, and :func:`reference_discord`, which swaps them in.

:func:`reference_discord` patches module attributes for the ``with``
block, as ``reference_conv()`` in ``tests/nn/test_conv_fastpath.py``
does for the conv kernel:

- ``drag`` runs the sequential scan (:func:`drag_reference`) in place of
  ``_drag_blocked``;
- ``nn_profile`` (so brute force and
  ``nearest_neighbor_distances``) runs the chunked loop
  (:func:`reference_nn_profile`);
- ``merlin`` builds no ``SeriesContext`` and seeds no length, so it runs
  the plain ``r`` schedule on the sequential DRAG.
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np
import pytest

from repro import obs
from repro.discord import Discord, default_exclusion, znorm_subsequences
from repro.discord import kernels
from repro.discord.distance import correct_tiny_distances
from repro.discord.kernels import snap_argmax

# The package re-exports the functions ``drag`` and ``merlin`` under
# their modules' names.
drag_module = importlib.import_module("repro.discord.drag")
merlin_module = importlib.import_module("repro.discord.merlin")


@contextlib.contextmanager
def reference_discord():
    """Run DRAG, MERLIN and the NN profile on the oracles for the
    ``with`` block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(drag_module, "_drag_blocked", drag_reference)
        patch.setattr(kernels, "nn_profile", _reference_nn_profile_kernel)
        patch.setattr(merlin_module, "SeriesContext", lambda series: None)
        patch.setattr(merlin_module, "_prev_discord_profile", lambda *args: None)
        yield


#: Each discord path by name, as a context manager factory: the batched
#: kernels (production) and the oracles.
DISCORD_PATHS = {"kernel": contextlib.nullcontext, "reference": reference_discord}


def _reference_nn_profile_kernel(ctx, length, exclusion, chunk=None):
    """``kernels.nn_profile``'s signature over :func:`reference_nn_profile`."""
    return reference_nn_profile(ctx.series, length, exclusion)[0]


def reference_nn_distances(
    series: np.ndarray,
    length: int,
    exclusion: int | None = None,
    chunk: int = 512,
) -> np.ndarray:
    """The original chunked NN-profile loop — the oracle for
    :func:`repro.discord.nearest_neighbor_distances`, with its defaults
    and its ``inf`` contract for rows the exclusion zone bans."""
    if exclusion is None:
        exclusion = default_exclusion(length, "profile")
    return reference_nn_profile(series, length, exclusion, chunk)[0]


def reference_nn_profile(
    series: np.ndarray, length: int, exclusion: int, chunk: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """The reference loop behind :func:`reference_nn_distances`:
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


def drag_reference(
    series: np.ndarray,
    length: int,
    r: float,
    exclusion: int,
    ctx=None,
    preprune=None,
) -> Discord | None:
    """The original sequential DRAG, verbatim — the equivalence oracle.

    Takes ``_drag_blocked``'s arguments; it reads no shared context and
    ignores any pre-pruning."""
    z = znorm_subsequences(series, length)
    count = len(z)
    if count <= exclusion:
        obs.incr("discord.drag.degenerate")
        return None

    # ------------------------------------------------------------------
    # Phase 1: candidate gathering.
    # ------------------------------------------------------------------
    candidates: list[int] = []
    candidate_matrix: list[np.ndarray] = []
    r_sq = r * r
    for j in range(count):
        survives = True
        if candidates:
            matrix = np.asarray(candidate_matrix)
            sq = ((matrix - z[j]) ** 2).sum(axis=1)
            indices = np.asarray(candidates)
            nontrivial = np.abs(indices - j) >= exclusion
            hit = nontrivial & (sq < r_sq)
            if hit.any():
                survives = False
                keep = ~hit
                candidates = [c for c, k in zip(candidates, keep) if k]
                candidate_matrix = [m for m, k in zip(candidate_matrix, keep) if k]
        if survives:
            candidates.append(j)
            candidate_matrix.append(z[j])
    # Candidate-set size and prune rate are what make the Table IV
    # pruning argument measurable: a healthy r leaves a tiny candidate
    # set out of `count` subsequences.
    obs.observe("discord.drag.candidates", len(candidates))
    if count:
        obs.observe("discord.drag.prune_rate", 1.0 - len(candidates) / count)
    if not candidates:
        obs.incr("discord.drag.failures")
        return None

    # ------------------------------------------------------------------
    # Phase 2: refinement — exact NN distance per candidate.
    # ------------------------------------------------------------------
    survivors: list[tuple[int, float]] = []
    all_indices = np.arange(count)
    for c in candidates:
        nontrivial = np.abs(all_indices - c) >= exclusion
        sq = ((z[nontrivial] - z[c]) ** 2).sum(axis=1)
        if sq.size == 0:
            continue
        nn = float(np.sqrt(max(sq.min(), 0.0)))
        if nn < r:
            continue  # had a neighbor inside the range after all
        survivors.append((c, nn))
    if not survivors:
        obs.incr("discord.drag.failures")
        return None
    # Same tie-snapped selection as the kernel paths (see snap_argmax):
    # mutual-NN pairs are exact ties, and each path's rounding would
    # otherwise pick a different winner.
    best = snap_argmax(np.asarray([nn for _, nn in survivors]))
    c, nn = survivors[best]
    return Discord(index=int(c), length=length, distance=nn)
