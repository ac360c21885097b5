"""Streaming discord detection via the left matrix profile (DAMP-style).

Discord algorithms in this package are batch; real-time monitoring needs
the *left* matrix profile: each subsequence's nearest neighbor among
subsequences that END before it starts.  A new point's left-NN distance
can be computed as data arrives, so the maximum-so-far marks the
emerging discord — the core idea behind the DAMP family of online
detectors the paper's Sec. V positions TriAD against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import SeriesContext, as_context, pair_sq_distances, tile_rows

__all__ = ["left_matrix_profile", "StreamingDiscordDetector"]


def left_matrix_profile(
    series: np.ndarray,
    length: int,
    chunk: int | None = None,
    *,
    ctx: SeriesContext | None = None,
) -> np.ndarray:
    """Exact left matrix profile.

    ``profile[i]`` is the distance from subsequence ``i`` to its nearest
    neighbor among subsequences ``j`` with ``j + length <= i`` (fully in
    the past).  Entries with no eligible neighbor are ``inf``.

    Computed in chunks of ``chunk`` query rows (default: the kernel
    layer's :func:`~repro.discord.kernels.tile_rows` for the profile's
    width): each chunk's distances to
    every eligible past subsequence are a single matrix product via the
    dot-product identity ``||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b``, with
    the not-yet-past columns masked per row.  Memory stays
    ``O(chunk * count)`` and the interpreter loop runs ``count / chunk``
    times instead of ``count`` times.  The z-norm matrix and squared
    norms come from the shared (optionally caller-provided)
    :class:`~repro.discord.kernels.SeriesContext`.
    """
    context = as_context(series, ctx)
    z = context.znorm(length)
    norms = context.znorm_sq_norms(length)
    count = len(z)
    if chunk is None:
        chunk = tile_rows(count)
    profile = np.full(count, np.inf)
    for start in range(length, count, chunk):
        stop = min(start + chunk, count)
        # Row i may match columns j <= i - length; the widest row in this
        # chunk (i = stop - 1) reaches column stop - 1 - length.
        width = stop - length
        sq = pair_sq_distances(
            z[start:stop], norms[start:stop], z[:width], norms[:width]
        )
        rows = np.arange(start, stop)
        future = np.arange(width)[None, :] > (rows[:, None] - length)
        sq[future] = np.inf
        profile[start:stop] = np.sqrt(np.maximum(sq.min(axis=1), 0.0))
    return profile


@dataclass
class _Alert:
    """An emitted streaming alert."""

    index: int
    distance: float


#: Default trailing left-NN distance window for the alert-threshold
#: baseline (see ``StreamingDiscordDetector``'s ``baseline_window``).
BASELINE_WINDOW = 512


class StreamingDiscordDetector:
    """Online discord detector over an unbounded stream.

    Feed points one at a time with :meth:`update`; once ``warmup``
    subsequences have been seen, every new subsequence's left-NN distance
    is compared against a trailing mean + ``sigma`` * std threshold, and
    crossings are reported as alerts.

    Example
    -------
    >>> detector = StreamingDiscordDetector(length=8, warmup=20)
    >>> import numpy as np
    >>> for value in np.sin(np.arange(200) / 3.0):
    ...     _ = detector.update(value)
    """

    def __init__(
        self,
        length: int,
        warmup: int = 32,
        sigma: float = 4.0,
        min_distance: float = 0.5,
        max_history: int | None = None,
        baseline_window: int = BASELINE_WINDOW,
    ) -> None:
        if length < 2:
            raise ValueError("subsequence length must be >= 2")
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        if baseline_window < length:
            raise ValueError(
                "baseline_window must be >= the subsequence length "
                f"(got {baseline_window} < {length})"
            )
        self.length = length
        self.warmup = warmup
        self.sigma = sigma
        # Absolute floor on the alert threshold: near-exact repeats of a
        # clean periodic signal yield ~zero distances and ~zero variance,
        # which would otherwise make any numerical jitter alert.
        self.min_distance = min_distance
        # ``max_history`` bounds the pool of past z-normed subsequences a
        # new window is matched against (None = unbounded pool).  The
        # threshold baseline is bounded separately and unconditionally:
        # only the trailing ``baseline_window`` left-NN distances are
        # retained, so memory stays O(max_history + baseline_window)
        # even on an infinite stream.
        self.max_history = max_history
        self.baseline_window = int(baseline_window)
        self._buffer: list[float] = []
        self._history: list[np.ndarray] = []  # z-normed past subsequences
        self._distances: list[float] = []  # trailing window only (see above)
        self._distances_seen = 0  # total distances ever recorded
        self.alerts: list[_Alert] = []
        self._count = 0

    @property
    def points_seen(self) -> int:
        return self._count

    def _znorm(self, window: np.ndarray) -> np.ndarray:
        std = window.std()
        if std < 1e-8:
            return np.zeros_like(window)
        return (window - window.mean()) / std

    def update(self, value: float) -> _Alert | None:
        """Ingest one point; returns an alert if a discord just emerged."""
        self._count += 1
        self._buffer.append(float(value))
        if len(self._buffer) < self.length:
            return None
        window = np.asarray(self._buffer[-self.length :])
        z = self._znorm(window)

        alert = None
        # Compare against fully-past subsequences only.  Distances are
        # recorded only once the past pool is reasonably large — the
        # first few left-NN distances are inflated simply because there
        # is almost nothing to match against, and would poison the
        # baseline statistics.
        past = self._history[: max(len(self._history) - self.length + 1, 0)]
        if len(past) >= self.warmup:
            matrix = np.asarray(past)
            sq = ((matrix - z) ** 2).sum(axis=1)
            distance = float(np.sqrt(max(sq.min(), 0.0)))
            self._distances.append(distance)
            self._distances_seen += 1
            # Keep one extra entry so the baseline below can exclude the
            # distance just appended and still span baseline_window.
            if len(self._distances) > self.baseline_window + 1:
                del self._distances[: -(self.baseline_window + 1)]
            if self._distances_seen > self.warmup:
                baseline = np.asarray(self._distances[:-1][-self.baseline_window :])
                threshold = max(
                    baseline.mean() + self.sigma * baseline.std(), self.min_distance
                )
                if distance > threshold:
                    alert = _Alert(index=self._count - self.length, distance=distance)
                    self.alerts.append(alert)

        self._history.append(z)
        if self.max_history is not None and len(self._history) > self.max_history:
            self._history.pop(0)
        if len(self._buffer) > self.length:
            self._buffer.pop(0)
        return alert
