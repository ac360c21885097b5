"""Change-point detection by binary segmentation.

Level-shift and trend anomalies are change-points in disguise; the
paper's related work (e.g. its ref. [6] on contrastive change-point
detection) sits on exactly this substrate.
:func:`binary_segmentation` recursively splits the series at the point
that maximally reduces the summed squared error, until the gain falls
below a penalty (a PELT-flavored stopping rule).  The ChangePoint
baseline runs it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["binary_segmentation", "segment_costs"]


def segment_costs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums enabling O(1) squared-error cost of any segment."""
    x = np.asarray(x, dtype=np.float64)
    sums = np.concatenate([[0.0], np.cumsum(x)])
    squares = np.concatenate([[0.0], np.cumsum(x**2)])
    return sums, squares


def _sse(sums: np.ndarray, squares: np.ndarray, lo: int, hi: int) -> float:
    """Squared error of x[lo:hi] around its own mean (hi exclusive)."""
    n = hi - lo
    if n <= 0:
        return 0.0
    total = sums[hi] - sums[lo]
    total_sq = squares[hi] - squares[lo]
    return float(total_sq - total * total / n)


def binary_segmentation(
    x: np.ndarray,
    penalty: float | None = None,
    min_size: int = 5,
    max_changepoints: int = 32,
) -> list[int]:
    """Change-point indices by recursive binary segmentation (L2 cost).

    A split is accepted while it reduces the summed squared error by
    more than ``penalty`` (default: BIC-flavored ``2 * var * log(n)``).
    Returned indices are sorted split positions (each the first index of
    the right-hand segment).
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n < 2 * min_size:
        return []
    if penalty is None:
        penalty = 2.0 * x.var() * np.log(max(n, 2))
    sums, squares = segment_costs(x)

    changepoints: list[int] = []
    stack: list[tuple[int, int]] = [(0, n)]
    while stack and len(changepoints) < max_changepoints:
        lo, hi = stack.pop()
        if hi - lo < 2 * min_size:
            continue
        base = _sse(sums, squares, lo, hi)
        best_gain, best_split = 0.0, -1
        for split in range(lo + min_size, hi - min_size + 1):
            gain = base - _sse(sums, squares, lo, split) - _sse(sums, squares, split, hi)
            if gain > best_gain:
                best_gain, best_split = gain, split
        if best_split >= 0 and best_gain > penalty:
            changepoints.append(best_split)
            stack.append((lo, best_split))
            stack.append((best_split, hi))
    return sorted(changepoints)
