"""Event-wise accuracy under the MERLIN++ evaluation protocol.

A prediction counts as correct when it falls within a margin of 100
data points around the true anomalous event (paper Sec. IV-B2).  This
is the metric behind Table IV's accuracy column.
"""

from __future__ import annotations

import numpy as np

__all__ = ["event_detected", "window_hits_event"]

DEFAULT_MARGIN = 100


def event_detected(
    predicted_points: np.ndarray,
    event: tuple[int, int],
    margin: int = DEFAULT_MARGIN,
) -> bool:
    """True when any predicted point is within ``margin`` of the event."""
    predicted_points = np.asarray(predicted_points)
    if predicted_points.size == 0:
        return False
    start, end = event
    return bool(
        np.any((predicted_points >= start - margin) & (predicted_points < end + margin))
    )


def window_hits_event(
    window: tuple[int, int], event: tuple[int, int], margin: int = DEFAULT_MARGIN
) -> bool:
    """True when the half-open ``window`` overlaps the event +/- margin.

    Used for TriAD's tri-window / single-window accuracy, where success
    means the nominated window contains (part of) the anomaly.
    """
    w_start, w_end = window
    start, end = event
    return w_start < end + margin and w_end > start - margin
