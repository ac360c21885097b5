"""Terminal visualization: sparklines, interval rulers, and detection
reports.

Pure-text plotting (no matplotlib in this environment) used by the
examples and the CLI to make detections inspectable: the case-study
walkthrough renders Fig. 11's similarity curves and Fig. 12's discord
map with these helpers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sparkline", "mark_intervals", "detection_report"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: np.ndarray, width: int = 60) -> str:
    """Compress ``values`` into a one-line unicode sparkline."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ""
    if len(values) > width:
        chunks = np.array_split(values, width)
        values = np.array([chunk.mean() for chunk in chunks])
    lo, hi = float(values.min()), float(values.max())
    span = max(hi - lo, 1e-12)
    levels = ((values - lo) / span * (len(_SPARK_LEVELS) - 1)).astype(int)
    return "".join(_SPARK_LEVELS[level] for level in levels)


def mark_intervals(length: int, intervals: list[tuple[int, int]], char: str = "^") -> str:
    """A one-line ruler with ``char`` under the given intervals."""
    line = [" "] * length
    for start, end in intervals:
        for i in range(max(start, 0), min(end, length)):
            line[i] = char
    return "".join(line)


def detection_report(detection, labels: np.ndarray | None = None) -> str:
    """Human-readable multi-line report of a :class:`TriADDetection`.

    Includes the per-domain similarity sparklines, the flagged window,
    the discord map, and (when labels are provided) hit/miss context.
    """
    lines = ["TriAD detection report", "=" * 40]
    lines.append(f"flagged window : [{detection.window[0]}, {detection.window[1]})")
    lo, hi = detection.search_region
    lines.append(f"search region  : [{lo}, {hi})  ({hi - lo} points)")
    lines.append(f"exception      : {detection.votes.exception_applied}")
    lines.append("")
    lines.append("per-domain window similarity (dip = deviant):")
    for domain, scores in detection.similarity.items():
        deviant = int(np.argmin(scores)) if len(scores) else -1
        lines.append(f"  {domain:9s} {sparkline(scores)}  min @ window {deviant}")
    lines.append("")
    lines.append(f"discords found : {len(detection.discords.discords)} lengths")
    for discord in detection.discords.discords[:8]:
        a = lo + discord.index
        lines.append(
            f"  length {discord.length:4d}: [{a}, {a + discord.length}) "
            f"distance {discord.distance:.2f}"
        )
    if len(detection.discords.discords) > 8:
        lines.append(f"  ... {len(detection.discords.discords) - 8} more")
    predicted = np.flatnonzero(detection.predictions)
    if predicted.size:
        lines.append(
            f"predictions    : {predicted.size} points in "
            f"[{predicted.min()}, {predicted.max()}]"
        )
    else:
        lines.append("predictions    : none")
    if labels is not None:
        labels = np.asarray(labels)
        events = np.flatnonzero(labels)
        if events.size:
            lines.append(
                f"ground truth   : [{events.min()}, {events.max() + 1}) "
                f"({events.size} points)"
            )
            overlap = int((detection.predictions.astype(bool) & labels.astype(bool)).sum())
            lines.append(f"overlap        : {overlap} points")
    return "\n".join(lines)
