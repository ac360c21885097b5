"""Evaluation metrics: point-wise F1, PA, PA%K (+AUC), affiliation,
event hits, timing."""

from .adjustment import PaKCurve, label_events, pa_k, pa_k_auc, point_adjust
from .affiliation import AffiliationScore, affiliation_metrics
from .auc import average_precision, best_f1_over_thresholds, roc_auc
from .events import event_detected, window_hits_event
from .pointwise import Confusion, confusion, f1_score, precision_recall_f1
from .timing import Timer

__all__ = [
    "PaKCurve",
    "label_events",
    "pa_k",
    "pa_k_auc",
    "point_adjust",
    "AffiliationScore",
    "affiliation_metrics",
    "event_detected",
    "window_hits_event",
    "Confusion",
    "confusion",
    "f1_score",
    "precision_recall_f1",
    "Timer",
    "average_precision",
    "best_f1_over_thresholds",
    "roc_auc",
]
