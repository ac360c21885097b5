"""Baseline detectors evaluated in the paper's Table III."""

from .anomaly_transformer import AnomalyTransformerDetector
from .base import BaseDetector, calibrate_threshold, spread_window_scores
from .dcdetector import DCdetectorDetector
from .lstm_ae import LSTMAEDetector, LSTMAutoencoder
from .mtgflow import MTGFlowDetector
from .random_detector import OneLinerDetector, RandomScoreDetector
from .spectral_residual import SpectralResidualDetector, SpectralResidualWindowScorer
from .ts2vec import TS2VecDetector
from .usad import USADDetector

__all__ = [
    "BaseDetector",
    "calibrate_threshold",
    "spread_window_scores",
    "LSTMAEDetector",
    "LSTMAutoencoder",
    "USADDetector",
    "TS2VecDetector",
    "AnomalyTransformerDetector",
    "MTGFlowDetector",
    "DCdetectorDetector",
    "RandomScoreDetector",
    "OneLinerDetector",
    "SpectralResidualDetector",
    "SpectralResidualWindowScorer",
]
