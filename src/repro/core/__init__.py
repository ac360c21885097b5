"""TriAD core: the paper's primary contribution."""

from .config import DOMAINS, TriADConfig
from .detector import TriAD, TriADDetection
from .encoder import DilatedConvEncoder, ResidualBlock, TriDomainEncoder
from .losses import inter_domain_loss, intra_domain_loss, total_contrastive_loss
from .persistence import load_detector, save_detector
from .scoring import VoteResult, accumulate_votes, score_votes, threshold_votes
from .trainer import TrainResult, train_encoder
from .weighting import score_votes_weighted, weighted_votes

__all__ = [
    "DOMAINS",
    "TriADConfig",
    "TriAD",
    "TriADDetection",
    "DilatedConvEncoder",
    "ResidualBlock",
    "TriDomainEncoder",
    "inter_domain_loss",
    "intra_domain_loss",
    "total_contrastive_loss",
    "VoteResult",
    "accumulate_votes",
    "score_votes",
    "threshold_votes",
    "TrainResult",
    "train_encoder",
    "load_detector",
    "save_detector",
    "score_votes_weighted",
    "weighted_votes",
]
