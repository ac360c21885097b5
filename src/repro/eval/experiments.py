"""Experiment registry: one entry per paper table/figure.

Maps each experiment id to its description and the benchmark module
that regenerates it, and centralizes the scaled-down default settings
the benches share (archive size, epochs) so results across
benches are comparable.  The paper runs 250 datasets x 5 seeds x 20
epochs on a GPU; the defaults here are sized for a CPU-only run while
preserving every qualitative shape (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import TriADConfig
from ..data.archive import make_archive
from ..data.spec import Dataset

__all__ = ["Experiment", "EXPERIMENTS", "bench_archive", "bench_config"]


@dataclass(frozen=True)
class Experiment:
    """A paper artifact and the bench that regenerates it."""

    id: str
    paper_artifact: str
    bench_module: str
    description: str


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment(
            "table2",
            "Table II",
            "benchmarks/bench_table2_pa_inflation.py",
            "PA inflates F1; random LSTM-AE rivals trained on one-liner data",
        ),
        Experiment(
            "table3",
            "Table III",
            "benchmarks/bench_table3_overall.py",
            "Overall comparison: TriAD vs 7 baselines, PA%K AUC + affiliation",
        ),
        Experiment(
            "table4",
            "Table IV",
            "benchmarks/bench_table4_merlin.py",
            "TriAD windows vs full-series MERLIN: event accuracy and inference time",
        ),
        Experiment(
            "fig1",
            "Fig. 1 & Fig. 5",
            "benchmarks/bench_fig1_augmentation.py",
            "Augmentations resemble anomalies; jitter/warp examples",
        ),
        Experiment(
            "fig2",
            "Fig. 2",
            "benchmarks/bench_fig2_lstmae_recon.py",
            "LSTM-AE reconstructs continuous anomalies too faithfully",
        ),
        Experiment(
            "fig6",
            "Fig. 6",
            "benchmarks/bench_fig6_length_dist.py",
            "Anomaly length distribution of the archive",
        ),
        Experiment(
            "fig7",
            "Fig. 7",
            "benchmarks/bench_fig7_search_ratio.py",
            "TriAD search span is a small fraction of full-series MERLIN",
        ),
        Experiment(
            "fig8",
            "Fig. 8",
            "benchmarks/bench_fig8_params.py",
            "Parameter study: alpha, encoder depth, h_d",
        ),
        Experiment(
            "fig9",
            "Fig. 9",
            "benchmarks/bench_fig9_ablation.py",
            "Ablation: drop each encoder / loss term",
        ),
        Experiment(
            "fig10_13",
            "Figs. 10-13",
            "benchmarks/bench_fig10_13_case_study.py",
            "Case study: similarity curves, MERLIN sweep, threshold study",
        ),
        Experiment(
            "fig16",
            "Figs. 14 & 16",
            "benchmarks/bench_fig16_diversity.py",
            "Anomaly-type diversity: TriAD vs MTGFlow per type",
        ),
        Experiment(
            "fig15",
            "Fig. 15",
            "benchmarks/bench_fig15_discord_fail.py",
            "Discord-fail exception recovers wide anomalies",
        ),
        Experiment(
            "ablation-scoring",
            "(extension)",
            "benchmarks/bench_ablation_scoring.py",
            "Uniform vs weighted voting x exception on/off",
        ),
        Experiment(
            "extended-baselines",
            "(extension)",
            "benchmarks/bench_extended_baselines.py",
            "SR / ChangePoint / Donut / DeepAnT vs TriAD, per-type breakdown",
        ),
    ]
}


def bench_archive(size: int = 12, seed: int = 7) -> list[Dataset]:
    """The shared scaled-down archive used by the benches."""
    return make_archive(size=size, seed=seed, train_length=1600, test_length=2000)


def bench_config(**overrides) -> TriADConfig:
    """TriAD settings for benches: paper architecture, fewer epochs."""
    defaults = dict(epochs=5, max_window=256)
    defaults.update(overrides)
    return TriADConfig(**defaults)
