"""Paired-bootstrap comparison of challenge competitors.

From a single gold-standard dataset and aligned per-team prediction
columns, compute precision/recall/F1 point estimates, bootstrap
confidence intervals, paired-difference intervals against the best team,
shifted-null p-values, and star significance matrices, plus CSV/LaTeX
tables and SVG figures.
"""

from .dataset import (
    LabeledDataset,
    ReconstructionSpec,
    load,
    reconstruct,
    write,
)
from .errors import ChallengeJudgeError
from .inference import (
    ConfidenceInterval,
    DifferenceResult,
    StarMatrix,
    differences_from_best,
    ordered_intervals,
    p_value,
    percentile_ci,
    star_matrix,
)
from .metrics import (
    ALL_METRICS,
    ConfusionCounts,
    MetricKind,
    Score,
    confusion,
    point_estimates,
    score,
)
from .pipeline import ComparisonReport, RunConfig, analyze
from .report import emit_tables
from .resampling import (
    ScoreDistribution,
    distributions,
    make_plan,
    paired_difference,
)
from .svgfig import emit_all_figures

__version__ = "0.1.0"

__all__ = [
    "ALL_METRICS",
    "ChallengeJudgeError",
    "ComparisonReport",
    "ConfidenceInterval",
    "ConfusionCounts",
    "DifferenceResult",
    "LabeledDataset",
    "MetricKind",
    "ReconstructionSpec",
    "RunConfig",
    "Score",
    "ScoreDistribution",
    "StarMatrix",
    "analyze",
    "confusion",
    "differences_from_best",
    "distributions",
    "emit_all_figures",
    "emit_tables",
    "load",
    "make_plan",
    "ordered_intervals",
    "p_value",
    "paired_difference",
    "percentile_ci",
    "point_estimates",
    "reconstruct",
    "score",
    "star_matrix",
    "write",
]
