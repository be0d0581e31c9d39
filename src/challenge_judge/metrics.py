"""Positive-class confusion counts and the three challenge metrics.

Labels are opaque strings compared with exact (case-sensitive) equality;
one token is declared the positive class and everything else counts as
negative, so multiclass inputs degrade gracefully to positive-vs-rest.

A 0/0 metric evaluates to 0 with ``defined=False`` rather than raising:
every bootstrap replicate stays usable and reports can still count how
many replicates were degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from .errors import LengthMismatch

if TYPE_CHECKING:
    from .dataset import LabeledDataset


class MetricKind(Enum):
    PRECISION = "precision"
    RECALL = "recall"
    F1 = "f1"

    def __str__(self) -> str:
        return self.value


ALL_METRICS = (MetricKind.PRECISION, MetricKind.RECALL, MetricKind.F1)


@dataclass(frozen=True)
class ConfusionCounts:
    """Positive-class confusion counts of one prediction column against gold."""

    tp: int
    fp: int
    fn_: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn_", "tn"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")


@dataclass(frozen=True)
class Score:
    """A metric value in [0,1]; ``defined=False`` marks a 0/0 denominator."""

    value: float
    defined: bool = True


def lead_metric(metrics: Sequence[MetricKind]) -> MetricKind:
    """The metric that orders the leaderboard and picks the histogram pairs:
    F1 if it is run, else the first metric run."""
    return MetricKind.F1 if MetricKind.F1 in metrics else metrics[0]


def is_positive(labels, positive: str) -> np.ndarray:
    """Elementwise ``labels == positive``, comparing ``str`` objects exactly.

    The label goes in as a 0-d object array: numpy would convert a bare str
    operand to its fixed-width dtype, which drops trailing NULs, so that
    ``"p\\x00"`` would match ``"p"`` and ``"\\x00"`` the empty string.
    """
    return np.asarray(labels, dtype=object) == np.array(positive, dtype=object)


def confusion(gold: Sequence[str], pred: Sequence[str], positive: str) -> ConfusionCounts:
    """Count TP/FP/FN/TN of ``pred`` against ``gold`` for the positive class.

    Raises LengthMismatch if the vectors differ in length.
    """
    gold = np.asarray(gold, dtype=object)
    pred = np.asarray(pred, dtype=object)
    if gold.shape != pred.shape:
        raise LengthMismatch(
            f"gold has {gold.shape[0]} entries but pred has {pred.shape[0]}"
        )
    if gold.size == 0:
        raise LengthMismatch("label vectors must have at least one entry")
    mask = np.column_stack([is_positive(gold, positive), is_positive(pred, positive)])
    tp, pp, gp = count_columns(mask).sum(axis=0).tolist()
    return ConfusionCounts(tp, pp - tp, gp - tp, gold.size - pp - gp + tp)


def count_columns(mask: np.ndarray) -> np.ndarray:
    """The (n, 2K+1) 0/1 columns whose sums ``scores`` reads.

    ``mask`` is an (n, K+1) gold-then-teams positive mask, such as
    ``LabeledDataset.positive_mask``. The columns are each team's true
    positives, then each team's predicted positives, then the gold positives.
    """
    g, p = mask[:, :1], mask[:, 1:]
    return np.column_stack([g & p, p, g])


def scores(
    counts: np.ndarray, metrics: Iterable[MetricKind]
) -> dict[MetricKind, tuple[np.ndarray, np.ndarray]]:
    """``{metric: (values, defined)}`` from (..., 2K+1) sums of ``count_columns``.

    Per team, fp = pp - tp and fn = gp - tp. ``counts`` is used up: its
    predicted positives are turned into false positives in place, so the
    (b, K) counts of a bootstrap are not copied.
    """
    k = counts.shape[-1] // 2
    tp, fp, gp = counts[..., :k], counts[..., k : 2 * k], counts[..., 2 * k :]
    fp -= tp
    fn = gp - tp
    return {m: metric_values(tp, fp, fn, m) for m in metrics}


def metric_values(tp, fp, fn, kind: MetricKind):
    """Vectorized metric over parallel integer count arrays of any shape.

    Returns ``(values, defined)`` where undefined (0/0) entries hold 0.
    F1 is computed as 2tp / (2tp + fp + fn), which equals the harmonic
    mean of precision and recall whenever tp > 0, and is undefined for
    tp = 0 (precision, recall, or their sum degenerates there). Denominators
    are summed in the counts' own dtype, so no float copy of the counts is
    made; F1 doubles tp / den, which is bit for bit 2tp / den.
    """
    tp, fp, fn = np.asarray(tp), np.asarray(fp), np.asarray(fn)
    if kind is MetricKind.PRECISION:
        den = tp + fp
        defined = den > 0
    elif kind is MetricKind.RECALL:
        den = tp + fn
        defined = den > 0
    elif kind is MetricKind.F1:
        den = tp + tp + fp + fn
        defined = tp > 0
    else:
        raise ValueError(f"unknown metric {kind!r}")
    values = np.divide(tp, den, out=np.zeros(den.shape), where=defined)
    if kind is MetricKind.F1:
        values *= 2
    return values, defined


def score(c: ConfusionCounts, m: MetricKind) -> Score:
    """Evaluate one metric on one set of confusion counts."""
    values, defined = scores(np.array([c.tp, c.tp + c.fp, c.tp + c.fn_]), (m,))[m]
    return Score(float(values[0]), bool(defined[0]))


def point_estimates(ds: "LabeledDataset") -> Mapping[str, Mapping[MetricKind, Score]]:
    """Full-dataset scores for every team and metric, from ``ds.positive_mask``."""
    counts = count_columns(ds.positive_mask).sum(axis=0)
    out: dict[str, dict[MetricKind, Score]] = {team: {} for team in ds.teams}
    for m, (values, defined) in scores(counts, ALL_METRICS).items():
        for team, v, d in zip(ds.teams, values.tolist(), defined.tolist()):
            out[team][m] = Score(v, d)
    return out
