"""Confidence intervals, difference intervals, p-values, and star matrices.

Intervals use the percentile method: endpoints are empirical quantiles of
the bootstrap distribution with linear interpolation between order
statistics. The p-value for an oriented pair (A better than B by delta on
the full dataset) is the add-one fraction (exceed+1)/(b+1) of bootstrap
difference replicates reaching 2*delta, so p never degenerates to 0. The
bootstrap difference distribution is centered near delta, which is what
makes the 2*delta threshold play the role of the null's tail cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NegativeDelta, TooFewTeams
from .resampling import ScoreDistribution, check_aligned

DEFAULT_LEVEL = 0.95

# significance stars, most specific threshold wins
STAR_THRESHOLDS = (
    (0.001, "***"),
    (0.01, "**"),
    (0.05, "*"),
    (0.1, "†"),
)


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    point: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


@dataclass(frozen=True)
class DifferenceResult:
    """Paired-bootstrap comparison of team_a (better on the full data) vs team_b."""

    team_a: str
    team_b: str
    delta: float  # full-dataset score difference a - b
    ci: ConfidenceInterval
    mean: float  # bootstrap mean of the per-replicate differences

    @property
    def contains_zero(self) -> bool:
        return self.ci.contains(0.0)


@dataclass(frozen=True)
class PValueResult:
    p: float
    b_exceed: int


@dataclass(frozen=True)
class StarCell:
    delta: float  # column team score minus row team score, >= 0
    p: float
    stars: str


@dataclass(frozen=True)
class StarMatrix:
    """Lower-triangular pairwise significance table.

    ``teams`` is ordered by point estimate descending; ``cells`` maps
    (row_team, column_team) to a StarCell for every column ranked above
    its row. Diagonal and upper triangle carry no cells.
    """

    teams: tuple[str, ...]
    cells: Mapping[tuple[str, str], StarCell]


def percentile_ci(
    values: Sequence[float],
    level: float = DEFAULT_LEVEL,
    point: float | None = None,
) -> ConfidenceInterval:
    """Percentile bootstrap interval of an array of replicate values.

    ``point`` is the full-dataset estimate carried along for reporting;
    it defaults to the distribution mean when not supplied.
    """
    values = np.asarray(values, dtype=np.float64)
    (lower,), (upper,) = _percentile_rows(values.reshape(1, -1), level)
    if point is None:
        point = values.mean()
    return ConfidenceInterval(lower, upper, level, float(point))


def _percentile_rows(stack: np.ndarray, level: float) -> tuple[list[float], list[float]]:
    """Lower and upper percentile endpoints of each row of a (rows, b) array.

    Row by row, these equal the 1-D ``np.quantile`` calls bit for bit.
    """
    if stack.shape[1] == 0:
        raise ValueError("cannot take quantiles of an empty distribution")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(stack, [alpha, 1.0 - alpha], axis=1, method="linear")
    return lower.tolist(), upper.tolist()


def _stack(dists: Mapping[str, ScoreDistribution], teams: Sequence[str]) -> np.ndarray:
    """The teams' replicate values as one row-contiguous (K, b) array, in ``teams`` order.

    Raises PlanMismatch, as ``paired_difference`` would, unless every
    distribution has the first one's b and metric.
    """
    for team in teams[1:]:
        check_aligned(dists[teams[0]], dists[team])
    return np.stack([dists[team].values for team in teams])


def rank_teams(points: Mapping[str, float]) -> list[str]:
    """Teams sorted by point estimate descending, ties lexicographic."""
    return sorted(points, key=lambda t: (-points[t], t))


def ordered_intervals(
    dists: Mapping[str, ScoreDistribution],
    points: Mapping[str, float],
    level: float = DEFAULT_LEVEL,
) -> list[tuple[str, ConfidenceInterval]]:
    """Per-team percentile CIs sorted by full-dataset point estimate."""
    ranked = rank_teams(points)
    lower, upper = _percentile_rows(_stack(dists, ranked), level)
    return [
        (team, ConfidenceInterval(lo, hi, level, float(points[team])))
        for team, lo, hi in zip(ranked, lower, upper)
    ]


def differences_from_best(
    dists: Mapping[str, ScoreDistribution],
    points: Mapping[str, float],
    level: float = DEFAULT_LEVEL,
) -> list[DifferenceResult]:
    """Paired-difference CIs of the top-ranked team against every other.

    Results are sorted ascending by the bootstrap mean of the difference.
    """
    if len(dists) < 2:
        raise TooFewTeams(f"need at least two teams, have {len(dists)}")
    ranked = rank_teams(points)
    best = ranked[0]
    stack = _stack(dists, ranked)
    diffs = stack[0] - stack[1:]  # row j: the best team minus ranked[j + 1]
    lower, upper = _percentile_rows(diffs, level)
    results = []
    for other, lo, hi, mean in zip(ranked[1:], lower, upper, diffs.mean(axis=1).tolist()):
        delta = points[best] - points[other]
        ci = ConfidenceInterval(lo, hi, level, float(delta))
        results.append(DifferenceResult(best, other, delta, ci, mean))
    results.sort(key=lambda r: (r.mean, r.team_b))
    return results


def p_value(diffs: Sequence[float], delta: float) -> PValueResult:
    """Shifted-null bootstrap p-value for an oriented pair.

    ``diffs`` are per-replicate score differences A - B and ``delta`` the
    observed full-dataset difference, which must be >= 0 (the caller
    orients the pair so A is the higher-scoring team).

    Replicates tied exactly at the 2*delta threshold count as
    exceedances, which gives p=1 when a team is compared against an
    identical clone (all diffs and delta zero). Ties are common, since
    every metric is a ratio of integer counts: the OffendMEX
    reconstruction (spec seed 7, b=10,000, seed 42) has 35 across its 135
    (pair, metric) cells. The float comparison disagrees with the exact
    one on 14 of its replicates, so the convention does not always hold.
    """
    (result,) = _p_value_rows(np.asarray(diffs, dtype=np.float64).reshape(1, -1), [delta])
    return result


def _p_value_rows(diffs: np.ndarray, deltas: Sequence[float]) -> list[PValueResult]:
    """``p_value`` of each row of a (rows, b) difference array against its delta."""
    if negative := [delta for delta in deltas if delta < 0]:
        raise NegativeDelta(f"delta must be >= 0, got {negative[0]}")
    reach = diffs >= 2.0 * np.array(deltas, dtype=np.float64)[:, None]
    exceed = np.count_nonzero(reach, axis=1).tolist()
    return [PValueResult((e + 1) / (diffs.shape[1] + 1), e) for e in exceed]


def stars_for(p: float) -> str:
    for threshold, mark in STAR_THRESHOLDS:
        if p < threshold:
            return mark
    return ""


def star_matrix(
    dists: Mapping[str, ScoreDistribution],
    points: Mapping[str, float],
) -> StarMatrix:
    """Pairwise (column - row) differences with significance stars.

    Teams are ordered by point estimate descending; each cell compares a
    row team against a better-ranked column team, so deltas are >= 0
    (modulo exact ties, which give delta 0).
    """
    if len(dists) < 2:
        raise TooFewTeams(f"need at least two teams, have {len(dists)}")
    ranked = rank_teams(points)
    stack = _stack(dists, ranked)
    cells: dict[tuple[str, str], StarCell] = {}
    for i, row_team in enumerate(ranked[1:], start=1):
        # every column above this row at once: stack[j] - stack[i] against 2*delta
        above = ranked[:i]
        deltas = [points[col_team] - points[row_team] for col_team in above]
        for col_team, delta, pv in zip(above, deltas, _p_value_rows(stack[:i] - stack[i], deltas)):
            cells[(row_team, col_team)] = StarCell(delta, pv.p, stars_for(pv.p))
    return StarMatrix(tuple(ranked), cells)
