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
from .resampling import ScoreDistribution, paired_difference

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
    if values.size == 0:
        raise ValueError("cannot take quantiles of an empty distribution")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    alpha = (1.0 - level) / 2.0
    lower, upper = np.quantile(values, [alpha, 1.0 - alpha], method="linear")
    if point is None:
        point = float(values.mean())
    return ConfidenceInterval(float(lower), float(upper), level, float(point))


def rank_teams(points: Mapping[str, float]) -> list[str]:
    """Teams sorted by point estimate descending, ties lexicographic."""
    return sorted(points, key=lambda t: (-points[t], t))


def ordered_intervals(
    dists: Mapping[str, ScoreDistribution],
    points: Mapping[str, float],
    level: float = DEFAULT_LEVEL,
) -> list[tuple[str, ConfidenceInterval]]:
    """Per-team percentile CIs sorted by full-dataset point estimate."""
    return [
        (team, percentile_ci(dists[team].values, level, points[team]))
        for team in rank_teams(points)
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
    results = []
    for other in ranked[1:]:
        diffs = paired_difference(dists[best], dists[other])
        delta = points[best] - points[other]
        ci = percentile_ci(diffs, level, point=delta)
        results.append(
            DifferenceResult(best, other, delta, ci, float(diffs.mean()))
        )
    results.sort(key=lambda r: (r.mean, r.team_b))
    return results


def p_value(diffs: Sequence[float], delta: float) -> PValueResult:
    """Shifted-null bootstrap p-value for an oriented pair.

    ``diffs`` are per-replicate score differences A - B and ``delta`` the
    observed full-dataset difference, which must be >= 0 (the caller
    orients the pair so A is the higher-scoring team).

    Replicates tied exactly at the 2*delta threshold count as
    exceedances. For continuous-valued metrics ties essentially never
    happen, and the convention gives the right degenerate answer p=1
    when a team is compared against an identical clone (all diffs and
    delta are zero).
    """
    if delta < 0:
        raise NegativeDelta(f"delta must be >= 0, got {delta}")
    diffs = np.asarray(diffs, dtype=np.float64)
    b_exceed = int(np.sum(diffs >= 2.0 * delta))
    p = (b_exceed + 1) / (diffs.size + 1)
    return PValueResult(p=p, b_exceed=b_exceed)


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
    cells: dict[tuple[str, str], StarCell] = {}
    for i, row_team in enumerate(ranked):
        for col_team in ranked[:i]:
            delta = points[col_team] - points[row_team]
            diffs = paired_difference(dists[col_team], dists[row_team])
            pv = p_value(diffs, delta)
            cells[(row_team, col_team)] = StarCell(delta, pv.p, stars_for(pv.p))
    return StarMatrix(tuple(ranked), cells)
