"""End-to-end analysis: dataset -> full comparison report."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .dataset import LabeledDataset
from .errors import ConfigError, IoFailure, UnknownTeam
from .inference import (
    DEFAULT_LEVEL,
    ConfidenceInterval,
    DifferenceResult,
    StarMatrix,
    differences_from_best,
    ordered_intervals,
    p_value,
    rank_teams,
    star_matrix,
)
from .metrics import ALL_METRICS, MetricKind, Score, lead_metric, point_estimates
from .resampling import (
    DEFAULT_REPLICATES,
    SEED_LIMIT,
    make_plan,
    distributions,
    paired_difference,
    single_metric,
)

MIN_REPLICATES = 100
NAME_MAX = 255  # bytes in one file name on common file systems


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: what to read, how to resample, what to write; checked when made."""

    input: Path | None = None
    positive: str = "offensive"
    b: int = DEFAULT_REPLICATES
    seed: int = 42
    level: float = DEFAULT_LEVEL
    metrics: tuple[MetricKind, ...] = ALL_METRICS
    out: Path | None = None
    pairs: tuple[tuple[str, str], ...] | None = None
    threads: int | None = None  # validated for compatibility; selects nothing

    def __post_init__(self):
        if self.b < MIN_REPLICATES:
            raise ConfigError(f"b must be >= {MIN_REPLICATES}, got {self.b}")
        if not 0.5 <= self.level < 1.0:
            raise ConfigError(f"level must be in [0.5, 1), got {self.level}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if not self.metrics:
            raise ConfigError("metrics subset must be non-empty")
        if len(set(self.metrics)) != len(self.metrics):
            raise ConfigError(f"metrics must not repeat, got {list(map(str, self.metrics))}")
        if not self.positive:
            raise ConfigError("positive label must be non-empty")
        if self.threads is not None and self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        seen = set()
        for a, b in self.pairs or ():
            if a == b:
                raise ConfigError(f"pair {a}:{b} compares a team with itself")
            if frozenset((a, b)) in seen:  # analyze orients every pair
                raise ConfigError(f"pair {a}:{b} repeats an earlier pair")
            seen.add(frozenset((a, b)))


@dataclass(frozen=True)
class PairAnalysis:
    """Histogram-ready paired comparison of two teams on one metric."""

    team_a: str  # higher full-dataset score
    team_b: str
    metric: MetricKind
    delta: float
    p: float
    b_exceed: int
    diffs: np.ndarray


@dataclass(frozen=True)
class MetricReport:
    metric: MetricKind
    intervals: list[tuple[str, ConfidenceInterval]]
    differences: list[DifferenceResult] = field(default_factory=list)
    stars: StarMatrix | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """Everything the emitters need, in one immutable bundle.

    ``threads`` is deliberately absent: it changes neither results nor
    speed, so only result-relevant settings are echoed.
    """

    b: int
    seed: int
    level: float
    positive: str
    metrics: tuple[MetricKind, ...]
    teams: tuple[str, ...]
    points: Mapping[str, Mapping[MetricKind, Score]]
    degenerate: Mapping[str, Mapping[MetricKind, int]]
    by_metric: Mapping[MetricKind, MetricReport]
    pairs: tuple[PairAnalysis, ...]


def pair_name(team_a: str, team_b: str) -> str:
    return f"{team_a}_vs_{team_b}"


def histogram_file(name: str) -> str:
    """The file name of the fig3 histogram of the pair called ``name`` (a ``pair_name``)."""
    return f"fig3_{name}.svg"


def check_figure_names(teams: Iterable[str], pairs: Iterable[tuple[str, str]]) -> list[str]:
    """Raise ConfigError unless every figure can be written under its name and draw its teams.

    Each pair's fig3 file name may hold no ``/`` or NUL, must fit in
    NAME_MAX UTF-8 bytes, and must differ from every other pair's. Every
    team is drawn in fig1 or fig2, so no team name may hold a character
    that XML 1.0 forbids even as a reference: a control character other
    than tab, newline and carriage return, a surrogate, U+FFFE or U+FFFF.
    Returns the fig3 file names, in pair order.
    """
    seen: dict[str, str] = {}
    for a, b in pairs:
        name = histogram_file(pair_name(a, b))
        pair = f"{a}:{b}"
        if "/" in name or "\0" in name:
            raise ConfigError(f"pair {pair}: figure name {name!r} holds '/' or NUL")
        if len(name.encode()) > NAME_MAX:
            raise ConfigError(f"pair {pair}: figure name {name!r} exceeds {NAME_MAX} bytes")
        if name in seen:
            raise ConfigError(f"pairs {seen[name]} and {pair} share the figure name {name!r}")
        seen[name] = pair
    for team in teams:
        if bad := re.search(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", team):
            raise ConfigError(f"team {team!r} holds U+{ord(bad[0]):04X}, which SVG cannot carry")
    return list(seen)


def check_run(ds: LabeledDataset, config: RunConfig, points: Mapping) -> list[tuple[str, str]]:
    """Make every refusal that needs the data but not the bootstrap; return the fig3 pairs.

    ``analyze`` calls it before resampling, and ``validate`` calls it too.
    """
    for pair in config.pairs or ():
        for t in pair:
            if t not in ds.teams:
                raise UnknownTeam(f"pair names unknown team {t!r}")
    lead = lead_metric(config.metrics)
    lead_pts = {t: points[t][lead].value for t in ds.teams}
    if config.pairs is not None:
        pair_list = config.pairs
    else:
        ranked = rank_teams(lead_pts)
        pair_list = [(ranked[0], other) for other in ranked[1:3]]
    # each pair as the star matrix orients it: higher score first, ties by name
    oriented = [rank_teams({t: lead_pts[t] for t in pair}) for pair in pair_list]
    check_figure_names(ds.teams, oriented)
    if config.out is not None:  # mkdir(parents=True) needs a directory above the missing part
        here = next(p for p in (config.out, *config.out.parents) if p.exists())
        if not here.is_dir():
            raise IoFailure(f"cannot create {config.out}: {here} is not a directory")
    return oriented


def analyze(ds: LabeledDataset, config: RunConfig) -> ComparisonReport:
    """Run the full paired-bootstrap comparison on a validated dataset."""
    points = point_estimates(ds)
    oriented = check_run(ds, config, points)
    hist_metric = lead_metric(config.metrics)

    plan = make_plan(ds.n, config.b, config.seed)
    dists = distributions(ds, plan, config.metrics)

    by_metric: dict[MetricKind, MetricReport] = {}
    for m in config.metrics:
        md = single_metric(dists, m)
        pts = {t: points[t][m].value for t in ds.teams}
        intervals = ordered_intervals(md, pts, config.level)
        if len(ds.teams) >= 2:
            diffs = differences_from_best(md, pts, config.level)
            stars = star_matrix(md, pts)
        else:
            diffs, stars = [], None
        by_metric[m] = MetricReport(m, intervals, diffs, stars)

    pairs = []
    hm = single_metric(dists, hist_metric)
    for a, b in oriented:
        delta = points[a][hist_metric].value - points[b][hist_metric].value
        d = paired_difference(hm[a], hm[b])
        pv = p_value(d, delta)
        pairs.append(PairAnalysis(a, b, hist_metric, delta, pv.p, pv.b_exceed, d))

    degenerate = {
        t: {m: dists[t][m].degenerate_count for m in config.metrics} for t in ds.teams
    }
    return ComparisonReport(
        b=config.b,
        seed=config.seed,
        level=config.level,
        positive=ds.positive,
        metrics=tuple(config.metrics),
        teams=ds.team_names,
        points=points,
        degenerate=degenerate,
        by_metric=by_metric,
        pairs=tuple(pairs),
    )
