"""Shared with-replacement index plans and bootstrap score distributions.

Every replicate row is drawn from its own counter-based stream keyed by
(seed, row), so any row can be regenerated in isolation and the result
does not depend on how rows are grouped. All teams are evaluated on the
same index rows, which is what makes per-replicate score differences
meaningful. Rows are generated and counted in fixed blocks, so memory
does not grow with b*n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .dataset import LabeledDataset
from .errors import PlanMismatch
from .metrics import ALL_METRICS, MetricKind, metric_values

DEFAULT_REPLICATES = 10_000
BLOCK_ROWS = 64  # replicate rows generated and counted together
SEED_LIMIT = 2**64  # a seed is one Philox key word: an integer in [0, 2**64)


@dataclass(frozen=True)
class ResamplePlan:
    """B rows of n with-replacement indices shared by every team.

    The plan stores only (n, b, seed); ``blocks`` regenerates the rows.
    """

    n: int
    b: int
    seed: int

    def blocks(self) -> Iterator[np.ndarray]:
        """Index rows in order, as (rows, n) int32 blocks of BLOCK_ROWS rows.

        Row r is ``Generator(Philox(key=[seed, r])).integers(0, n, size=n)``
        with a uint64 key (a plain list sends seeds >= 2**63 through float64);
        one Philox instance is re-keyed per row instead of built anew.
        """
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        key = fresh["state"]["key"]
        for start in range(0, self.b, BLOCK_ROWS):
            block = np.empty((min(BLOCK_ROWS, self.b - start), self.n), dtype=np.int32)
            for i, row in enumerate(block):
                key[1] = start + i
                bitgen.state = fresh
                row[:] = gen.integers(0, self.n, size=self.n, dtype=np.int32)
            yield block


@dataclass(frozen=True)
class ScoreDistribution:
    """Bootstrap scores of one (team, metric), aligned by replicate index."""

    metric: MetricKind
    values: np.ndarray  # shape (b,)
    degenerate_count: int

    @property
    def b(self) -> int:
        return len(self.values)


def make_plan(n: int, b: int, seed: int) -> ResamplePlan:
    """The shared index plan for ``b`` resamples of size ``n``.

    Deterministic in (n, b, seed); rows are independent counter-based
    streams, so any subset of rows can be regenerated in isolation.
    """
    if n < 1 or b < 1:
        raise ValueError(f"need n >= 1 and b >= 1, got n={n}, b={b}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return ResamplePlan(n=n, b=b, seed=seed)


def distributions(
    ds: LabeledDataset,
    plan: ResamplePlan,
    metrics: Iterable[MetricKind] = ALL_METRICS,
    threads: int | None = None,
) -> dict[str, dict[MetricKind, ScoreDistribution]]:
    """All teams' distributions for the given metrics, sharing one plan.

    Each block of rows becomes a (rows, n) multiplicity matrix W, and
    ``W @ A`` gives every team's tp, fp and fn at once, where A holds the
    0/1 indicators of each team's tp/fp/fn examples. The float64 product
    is exact because every partial sum is an integer <= n.

    ``threads`` is validated and otherwise ignored; results and speed do
    not depend on it.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if plan.n != ds.n:
        raise PlanMismatch(f"plan is for n={plan.n} but dataset has n={ds.n}")
    metrics = tuple(metrics)
    names = list(ds.teams)
    g = (ds.gold == ds.positive)[:, None]
    p = np.column_stack([ds.teams[t] == ds.positive for t in names])
    # columns: every team's tp indicator, then every fp, then every fn
    indicators = np.hstack([g & p, ~g & p, g & ~p]).astype(np.float64)

    def block_counts(block: np.ndarray) -> np.ndarray:
        rows = len(block)
        flat = (block + np.arange(rows, dtype=np.int64)[:, None] * plan.n).ravel()
        w = np.bincount(flat, minlength=rows * plan.n).reshape(rows, plan.n)
        return w @ indicators

    counts = np.vstack([block_counts(block) for block in plan.blocks()])
    out: dict[str, dict[MetricKind, ScoreDistribution]] = {}
    for j, team in enumerate(names):
        tp, fp, fn = counts[:, j :: len(names)].T
        out[team] = {}
        for m in metrics:
            values, defined = metric_values(tp, fp, fn, m)
            out[team][m] = ScoreDistribution(m, values, int(np.sum(~defined)))
    return out


def paired_difference(da: ScoreDistribution, db: ScoreDistribution) -> np.ndarray:
    """Element-wise score difference da - db, aligned by replicate."""
    if da.b != db.b:
        raise PlanMismatch(f"distributions have b={da.b} and b={db.b}")
    if da.metric is not db.metric:
        raise PlanMismatch(f"metric mismatch: {da.metric} vs {db.metric}")
    return da.values - db.values


def single_metric(
    dists: Mapping[str, Mapping[MetricKind, ScoreDistribution]], m: MetricKind
) -> dict[str, ScoreDistribution]:
    """Slice the nested team->metric map down to one metric."""
    return {team: by_metric[m] for team, by_metric in dists.items()}
