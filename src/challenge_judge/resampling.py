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
REDUCE_DRAWS = 2**16  # draws mapped to indices per pass, sized to stay in cache
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
        with a uint64 key (a plain list sends seeds >= 2**63 through float64),
        bit for bit. One Philox instance is re-keyed per row and fills the
        row's ceil(n/2) raw 64-bit words at once; each word holds two 32-bit
        draws, low half first (numpy's ``next_uint32`` order), which
        ``_lemire`` maps to [0, n). A row holding a draw that numpy would
        reject and redraw (rare unless n is large) is regenerated by numpy's
        own call.
        """
        n = self.n
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        key = fresh["state"]["key"]
        words = (n + 1) // 2
        step = max(1, min(BLOCK_ROWS, REDUCE_DRAWS // n))
        raw = np.empty((step, words), dtype="<u8")  # little-endian: low half first
        product = np.empty((step, n), dtype="<u8")

        def fill(rows: np.ndarray, first: int) -> None:
            """Write index rows first, first + 1, ... into ``rows``."""
            for i in range(len(rows)):
                key[1] = first + i
                bitgen.state = fresh
                raw[i] = bitgen.random_raw(words)
            draws = raw[: len(rows)].view("<u4")[:, :n]
            indices, rejected = _lemire(draws, n, product[: len(rows)])
            rows[:] = indices
            for i in np.flatnonzero(rejected):
                key[1] = first + i
                bitgen.state = fresh
                rows[i] = gen.integers(0, n, size=n, dtype=np.int32)

        for start in range(0, self.b, BLOCK_ROWS):
            block = np.empty((min(BLOCK_ROWS, self.b - start), n), dtype=np.int32)
            for lo in range(0, len(block), step):
                fill(block[lo : lo + step], start + lo)
            yield block


def _lemire(draws: np.ndarray, n: int, product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (rows, n) uint32 draws to [0, n) as numpy's bounded integers do.

    Returns the high halves of the 64-bit products ``draws * n`` (the
    indices) and, per row, whether numpy would have rejected a draw there:
    a low half below ``(2**32 - n) % n``. ``product`` is a little-endian
    uint64 buffer of the draws' shape.
    """
    halves = np.multiply(draws, np.uint64(n), out=product).view("<u4")
    return halves[:, 1::2], halves[:, ::2].min(axis=1) < (2**32 - n) % n


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
    ``W @ A`` gives every team's counts at once, where A holds 2K+1 0/1
    indicator columns: each team's tp, each team's predicted positives,
    and the gold positives; then fp = pp - tp and fn = gp - tp. The
    product runs in float32 (float64 once n > 2**24, see ``_count_dtype``)
    and is exact because every partial sum is an integer <= n.

    ``threads`` is validated and otherwise ignored; results and speed do
    not depend on it.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if plan.n != ds.n:
        raise PlanMismatch(f"plan is for n={plan.n} but dataset has n={ds.n}")
    metrics = tuple(metrics)
    names = list(ds.teams)
    k = len(names)
    dtype = _count_dtype(plan.n)
    g = ds.gold == ds.positive
    p = np.column_stack([ds.teams[t] == ds.positive for t in names])
    # columns: every team's tp indicator, then every predicted positive, then gold
    indicators = np.column_stack([g[:, None] & p, p, g]).astype(dtype)

    def block_counts(block: np.ndarray) -> np.ndarray:
        rows = len(block)
        flat = (block + np.arange(rows, dtype=np.int64)[:, None] * plan.n).ravel()
        w = np.bincount(flat, minlength=rows * plan.n).reshape(rows, plan.n)
        return w.astype(dtype) @ indicators

    counts = np.vstack([block_counts(block) for block in plan.blocks()]).astype(np.int64)
    tp, pp, gp = counts[:, :k], counts[:, k : 2 * k], counts[:, 2 * k :]
    fp, fn = pp - tp, gp - tp
    out: dict[str, dict[MetricKind, ScoreDistribution]] = {}
    for j, team in enumerate(names):
        out[team] = {}
        for m in metrics:
            values, defined = metric_values(tp[:, j], fp[:, j], fn[:, j], m)
            out[team][m] = ScoreDistribution(m, values, int(np.sum(~defined)))
    return out


def _count_dtype(n: int) -> type:
    """The float type whose W @ A counts are exact for resamples of size n.

    float32 holds every integer up to 2**24 exactly, and is twice as fast
    as float64 through BLAS; larger n needs float64 (exact to 2**53).
    """
    return np.float32 if n <= 2**24 else np.float64


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
