"""Shared with-replacement index plans and bootstrap score distributions.

Every replicate row is drawn from its own counter-based stream keyed by
(seed, row), so any row can be regenerated in isolation and the result
does not depend on how rows are grouped. All teams are evaluated on the
same index rows, which is what makes per-replicate score differences
meaningful. Rows are generated in cache-sized passes, and each pass is
counted by one ``bincount`` into a reused block buffer, so memory does not
grow with b*n.
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

    The plan stores only (n, b, seed); ``_passes`` regenerates the rows.
    """

    n: int
    b: int
    seed: int

    def blocks(self) -> Iterator[np.ndarray]:
        """Index rows in order, as (rows, n) int32 blocks of BLOCK_ROWS rows.

        Row r is ``Generator(Philox(key=[seed, r])).integers(0, n, size=n)``
        bit for bit, and the last block holds the remaining ``b % BLOCK_ROWS``
        rows, if any. Blocks are copied from the passes of ``_passes``;
        ``distributions`` counts those passes directly.
        """
        for first, idx in self._passes():
            lo = first % BLOCK_ROWS
            if lo == 0:
                block = np.empty((min(BLOCK_ROWS, self.b - first), self.n), dtype=np.int32)
            block[lo : lo + len(idx)] = idx
            if lo + len(idx) == len(block):
                yield block

    def _passes(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(first_row, idx)``: rows first_row, first_row + 1, ... as int64.

        Row r is ``Generator(Philox(key=[seed, r])).integers(0, n, size=n)``
        with a uint64 key (a plain list sends seeds >= 2**63 through float64),
        bit for bit. One Philox instance is re-keyed per row and fills the
        row's ceil(n/2) raw 64-bit words at once; each word holds two 32-bit
        draws, low half first (numpy's ``next_uint32`` order), which
        ``_lemire`` maps to [0, n). A row holding a draw that numpy would
        reject and redraw (rare unless n is large) is regenerated by numpy's
        own call.

        A pass holds the largest power of two rows, at most BLOCK_ROWS, whose
        draws fit in REDUCE_DRAWS (at least one row), so passes tile the
        BLOCK_ROWS-row blocks exactly. ``idx`` is one reused buffer: the
        caller may change it in place but must be done with it before
        asking for the next pass.
        """
        n = self.n
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        key = fresh["state"]["key"]
        words = (n + 1) // 2
        step = 1 << (max(1, min(BLOCK_ROWS, REDUCE_DRAWS // n)).bit_length() - 1)
        raw = np.empty((step, words), dtype="<u8")  # little-endian: low half first
        product = np.empty((step, n), dtype="<u8")
        for first in range(0, self.b, step):
            rows = min(step, self.b - first)
            for i in range(rows):
                key[1] = first + i
                bitgen.state = fresh
                raw[i] = bitgen.random_raw(words)
            draws = raw[:rows].view("<u4")[:, :n]
            idx, rejected = _lemire(draws, n, product[:rows])
            for i in np.flatnonzero(rejected):
                key[1] = first + i
                bitgen.state = fresh
                idx[i] = gen.integers(0, n, size=n, dtype=np.int32)
            yield first, idx


def _lemire(draws: np.ndarray, n: int, product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (rows, n) uint32 draws to [0, n) as numpy's bounded integers do.

    Returns the high halves of the 64-bit products ``draws * n`` (the
    indices) and, per row, whether numpy would have rejected a draw there:
    a low half below ``(2**32 - n) % n``. ``product`` is a little-endian
    uint64 buffer of the draws' shape; it is shifted in place and the
    indices are its int64 view.
    """
    np.multiply(draws, np.uint64(n), out=product)
    rejected = product.view("<u4")[:, ::2].min(axis=1) < (2**32 - n) % n
    product >>= np.uint64(32)
    return product.view(np.int64), rejected


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

    Each pass of rows is counted by one ``bincount`` of its indices, offset
    by n per row, into a reused (BLOCK_ROWS, n) multiplicity matrix W. Once
    a block of BLOCK_ROWS rows (or the last, shorter one) is complete,
    ``W @ A`` writes every team's counts for it at once, where A holds 2K+1
    0/1 indicator columns: each team's tp, each team's predicted positives,
    and the gold positives; then fp = pp - tp and fn = gp - tp. The product
    runs in float32 (float64 once n > 2**24, see ``_count_dtype``) and is
    exact because every partial sum is an integer <= n.

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
    counts = _counts(plan, ds.positive_mask)
    tp, pp, gp = counts[:, :k], counts[:, k : 2 * k], counts[:, 2 * k :]
    fp, fn = pp - tp, gp - tp
    out: dict[str, dict[MetricKind, ScoreDistribution]] = {}
    for j, team in enumerate(names):
        out[team] = {}
        for m in metrics:
            values, defined = metric_values(tp[:, j], fp[:, j], fn[:, j], m)
            out[team][m] = ScoreDistribution(m, values, int(np.sum(~defined)))
    return out


def _counts(plan: ResamplePlan, mask: np.ndarray) -> np.ndarray:
    """The (b, 2K+1) int64 counts that ``distributions`` describes.

    ``mask`` is the dataset's (n, K+1) gold-then-teams ``positive_mask``.
    """
    n = plan.n
    dtype = _count_dtype(n)
    g, p = mask[:, 0], mask[:, 1:]
    # columns: every team's tp indicator, then every predicted positive, then gold
    indicators = np.column_stack([g[:, None] & p, p, g]).astype(dtype)
    offsets = np.arange(BLOCK_ROWS, dtype=np.int64)[:, None] * n
    w = np.empty((BLOCK_ROWS, n), dtype=dtype)
    counts = np.empty((plan.b, indicators.shape[1]), dtype=dtype)
    for first, idx in plan._passes():
        rows = len(idx)
        lo = first % BLOCK_ROWS
        hi = lo + rows
        idx += offsets[:rows]
        w[lo:hi] = np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n)
        if hi == BLOCK_ROWS or first + rows == plan.b:
            np.matmul(w[:hi], indicators, out=counts[first - lo : first + rows])
    return counts.astype(np.int64)


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
