"""Shared with-replacement index plans and bootstrap score distributions.

Every replicate row is drawn from its own counter-based stream keyed by
(seed, row), so any row can be regenerated in isolation and the result
does not depend on how rows are grouped. All teams are evaluated on the
same index rows, which is what makes per-replicate score differences
meaningful. Rows are generated in cache-sized passes, and each pass is
counted straight into the b-row result, either by summing packed per-item
codes (few teams) or by one ``bincount`` into a reused block buffer, so
memory does not grow with b*n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .dataset import LabeledDataset
from .errors import PlanMismatch
from .metrics import ALL_METRICS, MetricKind, count_columns, scores

DEFAULT_REPLICATES = 10_000
BLOCK_ROWS = 64  # the most replicate rows generated or counted together
REDUCE_DRAWS = 2**16  # draws mapped to indices per pass, sized to stay in cache
SEED_LIMIT = 2**64  # a seed is one Philox key word: an integer in [0, 2**64)


@dataclass(frozen=True)
class ResamplePlan:
    """B rows of n with-replacement indices shared by every team.

    The plan stores only (n, b, seed), checked when it is made (``make_plan``
    is this constructor); ``_passes`` regenerates the rows.
    """

    n: int
    b: int
    seed: int

    def __post_init__(self):
        if self.n < 1 or self.b < 1:
            raise ValueError(f"need n >= 1 and b >= 1, got n={self.n}, b={self.b}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")

    def _passes(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(first_row, idx)``: rows first_row, first_row + 1, ... as int64.

        Row r is ``Generator(Philox(key=[seed, r])).integers(0, n, size=n)``,
        bit for bit. Before each row one Philox is re-keyed by its public
        ``state`` setter from one reused dict of lists (arrays set twice as
        slowly): key [seed, r], counter zero, empty buffer, no spare 32-bit
        half. The row's ceil(n/2) raw 64-bit words are drawn at once; each
        holds two 32-bit draws, low half first (numpy's ``next_uint32``
        order), which ``_lemire`` maps to [0, n). A row holding a draw numpy
        would reject and redraw (rare unless n is large) is numpy's own call.

        Passes hold ``_pow2_rows(REDUCE_DRAWS, n)`` rows, so they tile the
        counting blocks. ``idx`` is one reused buffer: the caller may change
        it in place but must be done with it before asking for the next pass.
        """
        n = self.n
        key = [self.seed, 0]
        fresh = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        words = (n + 1) // 2
        step = _pow2_rows(REDUCE_DRAWS, n)
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
            for i in np.flatnonzero(rejected).tolist():
                key[1] = first + i
                bitgen.state = fresh
                idx[i] = gen.integers(0, n, size=n, dtype=np.int32)
            yield first, idx


def _pow2_rows(draws: int, n: int) -> int:
    """The largest power of two rows of n, at most BLOCK_ROWS, within ``draws`` (at least 1)."""
    return 1 << (max(1, min(BLOCK_ROWS, draws // n)).bit_length() - 1)


def _lemire(draws: np.ndarray, n: int, product: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map (rows, n) uint32 draws to [0, n) as numpy's bounded integers do.

    Returns the high halves of the 64-bit products ``draws * n`` (the
    indices) and, per row, whether numpy would have rejected a draw there:
    a low half below ``(2**32 - n) % n``. ``product`` is a little-endian
    uint64 buffer of the draws' shape; it is shifted in place and the
    indices are its int64 view.
    """
    np.multiply(draws, np.uint64(n), out=product, dtype=np.uint64)
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


make_plan = ResamplePlan  # the public name of the plan's constructor


def distributions(
    ds: LabeledDataset,
    plan: ResamplePlan,
    metrics: Iterable[MetricKind] = ALL_METRICS,
    threads: int | None = None,
) -> dict[str, dict[MetricKind, ScoreDistribution]]:
    """All teams' distributions for the given metrics, sharing one plan.

    Each replicate row sums the dataset's ``count_columns`` (``_counts``
    says how), and ``scores`` turns those sums into metric values.

    ``threads`` is validated and otherwise ignored; results and speed do
    not depend on it.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if plan.n != ds.n:
        raise PlanMismatch(f"plan is for n={plan.n} but dataset has n={ds.n}")
    counts = _counts(plan, count_columns(ds.positive_mask))
    out: dict[str, dict[MetricKind, ScoreDistribution]] = {team: {} for team in ds.teams}
    for m, (values, defined) in scores(counts, metrics).items():
        degenerate = (~defined).sum(axis=0).tolist()
        for j, team in enumerate(ds.teams):
            out[team][m] = ScoreDistribution(m, values[:, j], degenerate[j])
    return out


def _counts(plan: ResamplePlan, columns: np.ndarray) -> np.ndarray:
    """The (b, c) int64 sums of (n, c) 0/1 ``columns`` over each plan row's items.

    When the c counts fit side by side in one 64-bit word at
    ``n.bit_length()`` bits each, the rows are summed as packed codes
    (``_packed_counts``); otherwise they are counted block by block through
    a multiplicity matrix (``_block_counts``). Both give the same integers.
    """
    bits = plan.n.bit_length()
    if columns.shape[1] * bits <= 64:
        return _packed_counts(plan, columns, bits)
    columns = columns.astype(_count_dtype(plan.n))  # frees a caller's temporary before counting
    return _block_counts(plan, columns)


def _packed_counts(plan: ResamplePlan, indicators: np.ndarray, bits: int) -> np.ndarray:
    """Counts from summing one packed uint64 code per drawn item.

    Item i's code holds indicator column j at bit ``j * bits``. A row's sum
    of codes holds each column's count in its own field: a count is at most
    n < 2**bits, so no carry crosses into the next field and the fields
    unpack to the exact integers. Every array here is uint64, so the shifts
    and sums stay 64-bit under any numpy casting rules.
    """
    shifts = np.arange(indicators.shape[1], dtype=np.uint64) * np.uint64(bits)
    code = np.zeros(plan.n, dtype=np.uint64)
    for column, shift in zip(indicators.T, shifts):  # faster than summing n short rows
        code |= column.astype(np.uint64) << shift
    packed = np.empty(plan.b, dtype=np.uint64)
    for first, idx in plan._passes():
        np.add.reduce(code.take(idx), axis=1, out=packed[first : first + len(idx)])
    fields = (packed[:, None] >> shifts) & np.uint64((1 << bits) - 1)
    return fields.view(np.int64)  # every field is at most n < 2**63


def _block_counts(plan: ResamplePlan, indicators: np.ndarray) -> np.ndarray:
    """Counts from one ``bincount`` per pass and one ``W @ A`` per block.

    Each pass of rows is counted by one ``bincount`` of its indices, offset
    by n per row, into a reused (block, n) multiplicity matrix W, where a
    block is ``_pow2_rows(BLOCK_ROWS * REDUCE_DRAWS, n)`` rows: W holds at
    most 2**22 counts. Once a block (or the last, shorter one) is complete,
    ``W @ A`` writes every column's counts for it at once, where A is
    ``indicators`` in ``_count_dtype(n)``: float32, or float64 once
    n > 2**24. The product is exact because every partial sum is an
    integer <= n.
    """
    n = plan.n
    dtype = indicators.dtype
    block = _pow2_rows(BLOCK_ROWS * REDUCE_DRAWS, n)
    offsets = np.arange(block, dtype=np.int64)[:, None] * n
    w = np.empty((block, n), dtype=dtype)
    counts = np.empty((plan.b, indicators.shape[1]), dtype=dtype)
    for first, idx in plan._passes():
        rows = len(idx)
        lo = first % block
        hi = lo + rows
        idx += offsets[:rows]
        w[lo:hi] = np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n)
        if hi == block or first + rows == plan.b:
            np.matmul(w[:hi], indicators, out=counts[first - lo : first + rows])
    return counts.astype(np.int64)


def _count_dtype(n: int) -> type:
    """The float type whose W @ A counts are exact for resamples of size n.

    float32 holds every integer up to 2**24 exactly, and is twice as fast
    as float64 through BLAS; larger n needs float64 (exact to 2**53).
    """
    return np.float32 if n <= 2**24 else np.float64


def check_aligned(da: ScoreDistribution, db: ScoreDistribution) -> None:
    """Raise PlanMismatch unless the two distributions share b and metric."""
    if da.b != db.b:
        raise PlanMismatch(f"distributions have b={da.b} and b={db.b}")
    if da.metric is not db.metric:
        raise PlanMismatch(f"metric mismatch: {da.metric} vs {db.metric}")


def paired_difference(da: ScoreDistribution, db: ScoreDistribution) -> np.ndarray:
    """Element-wise score difference da - db, aligned by replicate."""
    check_aligned(da, db)
    return da.values - db.values


def single_metric(
    dists: Mapping[str, Mapping[MetricKind, ScoreDistribution]], m: MetricKind
) -> dict[str, ScoreDistribution]:
    """Slice the nested team->metric map down to one metric."""
    return {team: by_metric[m] for team, by_metric in dists.items()}
