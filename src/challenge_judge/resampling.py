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

import ctypes
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

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

        Row r is ``Generator(Philox(key=[seed, r])).integers(0, n, size=n)``
        with a uint64 key (a plain list sends seeds >= 2**63 through float64),
        bit for bit. One Philox instance is re-keyed per row and fills the
        row's ceil(n/2) raw 64-bit words at once; each word holds two 32-bit
        draws, low half first (numpy's ``next_uint32`` order), which
        ``_lemire`` maps to [0, n). A row holding a draw that numpy would
        reject and redraw (rare unless n is large) is regenerated by numpy's
        own call.

        A row is re-keyed by writing three words of the generator's state
        (``_store_rekey``): key word 1, counter word 0 and the buffer
        position. That state is numpy's private struct, so its layout is
        checked once per call, before the first write; if the check fails,
        each row is re-keyed by assigning a fresh state dict instead
        (``_dict_rekey``). Both give the same rows.

        A pass holds the largest power of two rows, at most BLOCK_ROWS, whose
        draws fit in REDUCE_DRAWS (at least one row), so passes tile the
        BLOCK_ROWS-row blocks exactly. ``idx`` is one reused buffer: the
        caller may change it in place but must be done with it before
        asking for the next pass.
        """
        n = self.n
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        rekey = _store_rekey(bitgen, gen, self.seed) or _dict_rekey(bitgen, self.seed)
        words = (n + 1) // 2
        step = 1 << (max(1, min(BLOCK_ROWS, REDUCE_DRAWS // n)).bit_length() - 1)
        raw = np.empty((step, words), dtype="<u8")  # little-endian: low half first
        product = np.empty((step, n), dtype="<u8")
        for first in range(0, self.b, step):
            rows = min(step, self.b - first)
            for i in range(rows):
                rekey(first + i)
                raw[i] = bitgen.random_raw(words)
            draws = raw[:rows].view("<u4")[:, :n]
            idx, rejected = _lemire(draws, n, product[:rows])
            for i in np.flatnonzero(rejected).tolist():
                rekey(first + i, redraw=True)
                idx[i] = gen.integers(0, n, size=n, dtype=np.int32)
            yield first, idx


class _PhiloxState(ctypes.Structure):
    """numpy's private ``philox_state`` (numpy/random/src/philox/philox.h).

    The layout is numpy's, not a public ABI: ``_store_rekey`` checks it on
    a fresh generator before writing through it.
    """

    _fields_ = [
        ("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
        ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
        ("buffer_pos", ctypes.c_int),
        ("buffer", ctypes.c_uint64 * 4),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


def _store_rekey(
    bitgen: np.random.Philox, gen: np.random.Generator, seed: int
) -> Callable[..., None] | None:
    """Re-key ``bitgen`` by writing its state words, or None if their layout fails the check.

    ``bitgen`` must be ``Philox(key=[seed, 0])`` with nothing drawn, and
    ``gen`` its Generator. No pointer is followed until the plain fields
    read as numpy sets them (an empty buffer of four zero words, position
    4, no spare 32-bit half); then the key must read [seed, 0] and the
    counter zero; then a probe row re-keyed by stores must draw what the
    state-dict path draws. Any mismatch or exception gives None.

    The returned ``rekey(row)`` writes key word 1 (the row), counter word 0
    (a row draws far fewer than 2**64 blocks, so words 1-3 stay 0) and the
    buffer position (4: the next draw computes a new block). With
    ``redraw=True`` it also drops the spare 32-bit half that numpy's
    ``integers`` would otherwise use first; ``random_raw`` ignores it.
    It writes into ``bitgen``'s memory, so it must not outlive ``bitgen``.
    """
    try:
        state = _PhiloxState.from_address(bitgen.ctypes.state_address)
        if (state.buffer_pos, state.has_uint32, *state.buffer) != (4, 0, 0, 0, 0, 0):
            return None
        key, ctr = state.key.contents, state.ctr.contents
        if (*key, *ctr) != (seed, 0, 0, 0, 0, 0):
            return None

        def rekey(row: int, redraw: bool = False) -> None:
            key[1] = row
            ctr[0] = 0
            state.buffer_pos = 4
            if redraw:
                state.has_uint32 = 0

        # probe: from a drawn word, a spare 32-bit half and a moved counter,
        # re-key to row 1 by stores and by the state dict, and compare a
        # 32-bit draw and raw words across a block boundary
        fresh = bitgen.state
        fresh["state"]["key"][1] = 1
        bitgen.random_raw(1)
        gen.integers(7, dtype=np.int32)
        rekey(1, redraw=True)
        got = [gen.integers(2**31 - 1, dtype=np.int32), *bitgen.random_raw(5)]
        bitgen.state = fresh
        want = [gen.integers(2**31 - 1, dtype=np.int32), *bitgen.random_raw(5)]
        return rekey if got == want else None
    except Exception:
        return None


def _dict_rekey(bitgen: np.random.Philox, seed: int) -> Callable[..., None]:
    """Re-key ``bitgen`` by assigning a fresh state dict: numpy's public path."""
    fresh = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)).state
    key = fresh["state"]["key"]

    def rekey(row: int, redraw: bool = False) -> None:
        key[1] = row
        bitgen.state = fresh

    return rekey


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

    Each replicate row is reduced to 2K+1 counts over 0/1 indicator columns:
    each team's tp, each team's predicted positives, and the gold positives;
    then fp = pp - tp and fn = gp - tp. ``_counts`` says how.

    ``threads`` is validated and otherwise ignored; results and speed do
    not depend on it.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if plan.n != ds.n:
        raise PlanMismatch(f"plan is for n={plan.n} but dataset has n={ds.n}")
    k = len(ds.teams)
    counts = _counts(plan, ds.positive_mask)
    tp, fp, gp = counts[:, :k], counts[:, k : 2 * k], counts[:, 2 * k :]
    fp -= tp  # predicted positives become false positives in place
    fn = gp - tp
    out: dict[str, dict[MetricKind, ScoreDistribution]] = {team: {} for team in ds.teams}
    for m in metrics:
        values, defined = metric_values(tp, fp, fn, m)
        degenerate = (~defined).sum(axis=0).tolist()
        for j, team in enumerate(ds.teams):
            out[team][m] = ScoreDistribution(m, values[:, j], degenerate[j])
    return out


def _counts(plan: ResamplePlan, mask: np.ndarray) -> np.ndarray:
    """The (b, 2K+1) int64 counts that ``distributions`` describes.

    ``mask`` is the dataset's (n, K+1) gold-then-teams ``positive_mask``.
    When the 2K+1 counts fit side by side in one 64-bit word at
    ``n.bit_length()`` bits each, the rows are summed as packed codes
    (``_packed_counts``); otherwise they are counted block by block through
    a multiplicity matrix (``_block_counts``). Both give the same integers.
    """
    g, p = mask[:, 0], mask[:, 1:]
    # columns: every team's tp indicator, then every predicted positive, then gold
    indicators = np.column_stack([g[:, None] & p, p, g])
    bits = plan.n.bit_length()
    if indicators.shape[1] * bits <= 64:
        return _packed_counts(plan, indicators, bits)
    indicators = indicators.astype(_count_dtype(plan.n))  # frees the bool copy before counting
    return _block_counts(plan, indicators)


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
    return fields.view(np.int64)  # every field is below 2**21


def _block_counts(plan: ResamplePlan, indicators: np.ndarray) -> np.ndarray:
    """Counts from one ``bincount`` per pass and one ``W @ A`` per block.

    Each pass of rows is counted by one ``bincount`` of its indices, offset
    by n per row, into a reused (BLOCK_ROWS, n) multiplicity matrix W. Once
    a block of BLOCK_ROWS rows (or the last, shorter one) is complete,
    ``W @ A`` writes every column's counts for it at once, where A is
    ``indicators`` in ``_count_dtype(n)``: float32, or float64 once
    n > 2**24. The product is exact because every partial sum is an
    integer <= n.
    """
    n = plan.n
    dtype = indicators.dtype
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
