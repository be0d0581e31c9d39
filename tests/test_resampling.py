import itertools
import tracemalloc

import numpy as np
import pytest

import challenge_judge as cj
from challenge_judge.errors import PlanMismatch
from challenge_judge.metrics import MetricKind, confusion, metric_values, score
from challenge_judge.resampling import (
    BLOCK_ROWS,
    _count_dtype,
    _lemire,
    distributions,
    make_plan,
    paired_difference,
)

F1, R = MetricKind.F1, MetricKind.RECALL
MULTI_BLOCK_B = 2 * BLOCK_ROWS + 5  # two full blocks and a partial one


def oracle_row(seed: int, row: int, n: int) -> np.ndarray:
    """Replicate row ``row`` drawn straight from its (seed, row)-keyed stream."""
    key = np.array([seed, row], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.integers(0, n, size=n, dtype=np.int32)


def multiply_shift_row(seed: int, row: int, n: int) -> np.ndarray:
    """Row ``row`` mapped from its raw Philox words without any rejection."""
    key = np.array([seed, row], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw((n + 1) // 2)
    low, high = words & np.uint64(2**32 - 1), words >> np.uint64(32)
    draws = np.column_stack([low, high]).ravel()[:n]
    return ((draws * np.uint64(n)) >> np.uint64(32)).astype(np.int32)


def indices(plan) -> np.ndarray:
    return np.concatenate(list(plan.blocks()))


class TestMakePlan:
    def test_single_example_dataset(self):
        plan = make_plan(1, 3, seed=99)
        assert np.all(indices(plan) == 0)

    def test_deterministic(self):
        a = make_plan(50, 200, seed=7)
        b = make_plan(50, 200, seed=7)
        assert np.array_equal(indices(a), indices(b))

    def test_seed_changes_plan(self):
        a = make_plan(50, 200, seed=7)
        b = make_plan(50, 200, seed=8)
        assert not np.array_equal(indices(a), indices(b))

    def test_rows_are_independent_streams(self):
        # any row can be regenerated in isolation from (seed, row),
        # including the rows on either side of each block boundary
        plan = make_plan(20, MULTI_BLOCK_B, seed=5)
        rows = indices(plan)
        assert rows.shape == (MULTI_BLOCK_B, 20) and rows.dtype == np.int32
        for r in range(MULTI_BLOCK_B):
            assert np.array_equal(rows[r], oracle_row(5, r, 20)), r

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 500, 2182, 30001])
    def test_every_row_matches_numpy_integers(self, n):
        plan = make_plan(n, MULTI_BLOCK_B, seed=9)
        rows = indices(plan)
        for r in range(MULTI_BLOCK_B):
            assert np.array_equal(rows[r], oracle_row(9, r, n)), r

    def test_rows_numpy_would_redraw_fall_back_to_numpy(self):
        # at n=30001 about a quarter of the rows hold a draw numpy rejects,
        # so the plain multiply-shift of their raw words is the wrong row
        n, b = 30001, BLOCK_ROWS
        rows = indices(make_plan(n, b, seed=1))
        redrawn = [
            r for r in range(b)
            if not np.array_equal(multiply_shift_row(1, r, n), oracle_row(1, r, n))
        ]
        assert len(redrawn) == 15
        for r in range(b):
            assert np.array_equal(rows[r], oracle_row(1, r, n)), r

    @pytest.mark.parametrize("n", [1, 3, 7, 2183, 30001, 2**31 - 1])
    def test_rejection_threshold_is_exact(self, n):
        # draws whose low product half lands just below, on and above numpy's
        # threshold, plus the extreme draws, against integer arithmetic
        threshold = (2**32 - n) % n
        inverse = pow(n, -1, 2**32)
        lows = [t for t in (threshold - 1, threshold, threshold + 1) if t >= 0]
        draws = [t * inverse % 2**32 for t in lows] + [0, 1, 2**31, 2**32 - 1]
        got, rejected = _lemire(
            np.array(draws, dtype="<u4")[:, None], n, np.empty((len(draws), 1), dtype="<u8")
        )
        assert got[:, 0].tolist() == [u * n >> 32 for u in draws]
        assert rejected.tolist() == [u * n % 2**32 < threshold for u in draws]

    @pytest.mark.parametrize("n", [20, 2183])  # 64 and 16 rows per generation pass
    def test_blocks_are_fixed_size_with_a_partial_tail(self, n):
        plan = make_plan(n, MULTI_BLOCK_B, seed=5)
        assert [len(block) for block in plan.blocks()] == [BLOCK_ROWS, BLOCK_ROWS, 5]

    def test_indices_in_range(self):
        rows = indices(make_plan(7, 500, seed=1))
        assert rows.min() >= 0
        assert rows.max() < 7

    def test_per_position_frequencies_uniform(self):
        # binomial check: each value's frequency at each position
        # stays within 5 sigma of b/5
        n, b = 5, 100_000
        rows = indices(make_plan(n, b, seed=3))
        sigma = np.sqrt(0.2 * 0.8 / b)
        for pos in range(n):
            freq = np.bincount(rows[:, pos], minlength=n) / b
            assert np.all(np.abs(freq - 0.2) < 5 * sigma)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_plan(0, 10, seed=1)
        with pytest.raises(ValueError):
            make_plan(10, 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_key_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            make_plan(10, 5, seed=seed)

    def test_largest_seed_is_a_valid_key(self):
        plan = make_plan(10, 3, seed=2**64 - 1)
        assert np.array_equal(indices(plan)[2], oracle_row(2**64 - 1, 2, 10))

    @pytest.mark.parametrize("a, b", [(2**63, 2**63 + 1), (0, 2**64 - 1)])
    def test_high_seeds_keep_their_own_stream(self, a, b):
        # float64 would merge each of these pairs into one key
        assert not np.array_equal(indices(make_plan(50, 2, a)), indices(make_plan(50, 2, b)))


class TestDistribution:
    def test_perfect_team_scores_one(self):
        gold = np.asarray(["p"] * 20 + ["n"] * 20)
        ds = cj.LabeledDataset(
            tuple(str(i) for i in range(40)), gold, {"t": gold.copy()}, "p"
        )
        plan = make_plan(40, 200, seed=0)
        d = distributions(ds, plan, (F1,))["t"][F1]
        assert np.all(d.values == 1.0)
        assert d.degenerate_count == 0

    def test_plan_size_mismatch(self, tiny_ds):
        plan = make_plan(4, 10, seed=0)
        with pytest.raises(PlanMismatch):
            distributions(tiny_ds, plan)

    def test_recall_mean_matches_exhaustive_enumeration(self, tiny_ds):
        # brute-force oracle: all 27 equally likely resamples of n=3
        gold = list(tiny_ds.gold)
        pred = list(tiny_ds.teams["A"])
        values = []
        for combo in itertools.product(range(3), repeat=3):
            c = confusion([gold[i] for i in combo], [pred[i] for i in combo], "pos")
            values.append(score(c, R).value)
        exact_mean = float(np.mean(values))
        exact_sd = float(np.std(values))

        b = 40_000
        plan = make_plan(3, b, seed=11)
        d = distributions(tiny_ds, plan, (R,))["A"][R]
        mc_sigma = exact_sd / np.sqrt(b)
        assert abs(float(d.values.mean()) - exact_mean) < 3 * mc_sigma

    def test_pairing_spot_check(self, toy_ds):
        # every team's score at replicate r comes from the same index row,
        # on both sides of each block boundary
        plan = make_plan(toy_ds.n, MULTI_BLOCK_B, seed=21)
        dists = distributions(toy_ds, plan)
        for r in (0, 17, BLOCK_ROWS - 1, BLOCK_ROWS, MULTI_BLOCK_B - 1):
            row = oracle_row(21, r, toy_ds.n)
            for team in toy_ds.teams:
                c = confusion(
                    toy_ds.gold[row], toy_ds.teams[team][row], toy_ds.positive
                )
                for m in cj.ALL_METRICS:
                    assert dists[team][m].values[r] == score(c, m).value

    def test_degenerate_count_matches_zero_denominators(self):
        # one positive in n=4: many resamples have no gold positives
        gold = np.asarray(["p", "n", "n", "n"])
        pred = np.asarray(["p", "p", "n", "n"])
        ds = cj.LabeledDataset(("1", "2", "3", "4"), gold, {"t": pred}, "p")
        plan = make_plan(4, 2000, seed=2)
        d = distributions(ds, plan, (R,))["t"][R]
        no_positive = np.sum((indices(plan) == 0).sum(axis=1) == 0)
        assert d.degenerate_count == no_positive
        assert d.degenerate_count > 0  # (3/4)^4 of replicates, with 2000 draws

    def test_strictly_better_team_dominates_every_replicate(self):
        rng = np.random.default_rng(8)
        gold = rng.choice(["p", "n"], size=60)
        worse = gold.copy()
        flip = rng.choice(60, size=20, replace=False)
        worse[flip] = np.where(worse[flip] == "p", "n", "p")
        better = gold.copy()
        better[flip[:8]] = worse[flip[:8]]  # errors a strict subset
        ds = cj.LabeledDataset(
            tuple(map(str, range(60))), gold, {"worse": worse, "better": better}, "p"
        )
        plan = make_plan(60, 1000, seed=4)
        dists = distributions(ds, plan, (F1,))
        dw, db = dists["worse"][F1], dists["better"][F1]
        assert np.all(db.values >= dw.values)

    def test_thread_count_does_not_change_results(self, toy_ds):
        plan = make_plan(toy_ds.n, 500, seed=13)
        serial = distributions(toy_ds, plan, threads=1)
        parallel = distributions(toy_ds, plan, threads=8)
        for team in toy_ds.teams:
            for m in cj.ALL_METRICS:
                assert np.array_equal(serial[team][m].values, parallel[team][m].values)
        with pytest.raises(ValueError):
            distributions(toy_ds, plan, threads=0)

    @pytest.mark.parametrize("n, pass_rows", [
        (37, 64), (1025, 32), (2183, 16), (20001, 2), (65537, 1),
    ])
    def test_matches_per_team_gather_reference(self, n, pass_rows):
        # reference: gather each team's tp/fp/fn category codes through the
        # full index matrix and count them row by row, for every pass size
        # "never" predicts no positive (tp = pp = 0, so precision and F1 are
        # degenerate in every row) and "always" predicts all (tp = gp, fn = 0)
        rng = np.random.default_rng(12)
        gold = rng.choice(["p", "n"], size=n)
        teams = {f"t{i}": rng.choice(["p", "n"], size=n) for i in range(4)}
        teams["never"] = np.full(n, "n")
        teams["always"] = np.full(n, "p")
        ds = cj.LabeledDataset(tuple(map(str, range(n))), gold, teams, "p")
        plan = make_plan(n, MULTI_BLOCK_B, seed=6)
        assert len(next(plan._passes())[1]) == pass_rows
        dists = distributions(ds, plan)
        rows = np.stack([oracle_row(6, r, n) for r in range(MULTI_BLOCK_B)])
        for team, pred in teams.items():
            cat = (2 * (gold == "p") + (pred == "p")).astype(np.int8)[rows]
            tp, fn, fp = ((cat == c).sum(axis=1) for c in (3, 2, 1))
            for m in cj.ALL_METRICS:
                values, defined = metric_values(tp, fp, fn, m)
                assert np.array_equal(dists[team][m].values, values)
                assert dists[team][m].degenerate_count == int(np.sum(~defined))

    def test_counts_use_float32_while_it_is_exact(self):
        # every partial sum of a replicate's counts is an integer <= n
        assert _count_dtype(2**24) is np.float32
        assert _count_dtype(2**24 + 1) is np.float64
        assert float(np.float32(2**24)) == 2**24
        assert float(np.float32(2**24 + 1)) != 2**24 + 1

    def test_memory_stays_bounded_on_the_paper_workload(self, offendmex_ds):
        # a materialized b x n plan alone would be 87 MB here
        plan = make_plan(offendmex_ds.n, 10_000, seed=42)
        tracemalloc.start()
        try:
            distributions(offendmex_ds, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_memory_stays_bounded_on_the_wide_shape(self):
        # the bench wide shape over two blocks and a partial one: one pass of
        # indices, one reused 64 x n W and the 2K+1 indicator columns, with
        # no per-block copies of W or of the indices
        rng = np.random.default_rng(3)
        n, labels = 20_000, np.array(["p", "n"], dtype=object)
        teams = {f"t{i:02d}": rng.choice(labels, size=n) for i in range(50)}
        ds = cj.LabeledDataset(
            tuple(map(str, range(n))), rng.choice(labels, size=n), teams, "p"
        )
        plan = make_plan(n, MULTI_BLOCK_B, seed=42)
        tracemalloc.start()
        try:
            distributions(ds, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"


class TestPairedDifference:
    def test_same_team_gives_zeros(self, toy_ds):
        plan = make_plan(toy_ds.n, 100, seed=1)
        d = distributions(toy_ds, plan, (F1,))["alpha"][F1]
        assert np.all(paired_difference(d, d) == 0.0)

    def test_linearity_of_means(self, toy_ds):
        plan = make_plan(toy_ds.n, 500, seed=1)
        dists = distributions(toy_ds, plan, (F1,))
        da, db = dists["alpha"][F1], dists["bravo"][F1]
        diff = paired_difference(da, db)
        assert diff.mean() == pytest.approx(
            da.values.mean() - db.values.mean(), abs=1e-12
        )

    def test_replicate_count_mismatch(self, toy_ds):
        da = distributions(toy_ds, make_plan(toy_ds.n, 100, seed=1), (F1,))["alpha"][F1]
        db = distributions(toy_ds, make_plan(toy_ds.n, 200, seed=1), (F1,))["bravo"][F1]
        with pytest.raises(PlanMismatch):
            paired_difference(da, db)

    def test_metric_mismatch(self, toy_ds):
        plan = make_plan(toy_ds.n, 100, seed=1)
        dists = distributions(toy_ds, plan, (F1, R))
        da, db = dists["alpha"][F1], dists["bravo"][R]
        with pytest.raises(PlanMismatch):
            paired_difference(da, db)

    def test_difference_mean_matches_exhaustive_enumeration(self, tiny_ds):
        gold = list(tiny_ds.gold)
        diffs_exact = []
        for combo in itertools.product(range(3), repeat=3):
            g = [gold[i] for i in combo]
            sc = {}
            for team in ("A", "B"):
                pred = [tiny_ds.teams[team][i] for i in combo]
                sc[team] = score(confusion(g, pred, "pos"), F1).value
            diffs_exact.append(sc["A"] - sc["B"])
        exact_mean = float(np.mean(diffs_exact))
        exact_sd = float(np.std(diffs_exact))

        b = 40_000
        plan = make_plan(3, b, seed=17)
        dists = distributions(tiny_ds, plan, (F1,))
        da, db = dists["A"][F1], dists["B"][F1]
        diff = paired_difference(da, db)
        assert abs(float(diff.mean()) - exact_mean) < 3 * exact_sd / np.sqrt(b)
