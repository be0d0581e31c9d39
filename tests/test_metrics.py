import numpy as np
import pytest
from hypothesis import given, strategies as st

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.errors import LengthMismatch
from challenge_judge.metrics import (
    ALL_METRICS,
    ConfusionCounts,
    MetricKind,
    confusion,
    count_columns,
    metric_values,
    score,
    scores,
)

P, R, F1 = MetricKind.PRECISION, MetricKind.RECALL, MetricKind.F1


class TestConfusion:
    def test_identity_case(self):
        c = confusion(["+", "+", "-"], ["+", "+", "-"], "+")
        assert (c.tp, c.fp, c.fn_, c.tn) == (2, 0, 0, 1)

    def test_total_disagreement(self):
        c = confusion(["+", "-"], ["-", "+"], "+")
        assert (c.tp, c.fp, c.fn_, c.tn) == (0, 1, 1, 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion(["+", "-"], ["+"], "+")

    def test_empty_vectors_rejected(self):
        with pytest.raises(LengthMismatch):
            confusion([], [], "+")

    @pytest.mark.parametrize("field", ["tp", "fp", "fn_", "tn"])
    def test_negative_count_rejected(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -1$"):
            ConfusionCounts(**{"tp": 1, "fp": 1, "fn_": 1, "tn": 1, field: -1})

    def test_nlpcic_reconstruction_counts(self, offendmex_ds):
        # tp = round(0.7100 * 600), tp + fp = round(tp / 0.7208)
        c = confusion(offendmex_ds.gold, offendmex_ds.teams["NLPCIC"], "offensive")
        assert (c.tp, c.fp, c.fn_, c.tn) == (426, 165, 174, 1417)
        assert c.tp + c.fp + c.fn_ + c.tn == 2182
        assert c.tp + c.fn_ == 600

    def test_identical_vectors_have_no_errors(self):
        rng = np.random.default_rng(0)
        v = rng.choice(["a", "b", "c"], size=30)
        c = confusion(v, v, "a")
        assert c.fp == 0 and c.fn_ == 0


class TestScore:
    def test_metric_values_rejects_a_non_metric(self):
        with pytest.raises(ValueError, match="^unknown metric 'f1'$"):
            metric_values(np.array([1]), np.array([0]), np.array([0]), "f1")

    def test_published_nlpcic_row(self):
        c = ConfusionCounts(426, 165, 174, 1417)
        assert round(score(c, P).value, 4) == 0.7208
        assert round(score(c, R).value, 4) == 0.7100
        assert round(score(c, F1).value, 4) == 0.7154

    def test_published_cenamrita_row(self):
        c = ConfusionCounts(551, 1201, 49, 381)
        assert round(score(c, P).value, 4) == 0.3145
        assert round(score(c, R).value, 4) == 0.9183
        assert round(score(c, F1).value, 4) == 0.4685

    def test_no_predicted_positives(self):
        c = ConfusionCounts(0, 0, 5, 5)
        s = score(c, P)
        assert s.value == 0.0 and not s.defined
        assert score(c, R).defined  # recall denominator is 5

    def test_no_gold_positives(self):
        c = ConfusionCounts(0, 3, 0, 7)
        assert not score(c, R).defined
        assert not score(c, F1).defined

    def test_f1_undefined_when_tp_zero(self):
        # precision and recall both defined but zero
        c = ConfusionCounts(0, 2, 3, 5)
        s = score(c, F1)
        assert s.value == 0.0 and not s.defined


counts_strategy = st.tuples(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)
).filter(lambda t: sum(t) > 0)


class TestProperties:
    @given(counts_strategy)
    def test_f1_is_harmonic_mean(self, counts):
        c = ConfusionCounts(*counts)
        p, r = score(c, P), score(c, R)
        if p.defined and r.defined and p.value + r.value > 0:
            expected = 2 * p.value * r.value / (p.value + r.value)
            assert abs(score(c, F1).value - expected) < 1e-12

    @given(counts_strategy, st.integers(1, 9))
    def test_scale_free(self, counts, k):
        c = ConfusionCounts(*counts)
        ck = ConfusionCounts(*(x * k for x in counts))
        for m in ALL_METRICS:
            assert score(c, m).value == pytest.approx(score(ck, m).value, abs=1e-12)
            assert score(c, m).defined == score(ck, m).defined

    @given(st.lists(st.sampled_from(["p", "n"]), min_size=1, max_size=30), st.data())
    def test_swapping_gold_and_pred_swaps_precision_and_recall(self, gold, data):
        pred = data.draw(
            st.lists(st.sampled_from(["p", "n"]), min_size=len(gold), max_size=len(gold))
        )
        fwd = confusion(gold, pred, "p")
        rev = confusion(pred, gold, "p")
        assert score(fwd, P) == score(rev, R)
        assert score(fwd, R) == score(rev, P)
        assert score(fwd, F1) == score(rev, F1)

    def test_count_columns_lay_out_tp_then_predicted_then_gold(self):
        # mask columns: gold, t1, t2
        mask = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [0, 0, 0]], dtype=bool)
        assert count_columns(mask).astype(int).tolist() == [
            [1, 0, 1, 0, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 0], [0, 0, 0, 0, 0],
        ]

    @pytest.mark.parametrize("tp, pp, gp", [
        ([[3], [0], [5]], [[4], [0], [5]], [[6], [2], [5]]),  # K = 1, b = 3
        ([[3, 0, 6], [1, 2, 0]], [[4, 0, 9], [1, 5, 3]], [[6], [2]]),  # K = 3, b = 2
    ])
    def test_scores_split_the_count_columns(self, tp, pp, gp):
        # counts laid out as count_columns sums them: tp..., pp..., gp
        tp, pp, gp = np.array(tp), np.array(pp), np.array(gp)
        counts = np.concatenate([tp, pp, gp], axis=1)
        got = scores(counts, ALL_METRICS)
        assert list(got) == list(ALL_METRICS)
        for m in ALL_METRICS:
            values, defined = metric_values(tp, pp - tp, gp - tp, m)
            assert np.array_equal(got[m][0], values)
            assert np.array_equal(got[m][1], defined)
        assert np.array_equal(counts[:, tp.shape[1] : -1], pp - tp)  # fp, in place

    def test_values_equal_one_float_division_of_the_counts(self):
        # every (tp, fp, fn) in [0, 100]^3, as (b, K) int64 blocks
        tp, fp, fn = (a.reshape(-1, 101) for a in np.mgrid[0:101, 0:101, 0:101])
        f = tp.astype(np.float64), fp.astype(np.float64), fn.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = {
                P: f[0] / (f[0] + f[1]), R: f[0] / (f[0] + f[2]),
                F1: 2.0 * f[0] / (2.0 * f[0] + f[1] + f[2]),
            }
        for m in ALL_METRICS:
            values, defined = metric_values(tp, fp, fn, m)
            assert values.shape == tp.shape
            assert np.array_equal(values[defined], expected[m][defined])
            assert not values[~defined].any()

    @given(counts_strategy)
    def test_values_in_unit_interval(self, counts):
        c = ConfusionCounts(*counts)
        for m in ALL_METRICS:
            assert 0.0 <= score(c, m).value <= 1.0


class TestPointEstimates:
    def test_matches_published_leaderboard(self, offendmex_ds):
        pts = cj.point_estimates(offendmex_ds)
        for team, (prec, rec, f1) in offendmex.LEADERBOARD.items():
            assert pts[team][P].value == pytest.approx(prec, abs=0.00005)
            assert pts[team][R].value == pytest.approx(rec, abs=0.00005)
            assert pts[team][F1].value == pytest.approx(f1, abs=0.00005)

    def test_perfect_team(self):
        gold = np.asarray(["p", "p", "n", "n"])
        ds = cj.LabeledDataset(("1", "2", "3", "4"), gold, {"t": gold.copy()}, "p")
        pts = cj.point_estimates(ds)
        assert all(pts["t"][m].value == 1.0 for m in ALL_METRICS)

    def test_toy_hand_computation(self, toy_ds):
        pts = cj.point_estimates(toy_ds)
        assert pts["alpha"][P].value == 0.5
        assert pts["alpha"][R].value == 0.5
        assert pts["alpha"][F1].value == 0.5
        assert pts["bravo"][P].value == pytest.approx(2 / 3)
        assert pts["bravo"][R].value == 1.0
        assert pts["bravo"][F1].value == pytest.approx(0.8)
