import numpy as np
import pytest
from hypothesis import given, strategies as st

import challenge_judge as cj
from challenge_judge.errors import NegativeDelta, PlanMismatch, TooFewTeams
from challenge_judge.inference import (
    ConfidenceInterval,
    DifferenceResult,
    StarCell,
    StarMatrix,
    differences_from_best,
    ordered_intervals,
    p_value,
    percentile_ci,
    rank_teams,
    star_matrix,
    stars_for,
)
from challenge_judge.metrics import MetricKind
from challenge_judge.resampling import (
    ScoreDistribution,
    distributions,
    make_plan,
    paired_difference,
    single_metric,
)

F1 = MetricKind.F1


def dist(values, metric=F1):
    values = np.asarray(values, dtype=np.float64)
    return ScoreDistribution(metric, values, 0)


class TestPercentileCI:
    def test_constant_distribution(self):
        ci = percentile_ci(dist([0.4] * 50).values, 0.95)
        assert (ci.lower, ci.upper) == (0.4, 0.4)

    def test_linear_interpolation_rule(self):
        # values 0.01..1.00; at level 0.90 the 5% quantile sits at
        # order-statistic position 99*0.05 = 4.95, i.e. 0.05 + 0.95*0.01
        values = np.arange(1, 101) / 100.0
        ci = percentile_ci(dist(values).values, 0.90)
        assert ci.lower == pytest.approx(0.0595, abs=1e-12)
        assert ci.upper == pytest.approx(0.9505, abs=1e-12)

    def test_point_passthrough(self):
        ci = percentile_ci(dist([0.1, 0.2, 0.3]).values, 0.95, point=0.25)
        assert ci.point == 0.25

    def test_shift_equivariance(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(size=400)
        base = percentile_ci(values, 0.9)
        shifted = percentile_ci(values + 0.25, 0.9)
        assert shifted.lower == pytest.approx(base.lower + 0.25, abs=1e-12)
        assert shifted.upper == pytest.approx(base.upper + 0.25, abs=1e-12)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError, match="empty distribution"):
            percentile_ci([])

    def test_bad_level(self):
        with pytest.raises(ValueError):
            percentile_ci(dist([0.1]).values, 1.0)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(0.5, 0.4, 0.95, 0.45)


class TestOrderedIntervals:
    def test_sorted_by_point_descending(self):
        dists = {t: dist(np.full(100, v)) for t, v in
                 [("low", 0.3), ("high", 0.9), ("mid", 0.6)]}
        points = {"low": 0.3, "high": 0.9, "mid": 0.6}
        out = ordered_intervals(dists, points)
        assert [t for t, _ in out] == ["high", "mid", "low"]

    def test_single_team(self):
        out = ordered_intervals({"solo": dist([0.5] * 10)}, {"solo": 0.5})
        assert len(out) == 1

    def test_tie_break_lexicographic(self):
        dists = {t: dist([0.5] * 10) for t in ("zeta", "alpha")}
        out = ordered_intervals(dists, {"zeta": 0.5, "alpha": 0.5})
        assert [t for t, _ in out] == ["alpha", "zeta"]


class TestDifferencesFromBest:
    def test_clone_team_exact_zero(self):
        values = np.linspace(0.4, 0.6, 100)
        dists = {"a": dist(values), "b": dist(values.copy())}
        out = differences_from_best(dists, {"a": 0.5, "b": 0.5})
        (res,) = out
        assert res.team_a == "a" and res.team_b == "b"  # lexicographic tie-break
        assert res.delta == 0.0
        assert (res.ci.lower, res.ci.upper) == (0.0, 0.0)
        assert res.contains_zero

    def test_mean_equals_difference_of_means(self, toy_ds):
        plan = make_plan(toy_ds.n, 800, seed=3)
        md = single_metric(distributions(toy_ds, plan), F1)
        points = {t: cj.point_estimates(toy_ds)[t][F1].value for t in toy_ds.teams}
        for res in differences_from_best(md, points):
            expect = md[res.team_a].values.mean() - md[res.team_b].values.mean()
            assert res.mean == pytest.approx(expect, abs=1e-12)

    def test_sorted_ascending_by_mean(self):
        rng = np.random.default_rng(0)
        dists, points = {}, {}
        for t, mu in [("best", 0.8), ("x", 0.7), ("y", 0.5), ("z", 0.6)]:
            dists[t] = dist(np.clip(rng.normal(mu, 0.02, 500), 0, 1))
            points[t] = mu
        out = differences_from_best(dists, points)
        means = [r.mean for r in out]
        assert means == sorted(means)
        assert all(r.team_a == "best" for r in out)

    def test_too_few_teams(self):
        with pytest.raises(TooFewTeams):
            differences_from_best({"a": dist([0.5])}, {"a": 0.5})


class TestPValue:
    def test_clone_gives_p_one(self):
        res = p_value(np.zeros(999), 0.0)
        assert res.p == 1.0

    def test_add_one_smoothing_floor(self):
        diffs = np.full(99, 0.01)  # none reach 2*delta
        res = p_value(diffs, 0.5)
        assert res.b_exceed == 0
        assert res.p == pytest.approx(1 / 100)

    def test_counts_and_formula(self):
        diffs = np.asarray([0.0, 0.05, 0.11, 0.2, 0.3])
        res = p_value(diffs, 0.05)  # threshold 0.1: three replicates reach it
        assert res.b_exceed == 3
        assert res.p == pytest.approx(4 / 6)

    def test_negative_delta_rejected(self):
        with pytest.raises(NegativeDelta):
            p_value(np.zeros(10), -0.01)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        diffs = rng.normal(0.02, 0.01, 500)
        base = p_value(diffs, 0.015)
        shuffled = p_value(rng.permutation(diffs), 0.015)
        assert base == shuffled


class TestStars:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.0005, "***"),
            (0.005, "**"),
            (0.03, "*"),
            (0.07, "†"),
            (0.2, ""),
            (0.1, ""),
            (0.05, "†"),
        ],
    )
    def test_threshold_table(self, p, expected):
        assert stars_for(p) == expected

    @given(st.floats(0.0, 1.0, allow_nan=False))
    def test_thresholds_are_nested(self, p):
        marks = stars_for(p)
        if marks == "***":
            assert p < 0.001 < 0.01 < 0.05 < 0.1
        if marks:
            assert p < 0.1


class TestStarMatrix:
    def test_structure_and_orientation(self, toy_ds):
        plan = make_plan(toy_ds.n, 500, seed=9)
        md = single_metric(distributions(toy_ds, plan), F1)
        points = {t: cj.point_estimates(toy_ds)[t][F1].value for t in toy_ds.teams}
        sm = star_matrix(md, points)
        assert sm.teams == ("bravo", "alpha")  # bravo has the higher F1
        assert set(sm.cells) == {("alpha", "bravo")}
        cell = sm.cells[("alpha", "bravo")]
        assert cell.delta == pytest.approx(points["bravo"] - points["alpha"])
        assert cell.delta >= 0
        assert cell.stars == stars_for(cell.p)

    def test_clone_cell_has_no_stars(self):
        values = np.linspace(0.3, 0.7, 200)
        dists = {"a": dist(values), "b": dist(values.copy())}
        sm = star_matrix(dists, {"a": 0.5, "b": 0.5})
        cell = sm.cells[("b", "a")]
        assert cell.delta == 0.0
        assert cell.p == 1.0
        assert cell.stars == ""

    def test_too_few_teams(self):
        with pytest.raises(TooFewTeams):
            star_matrix({"a": dist([0.5])}, {"a": 0.5})


class TestRankTeams:
    def test_descending_with_lexicographic_ties(self):
        points = {"b": 0.5, "a": 0.5, "c": 0.9}
        assert rank_teams(points) == ["c", "a", "b"]


# ---- the batched functions against the per-pair loop they replace ----

def loop_intervals(dists, points, level):
    alpha = (1.0 - level) / 2.0
    out = []
    for team in rank_teams(points):
        lo, hi = np.quantile(dists[team].values, [alpha, 1.0 - alpha], method="linear")
        out.append((team, ConfidenceInterval(float(lo), float(hi), level, float(points[team]))))
    return out


def loop_differences(dists, points, level):
    alpha = (1.0 - level) / 2.0
    ranked = rank_teams(points)
    out = []
    for other in ranked[1:]:
        diffs = paired_difference(dists[ranked[0]], dists[other])
        delta = points[ranked[0]] - points[other]
        lo, hi = np.quantile(diffs, [alpha, 1.0 - alpha], method="linear")
        ci = ConfidenceInterval(float(lo), float(hi), level, float(delta))
        out.append(DifferenceResult(ranked[0], other, delta, ci, float(diffs.mean())))
    return sorted(out, key=lambda r: (r.mean, r.team_b))


def loop_star_matrix(dists, points):
    ranked = rank_teams(points)
    cells = {}
    for i, row in enumerate(ranked):
        for col in ranked[:i]:
            delta = points[col] - points[row]
            pv = p_value(paired_difference(dists[col], dists[row]), delta)
            cells[(row, col)] = StarCell(delta, pv.p, stars_for(pv.p))
    return StarMatrix(tuple(ranked), cells)


@pytest.mark.parametrize("k", [1, 2, 10, 50])
@pytest.mark.parametrize("metric", list(MetricKind))
def test_batched_inference_equals_the_per_pair_loop(k, metric):
    # distributions as analyze makes them: column views of one (b, K) array,
    # with ties, equal teams and replicates that land exactly on 2*delta
    rng = np.random.default_rng(k)
    n_pos, n_neg = 60, 90
    teams = {f"t{j:02d}": (int(rng.integers(0, n_pos + 1)), int(rng.integers(0, n_neg + 1)))
             for j in range(k)}
    if k >= 2:
        teams["t01"] = teams["t00"]
    ds = cj.reconstruct(cj.ReconstructionSpec(n_pos, n_neg, teams), seed=k)
    md = single_metric(distributions(ds, make_plan(ds.n, 1000, seed=3), [metric]), metric)
    points = {t: cj.point_estimates(ds)[t][metric].value for t in ds.teams}
    for level in (0.95, 0.9):
        assert ordered_intervals(md, points, level) == loop_intervals(md, points, level)
    if k == 1:
        for batched in (differences_from_best, star_matrix):
            with pytest.raises(TooFewTeams):
                batched(md, points)
        return
    assert differences_from_best(md, points) == loop_differences(md, points, 0.95)
    assert star_matrix(md, points) == loop_star_matrix(md, points)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50), st.floats(0.01, 0.99))
def test_percentile_ci_equals_one_quantile_call(values, level):
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(np.asarray(values), [alpha, 1.0 - alpha], method="linear")
    ci = percentile_ci(values, level)
    assert (ci.lower, ci.upper, ci.point) == (float(lo), float(hi), float(np.mean(values)))


def test_mismatched_distributions_are_refused_as_paired_difference_refuses():
    dists = {"a": dist([0.5, 0.6]), "b": dist([0.4]), "c": dist([0.3, 0.2])}
    points = {"a": 0.6, "b": 0.5, "c": 0.4}
    for batched in (ordered_intervals, differences_from_best, star_matrix):
        with pytest.raises(PlanMismatch, match="distributions have b=2 and b=1"):
            batched(dists, points)
