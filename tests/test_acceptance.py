"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

Criteria 1-2 check exact and Monte Carlo reproduction of the published
MeOffendEs subtask-3 results from confusion-count reconstructions.
Criteria 3-5 are property-based: clone degeneracy, exhaustive-enumeration
oracles, CI/p-value duality, and CI coverage in a known synthetic world.
Criteria 6-7 pin CLI determinism and the figure color contract.
"""

import functools
import itertools
import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.cli import main
from challenge_judge.dataset import reconstruct, write
from challenge_judge.inference import p_value, percentile_ci, rank_teams
from challenge_judge.metrics import MetricKind, confusion, point_estimates, score
from challenge_judge.pipeline import RunConfig, analyze
from challenge_judge.resampling import (
    distributions,
    make_plan,
    paired_difference,
    single_metric,
)

P, R, F1 = MetricKind.PRECISION, MetricKind.RECALL, MetricKind.F1

# published 95% bootstrap intervals, per metric, best first
TABLE2 = {
    P: [
        ("NLPCIC", 0.6844, 0.7572), ("DCCDINFOTEC", 0.6585, 0.7345),
        ("CIMATGTO", 0.6578, 0.7338), ("CICIPN", 0.6458, 0.7290),
        ("UMUTeam", 0.6381, 0.7143), ("CIMATMTYGTO", 0.6175, 0.6888),
        ("Timen", 0.5691, 0.6474), ("xjywing", 0.3182, 0.3656),
        ("aomar", 0.3011, 0.3470), ("CENAmrita", 0.2926, 0.3364),
    ],
    R: [
        ("CENAmrita", 0.8962, 0.9402), ("xjywing", 0.8632, 0.9134),
        ("aomar", 0.8485, 0.9015), ("CIMATMTYGTO", 0.7260, 0.7935),
        ("NLPCIC", 0.6739, 0.7458), ("DCCDINFOTEC", 0.6351, 0.7112),
        ("UMUTeam", 0.6269, 0.7025), ("CIMATGTO", 0.6255, 0.7011),
        ("Timen", 0.5608, 0.6392), ("CICIPN", 0.4946, 0.5751),
    ],
    F1: [
        ("NLPCIC", 0.6864, 0.7438), ("CIMATMTYGTO", 0.6739, 0.7306),
        ("DCCDINFOTEC", 0.6536, 0.7152), ("CIMATGTO", 0.6481, 0.7098),
        ("UMUTeam", 0.6393, 0.7011), ("Timen", 0.5713, 0.6365),
        ("CICIPN", 0.5665, 0.6363), ("xjywing", 0.4676, 0.5196),
        ("aomar", 0.4470, 0.4987), ("CENAmrita", 0.4433, 0.4935),
    ],
}


def announce(number: int, description: str):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"\nACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorator


@announce(1, "leaderboard point estimates reproduce exactly, < 1 s")
def test_criterion_1_point_estimates():
    start = time.perf_counter()
    ds = reconstruct(offendmex.reconstruction_spec(), seed=7)
    pts = point_estimates(ds)
    elapsed = time.perf_counter() - start
    for team, published in offendmex.LEADERBOARD.items():
        for m, expect in zip((P, R, F1), published):
            assert round(pts[team][m].value, 4) == pytest.approx(expect, abs=0.0001)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@announce(2, "marginal CI endpoints within ±0.010 of published, < 10 s")
def test_criterion_2_marginal_intervals(offendmex_ds):
    start = time.perf_counter()
    report = analyze(
        offendmex_ds, RunConfig(positive="offensive", b=10_000, seed=42, threads=4)
    )
    elapsed = time.perf_counter() - start
    for m, rows in TABLE2.items():
        got = dict(report.by_metric[m].intervals)
        order = [team for team, _ in report.by_metric[m].intervals]
        assert order == [team for team, _, _ in rows]
        for team, lo, hi in rows:
            assert got[team].lower == pytest.approx(lo, abs=0.010)
            assert got[team].upper == pytest.approx(hi, abs=0.010)
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@announce(3, "clone degeneracy, exhaustive toy oracle, CI/p-value duality")
def test_criterion_3_paired_properties(tiny_ds):
    # (a) team vs its own clone: difference CI exactly (0,0), p = 1
    gold = np.asarray(["p"] * 30 + ["n"] * 70)
    pred = gold.copy()
    pred[5:12] = "n"
    pred[40:50] = "p"
    ds = cj.LabeledDataset(
        tuple(map(str, range(100))), gold, {"orig": pred, "clone": pred.copy()}, "p"
    )
    plan = make_plan(100, 1000, seed=0)
    dists = single_metric(distributions(ds, plan), F1)
    diffs = paired_difference(dists["orig"], dists["clone"])
    ci = percentile_ci(diffs, 0.95, point=0.0)
    assert (ci.lower, ci.upper) == (0.0, 0.0)
    assert p_value(diffs, 0.0).p == 1.0

    # (b) n=3 toy: Monte Carlo difference mean and exceedance fraction
    # vs the exhaustive 27-resample oracle, within 3 binomial SE
    gold3 = list(tiny_ds.gold)
    exact_diffs = []
    for combo in itertools.product(range(3), repeat=3):
        g = [gold3[i] for i in combo]
        fb = score(confusion(g, [tiny_ds.teams["B"][i] for i in combo], "pos"), F1).value
        fa = score(confusion(g, [tiny_ds.teams["A"][i] for i in combo], "pos"), F1).value
        exact_diffs.append(fb - fa)
    exact_diffs = np.asarray(exact_diffs)
    pts = point_estimates(tiny_ds)
    delta = pts["B"][F1].value - pts["A"][F1].value
    exact_mean = exact_diffs.mean()
    exact_sd = exact_diffs.std()
    exact_exceed = float(np.mean(exact_diffs >= 2 * delta))

    b = 20_000
    plan3 = make_plan(3, b, seed=31)
    d3 = single_metric(distributions(tiny_ds, plan3), F1)
    mc_diffs = paired_difference(d3["B"], d3["A"])
    assert abs(mc_diffs.mean() - exact_mean) < 3 * exact_sd / np.sqrt(b)
    mc_exceed = p_value(mc_diffs, delta).b_exceed / b
    se = np.sqrt(exact_exceed * (1 - exact_exceed) / b)
    assert abs(mc_exceed - exact_exceed) < 3 * se

    # (c) duality: difference CI excluding zero on the positive side
    # implies p < (1-level)/2 + 1/(b+1), over 100 random pairs
    rng = np.random.default_rng(2024)
    b, level = 2000, 0.95
    bound = (1 - level) / 2 + 1 / (b + 1)
    spec = offendmex.reconstruction_spec()
    pairs_checked = 0
    while pairs_checked < 100:
        dsr = reconstruct(spec, seed=int(rng.integers(1e9)))
        ptsr = point_estimates(dsr)
        planr = make_plan(dsr.n, b, seed=int(rng.integers(1e9)))
        distsr = distributions(dsr, planr, threads=4)
        teams = list(dsr.teams)
        for _ in range(5):
            if pairs_checked >= 100:
                break
            a, c = rng.choice(teams, 2, replace=False)
            m = cj.ALL_METRICS[int(rng.integers(3))]
            md = single_metric(distsr, m)
            pa, pc = ptsr[a][m].value, ptsr[c][m].value
            hi, lo = (a, c) if pa >= pc else (c, a)
            dd = paired_difference(md[hi], md[lo])
            ci = percentile_ci(dd, level, abs(pa - pc))
            pairs_checked += 1
            if ci.lower > 0:
                assert p_value(dd, abs(pa - pc)).p < bound


@announce(4, "directional significance conclusions stable over 10 seeds")
def test_criterion_4_directional_sanity():
    spec = offendmex.reconstruction_spec()
    for seed in range(10):
        ds = reconstruct(spec, seed=seed)
        pts = point_estimates(ds)
        plan = make_plan(ds.n, 10_000, seed=100 + seed)
        d = single_metric(distributions(ds, plan, (F1,)), F1)

        delta_runner = pts["NLPCIC"][F1].value - pts["CIMATMTYGTO"][F1].value
        p_runner = p_value(
            paired_difference(d["NLPCIC"], d["CIMATMTYGTO"]), delta_runner
        ).p
        assert 0.05 < p_runner < 0.5, f"seed {seed}: p={p_runner}"

        delta_third = pts["NLPCIC"][F1].value - pts["DCCDINFOTEC"][F1].value
        p_third = p_value(
            paired_difference(d["NLPCIC"], d["DCCDINFOTEC"]), delta_third
        ).p
        assert 0.001 < p_third < 0.1, f"seed {seed}: p={p_third}"


@announce(5, "95% CI covers known truth in 95% ± 2% of synthetic worlds, < 2 min")
def test_criterion_5_coverage():
    start = time.perf_counter()
    n, b, sims = 500, 2000, 1000
    pi_pos, recall_true, fp_rate = 0.3, 0.8, 0.25
    precision_true = pi_pos * recall_true / (pi_pos * recall_true + (1 - pi_pos) * fp_rate)
    truth = {P: precision_true, R: recall_true}
    covered = {P: 0, R: 0}
    world = np.random.default_rng(8675309)
    for sim in range(sims):
        gold_pos = world.random(n) < pi_pos
        pred_pos = np.where(
            gold_pos, world.random(n) < recall_true, world.random(n) < fp_rate
        )
        gold = np.where(gold_pos, "p", "n")
        pred = np.where(pred_pos, "p", "n")
        ds = cj.LabeledDataset(
            tuple(map(str, range(n))), gold, {"sys": pred}, "p"
        )
        plan = make_plan(n, b, seed=sim)
        dists = distributions(ds, plan, (P, R))["sys"]
        for m in (P, R):
            ci = percentile_ci(dists[m].values, 0.95)
            if ci.lower <= truth[m] <= ci.upper:
                covered[m] += 1
    elapsed = time.perf_counter() - start
    for m in (P, R):
        rate = covered[m] / sims
        assert 0.93 <= rate <= 0.97, f"{m}: coverage {rate:.3f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


@announce(6, "analyze output is byte-identical across runs and thread counts")
def test_criterion_6_determinism(tmp_path):
    csv = tmp_path / "challenge.csv"
    write(reconstruct(offendmex.reconstruction_spec(), seed=7), csv)
    outs = []
    for name, threads in (("run1", "1"), ("run2", "8"), ("run3", "1")):
        out = tmp_path / name
        code = main([
            "analyze", "--input", str(csv), "--positive", "offensive",
            "--out", str(out), "--b", "1000", "--seed", "42",
            "--threads", threads,
        ])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes(), name


@announce(7, "difference-plot color encodes exactly the contains-zero flag")
def test_criterion_7_plot_contract(full_report, tmp_path):
    from challenge_judge.report import emit_tables
    from challenge_judge.svgfig import emit_all_figures

    emit_tables(full_report, tmp_path)
    emit_all_figures(full_report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    expected = []
    for m in doc["config"]["metrics"]:
        expected.extend(e["contains_zero"] for e in doc["metrics"][m]["differences"])
    root = ET.parse(tmp_path / "fig2_differences.svg").getroot()
    bars = [
        el for el in root.iter("{http://www.w3.org/2000/svg}line")
        if "diff-bar" in el.get("class", "")
    ]
    assert len(bars) == len(expected) > 0
    for bar, contains_zero in zip(bars, expected):
        color = bar.get("stroke")
        assert color == ("#cc3311" if contains_zero else "#117733")
