import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.dataset import ReconstructionSpec, load, reconstruct, write
from challenge_judge.errors import (
    CountOutOfRange,
    DuplicateId,
    EmptyCell,
    LengthMismatch,
    MissingColumn,
    UnknownPositiveLabel,
)
from challenge_judge.inference import percentile_ci
from challenge_judge.metrics import MetricKind
from challenge_judge.resampling import distributions, make_plan


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = "id,gold,team1,team2\n1,pos,pos,neg\n2,neg,neg,neg\n3,pos,pos,pos\n"


class TestLoad:
    def test_small_roundtrip(self, tmp_path):
        ds = load(write_csv(tmp_path, GOOD), "pos")
        assert ds.n == 3
        assert ds.team_names == ("team1", "team2")
        assert list(ds.gold) == ["pos", "neg", "pos"]

    def test_missing_gold_column(self, tmp_path):
        with pytest.raises(MissingColumn):
            load(write_csv(tmp_path, "id,team1\n1,pos\n"), "pos")

    def test_no_team_columns(self, tmp_path):
        with pytest.raises(MissingColumn):
            load(write_csv(tmp_path, "id,gold\n1,pos\n"), "pos")

    def test_duplicate_id(self, tmp_path):
        bad = "id,gold,t\n1,pos,pos\n1,neg,neg\n"
        with pytest.raises(DuplicateId):
            load(write_csv(tmp_path, bad), "pos")

    def test_empty_cell(self, tmp_path):
        bad = "id,gold,t\n1,pos,\n"
        with pytest.raises(EmptyCell):
            load(write_csv(tmp_path, bad), "pos")

    def test_ragged_row(self, tmp_path):
        bad = "id,gold,t\n1,pos\n"
        with pytest.raises(LengthMismatch):
            load(write_csv(tmp_path, bad), "pos")

    def test_unknown_positive_label(self, tmp_path):
        with pytest.raises(UnknownPositiveLabel):
            load(write_csv(tmp_path, GOOD), "offensive")

    def test_load_write_roundtrip(self, tmp_path):
        ds = load(write_csv(tmp_path, GOOD), "pos")
        out = tmp_path / "copy.csv"
        write(ds, out)
        again = load(out, "pos")
        assert again.ids == ds.ids
        assert list(again.gold) == list(ds.gold)
        for t in ds.teams:
            assert list(again.teams[t]) == list(ds.teams[t])
        assert out.read_text() == GOOD


spec_strategy = st.builds(
    lambda n_pos, n_neg, teams: ReconstructionSpec(
        n_pos,
        n_neg,
        {f"t{i}": (min(tp, n_pos), min(fp, n_neg)) for i, (tp, fp) in enumerate(teams)},
    ),
    n_pos=st.integers(1, 60),
    n_neg=st.integers(0, 60),
    teams=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 60)), min_size=1, max_size=4
    ),
)


class TestReconstruct:
    def test_published_spec_counts(self, offendmex_ds):
        spec = offendmex.reconstruction_spec()
        for team, (tp, fp) in spec.teams.items():
            c = cj.confusion(offendmex_ds.gold, offendmex_ds.teams[team], "offensive")
            assert (c.tp, c.fp) == (tp, fp)

    def test_perfect_predictor(self):
        spec = ReconstructionSpec(10, 20, {"t": (10, 0)})
        ds = reconstruct(spec, seed=3)
        pts = cj.point_estimates(ds)
        assert all(pts["t"][m].value == 1.0 for m in cj.ALL_METRICS)

    def test_count_out_of_range(self):
        with pytest.raises(CountOutOfRange):
            ReconstructionSpec(10, 20, {"t": (11, 0)})
        with pytest.raises(CountOutOfRange):
            ReconstructionSpec(10, 20, {"t": (0, 21)})

    @settings(max_examples=40, deadline=None)
    @given(spec_strategy, st.integers(0, 2**32 - 1))
    def test_reconstruction_is_exact(self, spec, seed):
        ds = reconstruct(spec, seed)
        for team, (tp, fp) in spec.teams.items():
            c = cj.confusion(ds.gold, ds.teams[team], ds.positive)
            assert (c.tp, c.fp) == (tp, fp)
            assert c.n == spec.n_pos + spec.n_neg

    def test_spec_json_roundtrip(self, tmp_path):
        spec = offendmex.reconstruction_spec()
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ReconstructionSpec.from_json(path) == spec

    def test_marginals_independent_of_seed(self):
        # marginal bootstrap CIs depend only on the confusion counts
        spec = ReconstructionSpec(150, 350, {"t": (100, 60)})
        endpoints = []
        for seed in (11, 99):
            ds = reconstruct(spec, seed=seed)
            plan = make_plan(ds.n, 4000, seed=5)
            d = distributions(ds, plan, (MetricKind.F1,))["t"][MetricKind.F1]
            ci = percentile_ci(d, 0.95)
            endpoints.append((ci.lower, ci.upper))
        (lo1, hi1), (lo2, hi2) = endpoints
        assert lo1 == pytest.approx(lo2, abs=0.02)
        assert hi1 == pytest.approx(hi2, abs=0.02)
