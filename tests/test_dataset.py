import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.dataset import ReconstructionSpec, load, reconstruct, write
from challenge_judge.errors import (
    ConfigError,
    CountOutOfRange,
    DuplicateId,
    EmptyCell,
    IoFailure,
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

    @pytest.mark.parametrize("row, column", [
        (",pos,pos", "id"),
        ("1,,pos", "gold"),
        ("1,pos,", "t"),
        ("1,,", "gold"),
    ])
    def test_empty_cell_names_its_column(self, tmp_path, row, column):
        path = write_csv(tmp_path, f"id,gold,t\n{row}\n")
        with pytest.raises(EmptyCell) as err:
            load(path, "pos")
        assert str(err.value) == f"empty cell at {path}:2 ({column})"

    def test_duplicate_id_wins_over_empty_cell(self, tmp_path):
        path = write_csv(tmp_path, "id,gold,t\n1,pos,pos\n1,,neg\n")
        with pytest.raises(DuplicateId) as err:
            load(path, "pos")
        assert str(err.value) == f"{path}:3: duplicate id '1'"

    def test_quoted_tokens_with_commas_and_quotes(self, tmp_path):
        text = 'id,gold,"team, one"\n"a,1","pos","say ""hi"""\n'
        ds = load(write_csv(tmp_path, text), "pos")
        assert ds.ids == ("a,1",)
        assert ds.team_names == ("team, one",)
        assert list(ds.teams["team, one"]) == ['say "hi"']

    def test_utf8_bom_is_skipped(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode("utf-8"))
        ds = load(path, "pos")
        assert ds.ids == ("1", "2", "3")
        assert ds.team_names == ("team1", "team2")

    def test_oversized_field_is_an_io_failure(self, tmp_path):
        limit = csv.field_size_limit()
        path = write_csv(tmp_path, f"id,gold,t\n1,pos,pos\n2,neg,{'x' * (limit + 1)}\n")
        with pytest.raises(IoFailure, match=f"^{path}:3: field larger than field limit"):
            load(path, "pos")
        assert csv.field_size_limit() == limit

    def test_empty_file(self, tmp_path):
        with pytest.raises(MissingColumn):
            load(write_csv(tmp_path, ""), "pos")

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


class TestWrite:
    @pytest.mark.parametrize("column", ["gold", "t2"])
    def test_empty_token_rejected(self, tmp_path, column):
        cols = {"gold": ["pos", "neg"], "t1": ["pos", "pos"], "t2": ["neg", "neg"]}
        cols[column] = ["pos", ""]
        ds = cj.LabeledDataset(
            ("a", "b"), np.asarray(cols["gold"]),
            {t: np.asarray(cols[t]) for t in ("t1", "t2")}, "pos",
        )
        out = tmp_path / "out.csv"
        with pytest.raises(EmptyCell, match=rf"\({column}\)$"):
            write(ds, out)
        assert not out.exists()

    def test_plain_tokens_are_not_quoted(self, tmp_path):
        ds = load(write_csv(tmp_path, GOOD), "pos")
        out = tmp_path / "copy.csv"
        write(ds, out)
        assert out.read_bytes() == GOOD.replace("\n", "\r\n").encode("utf-8")


# NUL is left out: numpy's fixed-width str dtype drops trailing NULs.
SPECIAL = st.sampled_from([",", '"', "\r", "\n", " ", "é", "€", "\ufeff", "好"])
TOKEN = st.text(
    st.one_of(SPECIAL, st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
    min_size=1, max_size=6,
)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(TOKEN, min_size=n, max_size=n, unique=True))
    gold = draw(st.lists(TOKEN, min_size=n, max_size=n))
    names = draw(st.lists(TOKEN, min_size=1, max_size=3, unique=True))
    teams = {t: np.asarray(draw(st.lists(TOKEN, min_size=n, max_size=n))) for t in names}
    return cj.LabeledDataset(tuple(ids), np.asarray(gold), teams, gold[0])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(datasets())
def test_load_inverts_write(tmp_path, ds):
    path = tmp_path / "rt.csv"
    write(ds, path)
    again = load(path, ds.positive)
    assert again.ids == ds.ids
    assert again.gold.tolist() == ds.gold.tolist()
    assert again.team_names == ds.team_names
    for t in ds.teams:
        assert again.teams[t].tolist() == ds.teams[t].tolist()
    assert again.positive == ds.positive


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

    @pytest.mark.parametrize("raw", [
        {"n_pos": 5, "n_neg": 5, "teams": {"t": {"tp": 2}}},
        {"n_pos": 5, "n_neg": 5, "teams": {"t": {"tp": 2.7, "fp": 0}}},
        {"n_pos": 5, "n_neg": 5, "teams": {"t": {"tp": 2, "fp": True}}},
        {"n_pos": None, "n_neg": 5, "teams": {}},
        {"n_neg": 5, "teams": {}},
        {"n_pos": 5, "n_neg": 5},
        {"n_pos": 5, "n_neg": 5, "teams": {"t": [2, 0]}},
        [5, 5],
    ])
    def test_spec_json_rejects_missing_or_fractional_counts(self, tmp_path, raw):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            ReconstructionSpec.from_json(path)

    def test_spec_json_reads_counts_as_int_reads_text(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_pos": "5", "n_neg": 5, "teams": {"t": {"tp": "2", "fp": 1}}}))
        assert ReconstructionSpec.from_json(path) == ReconstructionSpec(5, 5, {"t": (2, 1)})

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
