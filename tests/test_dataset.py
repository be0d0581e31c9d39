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

    @pytest.mark.parametrize("last, error, message", [
        ("1,pos,pos", DuplicateId, "{path}:5: duplicate id '1'"),
        ("2,pos", LengthMismatch, "{path}:5: expected 3 fields, got 2"),
        ("2,pos,", EmptyCell, "empty cell at {path}:5 (t)"),
    ])
    def test_messages_name_the_physical_line_after_a_multiline_cell(
        self, tmp_path, last, error, message
    ):
        # the first record spans lines 2-3, so the third record is on line 5
        path = write_csv(tmp_path, f'id,gold,t\n"po\ns",pos,pos\n1,neg,neg\n{last}\n')
        with pytest.raises(error) as err:
            load(path, "pos")
        assert str(err.value) == message.format(path=path)

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

    def test_non_utf8_bytes_are_an_io_failure(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"id,gold,t\n1,pos,pos\n2,neg,caf\xe9\xff\n")
        with pytest.raises(IoFailure, match=f"^{path}: not UTF-8 text"):
            load(path, "pos")

    @pytest.mark.parametrize("token", ["a\x00", "\x00"])
    def test_nul_tokens_load_exactly(self, tmp_path, token):
        ds = load(write_csv(tmp_path, f"id,gold,t\n1,pos,{token}\n2,{token},pos\n"), "pos")
        assert ds.gold.tolist() == ["pos", token]
        assert ds.teams["t"].tolist() == [token, "pos"]
        assert ds.positive_mask.tolist() == [[True, False], [False, True]]

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


SPECIAL = st.sampled_from([",", '"', "\r", "\n", " ", "é", "€", "\ufeff", "好"])
TOKEN = st.text(
    st.one_of(SPECIAL, st.characters(blacklist_categories=("Cs",))),
    min_size=1, max_size=6,
)


def tokens(values):
    """An object array of str, as ``load`` builds: a ``<U`` array would drop trailing NULs."""
    return np.array(values, dtype=object)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(TOKEN, min_size=n, max_size=n, unique=True))
    gold = draw(st.lists(TOKEN, min_size=n, max_size=n))
    names = draw(st.lists(TOKEN, min_size=1, max_size=3, unique=True))
    teams = {t: tokens(draw(st.lists(TOKEN, min_size=n, max_size=n))) for t in names}
    return cj.LabeledDataset(tuple(ids), tokens(gold), teams, gold[0])


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


LABEL = st.sampled_from(["p", "n", "p\x00", "\x00", "P", "é"])


@st.composite
def label_columns(draw):
    n = draw(st.integers(1, 8))
    gold = draw(st.lists(LABEL, min_size=n, max_size=n))
    teams = {
        f"t{j}": draw(st.lists(LABEL, min_size=n, max_size=n))
        for j in range(draw(st.integers(1, 3)))
    }
    return gold, teams, draw(st.sampled_from(gold))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(label_columns(), st.sampled_from(["list", "unicode", "load"]))
def test_positive_mask_matches_string_comparison(tmp_path, columns, build):
    gold, teams, positive = columns
    ids = tuple(map(str, range(len(gold))))
    if build == "unicode":  # fixed width: "p\x00" is stored as "p", "\x00" as ""
        ds = cj.LabeledDataset(
            ids, np.asarray(gold), {t: np.asarray(c) for t, c in teams.items()}, positive
        )
    else:
        ds = cj.LabeledDataset(ids, gold, teams, positive)
    if build == "load":
        write(ds, tmp_path / "m.csv")
        ds = load(tmp_path / "m.csv", positive)
    expected = [[tok == positive for tok in col] for col in (ds.gold, *ds.teams.values())]
    assert ds.positive_mask.T.tolist() == expected
    assert ds.positive_mask is ds.positive_mask
    points = cj.point_estimates(ds)
    for team, pred in ds.teams.items():
        c = cj.confusion(ds.gold, pred, positive)
        assert points[team] == {m: cj.score(c, m) for m in cj.ALL_METRICS}


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

    def test_nul_positive_label_round_trips(self, tmp_path):
        ds = reconstruct(ReconstructionSpec(3, 2, {"t": (2, 1)}), seed=1, positive="p\x00")
        assert ds.gold.tolist() == ["p\x00"] * 3 + ["non-offensive"] * 2
        path = tmp_path / "r.csv"
        write(ds, path)
        again = load(path, "p\x00")
        assert again.ids == ds.ids
        assert again.gold.tolist() == ds.gold.tolist()
        assert {t: c.tolist() for t, c in again.teams.items()} == {
            t: c.tolist() for t, c in ds.teams.items()
        }
        assert again.positive == ds.positive == "p\x00"
        c = cj.confusion(again.gold, again.teams["t"], again.positive)
        assert (c.tp, c.fp) == (2, 1)

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
