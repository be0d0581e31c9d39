import codecs
import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import challenge_judge as cj
from challenge_judge import dataset as dataset_mod, offendmex
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

    def test_header_without_data_rows(self, tmp_path):
        path = write_csv(tmp_path, "id,gold,t\n")
        with pytest.raises(LengthMismatch) as err:
            load(path, "pos")
        assert str(err.value) == f"{path}: no data rows after the header"

    def test_duplicate_team_columns(self, tmp_path):
        path = write_csv(tmp_path, "id,gold,t,t\n1,pos,pos,pos\n")
        with pytest.raises(DuplicateId, match="duplicate team column names$"):
            load(path, "pos")

    @pytest.mark.parametrize("name", ["missing.csv", ""], ids=["missing", "directory"])
    def test_unreadable_path_is_an_io_failure(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(IoFailure, match=f"^cannot read {path}: "):
            load(path, "pos")

    @pytest.mark.parametrize("header, column", [("id,gold,t,", 4), ("id,gold,,t", 3)])
    def test_empty_team_name_is_named_at_the_header(self, tmp_path, header, column):
        path = write_csv(tmp_path, f"{header}\n1,pos,pos,pos\n")
        with pytest.raises(MissingColumn) as err:
            load(path, "pos")
        assert str(err.value) == f"{path}: header column {column} has an empty team name"

    def test_labels_are_held_once_per_distinct_token(self, tmp_path):
        # 4000 rows, 50 teams, two labels: one str per label cell would
        # take the peak to about 14 MB
        n, k = 4000, 50
        rng = np.random.default_rng(0)
        labels = np.array(["pos", "neg"])[rng.integers(0, 2, size=(n, k + 1))]
        path = tmp_path / "wide.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "gold", *(f"t{j}" for j in range(k))])
            writer.writerows([str(i), *row] for i, row in enumerate(labels.tolist()))
        tracemalloc.start()
        try:
            ds = load(path, "pos")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20, f"peak {peak / 2**20:.1f} MB"
        cells = [tok for col in (ds.gold, *ds.teams.values()) for tok in col]
        assert sorted({id(tok): tok for tok in cells}.values()) == ["neg", "pos"]
        assert ds.positive_mask[:, 1:].tolist() == (labels[:, 1:] == "pos").tolist()

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

    def test_missing_directory_is_an_io_failure(self, tmp_path):
        ds = load(write_csv(tmp_path, GOOD), "pos")
        out = tmp_path / "absent" / "copy.csv"
        with pytest.raises(IoFailure, match=f"^cannot write {out}: "):
            write(ds, out)


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
@given(label_columns(), st.sampled_from(["list", "unicode", "load", "quoted"]))
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
    if build == "quoted":  # every cell quoted: read by csv.reader, not the byte reader
        with (tmp_path / "q.csv").open("w", newline="", encoding="utf-8") as fh:
            rows = zip(ds.ids, ds.gold, *ds.teams.values())
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([["id", "gold", *teams], *rows])
        ds = load(tmp_path / "q.csv", positive)
    expected = [[tok == positive for tok in col] for col in (ds.gold, *ds.teams.values())]
    assert ds.positive_mask.T.tolist() == expected
    assert ds.positive_mask is ds.positive_mask
    points = cj.point_estimates(ds)
    for team, pred in ds.teams.items():
        c = cj.confusion(ds.gold, pred, positive)
        assert points[team] == {m: cj.score(c, m) for m in cj.ALL_METRICS}


COLUMN = np.array(["pos", "neg"], dtype=object)


@pytest.mark.parametrize("ids, gold, teams, positive, error, message", [
    ((), COLUMN[:0], {"t": COLUMN[:0]}, "pos", LengthMismatch, "at least one example"),
    (("a", "b"), COLUMN[:1], {"t": COLUMN}, "pos", LengthMismatch, "gold column has 1 entries"),
    (("a", "b"), COLUMN, {}, "pos", MissingColumn, "at least one team column"),
    (("a", "b"), COLUMN, {"": COLUMN}, "pos", MissingColumn, "team names must be non-empty"),
    (("a", "b"), COLUMN, {"t": COLUMN[:1]}, "pos", LengthMismatch, "team 't' column has 1"),
    (("a", "b"), COLUMN, {"t": COLUMN}, "", UnknownPositiveLabel, "non-empty token"),
], ids=["no-ids", "gold-length", "no-teams", "empty-team-name", "team-length", "empty-positive"])
def test_dataset_checks_itself_when_made(ids, gold, teams, positive, error, message):
    with pytest.raises(error, match=message):
        cj.LabeledDataset(ids, gold, teams, positive)


def test_positive_mask_of_a_built_dataset_copies_no_cells():
    # 4000 rows, 50 teams: the bool mask itself is 0.2 MB, while stacking
    # object copies of the columns first would take the peak to about 1.8 MB
    n, k = 4000, 50
    rng = np.random.default_rng(1)
    labels = np.array(["pos", "neg"], dtype=object)[rng.integers(0, 2, size=(k + 1, n))]
    ds = cj.LabeledDataset(
        tuple(map(str, range(n))), labels[0], {f"t{j}": labels[j + 1] for j in range(k)}, "pos"
    )
    tracemalloc.start()
    try:
        mask = ds.positive_mask
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19, f"peak {peak / 2**20:.2f} MB"
    assert mask.T.tolist() == (labels == "pos").tolist()


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
            assert c.tp + c.fp + c.fn_ + c.tn == spec.n_pos + spec.n_neg

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

    @pytest.mark.parametrize("labels", [{"negative": ""}, {"positive": ""}], ids=["neg", "pos"])
    def test_empty_label_is_refused(self, labels):
        # an empty gold or team cell could not be written and loaded back
        with pytest.raises(ConfigError, match="labels must be non-empty"):
            reconstruct(ReconstructionSpec(3, 2, {"t": (2, 1)}), 1, **labels)

    @pytest.mark.parametrize("n_pos, n_neg", [(0, 5), (5, -1)])
    def test_bad_class_sizes(self, n_pos, n_neg):
        with pytest.raises(CountOutOfRange, match="invalid class sizes"):
            ReconstructionSpec(n_pos, n_neg)

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

    def test_spec_json_missing_file_is_an_io_failure(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(IoFailure, match=f"^cannot read {path}: "):
            ReconstructionSpec.from_json(path)

    def test_spec_json_malformed_names_line_and_column(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"n_pos": 5,\n "n_neg" 5}')
        with pytest.raises(ConfigError, match=f"^{path}:2:10: not JSON "):
            ReconstructionSpec.from_json(path)

    def test_spec_to_json_into_missing_directory_is_an_io_failure(self, tmp_path):
        path = tmp_path / "absent" / "spec.json"
        with pytest.raises(IoFailure, match=f"^cannot write {path}: "):
            ReconstructionSpec(5, 5).to_json(path)

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
            ci = percentile_ci(d.values, 0.95)
            endpoints.append((ci.lower, ci.upper))
        (lo1, hi1), (lo2, hi2) = endpoints
        assert lo1 == pytest.approx(lo2, abs=0.02)
        assert hi1 == pytest.approx(hi2, abs=0.02)


# ---- the byte reader against the csv.reader reference ----

def csv_only_load(path, positive):
    """``load`` with the byte reader switched off: every file through ``csv.reader``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset_mod, "_read_plain", lambda path: None)
        return load(path, positive)


def outcome(read, path, positive):
    """What a load gives: the dataset's ids, cells and mask, or its error's class and message."""
    try:
        ds = read(path, positive)
    except cj.ChallengeJudgeError as exc:
        return type(exc), str(exc)
    columns = [col.tolist() for col in (ds.gold, *ds.teams.values())]
    return ds.ids, ds.team_names, columns, ds.positive_mask.tolist()


LIMIT = 24  # the csv field limit these tests set, so that an over-limit cell stays small
PLAIN_CELLS = [
    "p", "n", "pos", "neg", "p\x00", "\x00", "é", "好", "ünïcödé", " p",
    "x" * 8, "x" * 9, "y" * 16, "z" * 17, "w" * LIMIT,
]
ODD_CELLS = ["", "v" * (LIMIT + 1), "a,b", 'say "hi"', "a\rb", "a\nb"]
FAULTS = ["header", "odd cells", "row size", "id", "bare cr", "blank line", "not utf-8"]


@st.composite
def csv_files(draw):
    """A wide CSV's bytes and a positive label: regular, or broken by one fault."""
    fault = draw(st.sampled_from([None, None, None, *FAULTS]))
    width = draw(st.integers(3, 5))
    header = ["id", "gold", *(f"t{j}" for j in range(width - 2))]
    if fault == "header":
        header = draw(st.lists(st.sampled_from([*header, "t0", "", "x"]), min_size=1, max_size=5))
    cell = st.sampled_from(PLAIN_CELLS + (ODD_CELLS if fault == "odd cells" else []))
    rows = [header]
    for i in range(draw(st.integers(1, 6))):
        size = draw(st.integers(0, width + 1)) if fault == "row size" else width
        row = [draw(st.sampled_from(["1", "é", "", str(i)])) if fault == "id" else str(i)]
        rows.append(row + draw(st.lists(cell, min_size=max(size - 1, 0), max_size=max(size - 1, 0))))
    quote = draw(st.sampled_from(["needed", "never", "always"]))

    def field(cell):
        special = any(ch in cell for ch in ',"\r\n')
        if quote == "always" or (quote == "needed" and special):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    ends = st.sampled_from(["\n", "\r\n", *(["\r"] if fault == "bare cr" else [])])
    text = "".join(",".join(map(field, row)) + draw(ends) for row in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    if fault == "blank line":
        at = draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "\n"] or [len(text)]))
        text = text[:at] + "\n" + text[at:]
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if fault == "not utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    golds = [row[1] for row in rows[1:] if len(row) > 1 and row[1]]
    return data, draw(st.sampled_from([*golds[:1], "pos", "p\x00"]))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_files())
def test_load_equals_a_csv_reader_only_load(tmp_path, file):
    data, positive = file
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    limit = csv.field_size_limit(LIMIT)
    try:
        assert outcome(load, path, positive) == outcome(csv_only_load, path, positive)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("text", [
    "id,gold,a,b\n1,pos,pos,neg\n2,neg,neg,pos\n",
    "id,gold,a,b\r\n1,pos,pos,neg\r\n2,neg,neg,pos\r\n",
    "id,gold,a,b\r\n1,pos,pos,neg\n2,neg,neg,pos",
    "﻿id,gold,a,é\n1,pos,p\x00,好\n\x00,pos,pos,neg\n",
    "id,gold,a,b\n1,pos,zzzzzzzzzzzzzzzzzzzz,neg\n2,pos,zzzzzzzzzzzzzzzzzzzy,neg\n",
], ids=["lf", "crlf", "mixed-no-final-end", "bom-nul-non-ascii", "long-labels"])
def test_quote_free_files_take_the_byte_path(tmp_path, text):
    path = write_csv(tmp_path, text)
    assert dataset_mod._read_plain(path) is not None
    assert outcome(load, path, "pos") == outcome(csv_only_load, path, "pos")


@pytest.mark.parametrize("data", [
    b"id,gold,t\n1,pos,a\rb\n2,neg,pos\n",
    b"id,gold,t\n1,pos,pos\r2,neg,pos\n",
    b"id,gold,t\r\n1,pos,pos\r\r\n",
    b"id,gold,t\n1,pos,pos\r",
    b"id,gold,t\r1,pos,pos\n",
    b"id,gold,t\n1,pos,\r\n",
    b"id,gold,t\n1,pos,pos\n\n",
    b"id,gold,t\n1,pos,pos\n\r\n",
    b"id,gold,t\n\n1,pos,pos\n",
    b"\nid,gold,t\n1,pos,pos\n",
    b"id,gold,t\n1,pos,pos,\n",
    b"id,gold,t\n1,pos\n",
    b"id,gold,t\n1,pos,pos\n1,neg,pos\n",
    b"id,gold,t\n1,pos,p\xc3\n",
    b"id,gold,t\n\xff,pos,pos\n",
    b"id,gold,t\n",
    b"id,gold,t",
    b"",
    b"id,gold\n1,pos\n",
    b"id,gold,t,t\n1,pos,pos,neg\n",
    b"id,gold,t,\n1,pos,pos,neg\n",
    b"\xef\xbb\xbf\xef\xbb\xbfid,gold,t\n1,pos,pos\n",
], ids=lambda data: repr(data)[2:40])
def test_irregular_files_fail_as_csv_reader_fails(tmp_path, data):
    path = tmp_path / "f.csv"
    path.write_bytes(data)
    assert outcome(load, path, "pos") == outcome(csv_only_load, path, "pos")


def test_many_distinct_labels_go_to_csv_reader(tmp_path):
    n = dataset_mod.MAX_LABELS + 1
    rows = [f"{i},{'pos' if i == 0 else f'label{i}'},t{i}\n" for i in range(n)]
    path = write_csv(tmp_path, "id,gold,t\n" + "".join(rows))
    assert dataset_mod._read_plain(path) is None
    ds = load(path, "pos")
    assert ds.gold.tolist() == ["pos", *(f"label{i}" for i in range(1, n))]
    assert outcome(load, path, "pos") == outcome(csv_only_load, path, "pos")


def test_chunked_reads_keep_rows_whole(tmp_path, monkeypatch):
    # rows that straddle many chunk boundaries, CRLF ends, a label per code
    monkeypatch.setattr(dataset_mod, "CHUNK_BYTES", 7)
    labels = [f"l{j}" for j in range(dataset_mod.MAX_LABELS - 1)] + ["pos"]
    rows = [f"r{i},{labels[i % len(labels)]},{labels[(3 * i) % len(labels)]}\r\n" for i in range(90)]
    path = write_csv(tmp_path, "id,gold,t\r\n" + "".join(rows))
    assert dataset_mod._read_plain(path) is not None
    assert outcome(load, path, "pos") == outcome(csv_only_load, path, "pos")


def test_both_readers_give_one_label_table(tmp_path, monkeypatch):
    # the byte reader numbers labels by chunk and length, so their codes may differ; cells may not
    monkeypatch.setattr(dataset_mod, "CHUNK_BYTES", 64)
    labels = ["p", "n", "p\x00", "\x00", "é", "好", "x" * 9, "y" * 16, " p"]
    rows = [
        f"r{i},{labels[i % 9]},{labels[5 * i % 9]},{labels[(7 * i + 3) % 9]}\n" for i in range(60)
    ]
    path = write_csv(tmp_path, "id,gold,a,b\n" + "".join(rows))
    plain, reference = dataset_mod._read_plain(path), dataset_mod._read_csv(path)
    assert plain is not None
    assert plain[:2] == reference[:2] and plain[4] == reference[4]  # header, ids, SHA-256
    assert sorted(plain[3]) == sorted(reference[3]) == sorted(labels)

    def cells(read):
        return np.array(read[3], dtype=object)[read[2]].tolist()

    assert cells(plain) == cells(reference)


def test_csv_reader_keeps_more_labels_than_a_byte_codes(tmp_path):
    rows = [f"{i},{'pos' if i == 0 else f'g{i}'},t{i}\n" for i in range(300)]
    ds = load(write_csv(tmp_path, "id,gold,t\n" + "".join(rows)), "pos")
    assert ds.gold.tolist() == ["pos", *(f"g{i}" for i in range(1, 300))]
    assert ds.teams["t"].tolist() == [f"t{i}" for i in range(300)]
    assert ds.positive_mask.sum(axis=0).tolist() == [1, 0]
