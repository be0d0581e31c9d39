import csv
import dataclasses
import json
import math
import xml.etree.ElementTree as ET
from decimal import ROUND_HALF_UP, Decimal
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, strategies as st

import challenge_judge as cj
from challenge_judge.errors import ConfigError, IoFailure
from challenge_judge.metrics import MetricKind, lead_metric
from challenge_judge.pipeline import RunConfig, analyze, check_figure_names
from challenge_judge.report import _dumps, _tex_escape, emit_tables, half_up, to_dict, write_text
from challenge_judge.svgfig import (
    MIN_BINS,
    emit_all_figures,
    emit_difference_plot,
    emit_histogram,
    emit_interval_plot,
    escape,
    histogram_bins,
)

F1 = MetricKind.F1


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    spec = cj.ReconstructionSpec(
        60, 140, {"ace": (50, 10), "mid": (40, 25), "tail": (25, 30)}
    )
    ds = cj.reconstruct(spec, seed=5)
    return analyze(ds, RunConfig(positive="offensive", b=400, seed=9, threads=1))


@pytest.fixture()
def solo_report():
    spec = cj.ReconstructionSpec(30, 70, {"only": (20, 5)})
    ds = cj.reconstruct(spec, seed=1)
    return analyze(ds, RunConfig(positive="offensive", b=150, seed=2))


class TestRounding:
    def test_half_up_at_the_boundary(self):
        assert half_up(0.00025) == "0.0003"  # half-even would give 0.0002
        assert half_up(0.00015) == "0.0002"

    def test_fixed_width(self):
        assert half_up(0.5) == "0.5000"
        assert half_up(-0.011) == "-0.0110"

    def test_plain_value(self):
        assert half_up(0.71536523) == "0.7154"

    def test_three_places_for_star_cells(self):
        assert half_up(0.0025, 3) == "0.003"  # half-even would give 0.002
        assert half_up(0.5, 3) == "0.500"


def _walk_display_pairs(node):
    if isinstance(node, dict):
        if set(node) >= {"value", "display"}:
            yield node["value"], node["display"]
        for v in node.values():
            yield from _walk_display_pairs(v)
    elif isinstance(node, list):
        for v in node:
            yield from _walk_display_pairs(v)


class TestJsonReport:
    def test_every_display_field_is_half_up_4dp(self, small_report):
        doc = to_dict(small_report)
        pairs = list(_walk_display_pairs(doc))
        assert pairs
        for value, display in pairs:
            expect = str(
                Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
            )
            assert display == expect

    @pytest.mark.parametrize("fixture", ["small_report", "solo_report"])
    def test_every_table_is_a_view_of_report_json(self, fixture, request, tmp_path):
        report = request.getfixturevalue(fixture)
        emit_tables(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        names, points = doc["config"]["metrics"], doc["point_estimates"]
        lead = doc["metrics"][str(lead_metric(report.metrics))]
        expect = {"table1": [["team", *names]] + [
            [e["team"], *(points[e["team"]][m]["display"] for m in names)] for e in lead["intervals"]
        ]}
        for m, block in doc["metrics"].items():
            expect[f"table2_{m}"] = [["team", "lower", "upper", "point"]] + [
                [e["team"], e["lower"]["display"], e["upper"]["display"], e["point"]["display"]]
                for e in block["intervals"]
            ]
            expect[f"table3_{m}"] = [["team", "ici", "mean", "sci", "contains_zero"]] + [
                [d["team_b"], d["ci"]["lower"]["display"], d["mean"]["display"],
                 d["ci"]["upper"]["display"], json.dumps(d["contains_zero"])]
                for d in block["differences"]
            ]
            sm = block["star_matrix"]
            if sm is None:
                expect[f"table4_{m}"] = [["team"]]
                continue
            teams = sm["teams"]
            grid = [[team] + [""] * (len(teams) - 1) for team in teams[1:]]
            for c in sm["cells"]:
                cell = f"{c['delta_display3']} {c['stars']}".rstrip()
                grid[teams.index(c["row"]) - 1][teams.index(c["col"]) + 1] = cell
            expect[f"table4_{m}"] = [["", *teams[:-1]], *grid]

        def tex_cells(stem, row):  # the same cells as the .tex file spells them
            if stem.startswith("table2"):
                return [row[0], f"({row[1]},{row[2]})"]
            if stem.startswith("table3"):
                return row[:4]
            return [cell.replace("†", "$\\dagger$") for cell in row]

        assert {p.stem for p in tmp_path.glob("*.csv")} == set(expect)
        for stem, rows in expect.items():
            text = (tmp_path / f"{stem}.csv").read_text(encoding="utf-8")
            assert list(csv.reader(text.splitlines())) == rows, stem
            tex = (tmp_path / f"{stem}.tex").read_text(encoding="utf-8").splitlines()
            body = tex[4 : tex.index("\\hline", 4)]  # the lines between the header and the last rule
            body = [line.removesuffix(" \\\\").split(" & ") for line in body]
            assert body == [tex_cells(stem, row) for row in rows[1:]], stem

    def test_every_team_in_every_table(self, small_report):
        doc = to_dict(small_report)
        teams = set(doc["teams"])
        assert set(doc["point_estimates"]) == teams
        assert set(doc["degenerate_replicates"]) == teams
        for block in doc["metrics"].values():
            assert {e["team"] for e in block["intervals"]} == teams
            diff_teams = {e["team_b"] for e in block["differences"]}
            best = {e["team_a"] for e in block["differences"]}
            assert diff_teams | best == teams
            assert set(block["star_matrix"]["teams"]) == teams


class TestTables:
    def test_figures_refuse_a_team_name_svg_cannot_carry(self, small_report, tmp_path):
        bad = dataclasses.replace(small_report, teams=(*small_report.teams, "a\x01b"))
        with pytest.raises(ConfigError, match=r"team 'a\\x01b' holds U\+0001"):
            emit_all_figures(bad, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_emitted_file_set(self, small_report, tmp_path):
        emit_tables(small_report, tmp_path)
        emit_all_figures(small_report, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        expected = {"report.json", "table1.csv", "table1.tex",
                    "fig1_intervals.svg", "fig2_differences.svg"}
        for m in ("precision", "recall", "f1"):
            for t in (2, 3, 4):
                expected |= {f"table{t}_{m}.csv", f"table{t}_{m}.tex"}
        for p in small_report.pairs:
            expected.add(f"fig3_{p.team_a}_vs_{p.team_b}.svg")
        assert names == expected

    def test_vetted_fig3_names_are_the_files_written(self, small_report, tmp_path):
        # the pre-flight vets the very names that the histograms are written under
        pairs = [(p.team_a, p.team_b) for p in small_report.pairs]
        vetted = check_figure_names(small_report.teams, pairs)
        written = emit_all_figures(small_report, tmp_path)
        assert len(vetted) == len(pairs) == 2
        assert [p.name for p in written[2:]] == vetted
        others = {"fig1_intervals.svg", "fig2_differences.svg"}
        assert {p.name for p in tmp_path.iterdir()} == others | set(vetted)

    def test_table_csv_values_match_report(self, small_report, tmp_path):
        emit_tables(small_report, tmp_path)
        lines = (tmp_path / "table2_f1.csv").read_text().splitlines()
        assert lines[0] == "team,lower,upper,point"
        for line, (team, ci) in zip(lines[1:], small_report.by_metric[F1].intervals):
            assert line == f"{team},{half_up(ci.lower)},{half_up(ci.upper)},{half_up(ci.point)}"

    def test_star_cells_render_with_stars(self, small_report, tmp_path):
        emit_tables(small_report, tmp_path)
        text = (tmp_path / "table4_f1.csv").read_text()
        sm = small_report.by_metric[F1].stars
        for cell in sm.cells.values():
            if cell.stars:
                assert cell.stars in text

    def test_single_team_tables_are_header_only(self, solo_report, tmp_path):
        emit_tables(solo_report, tmp_path)
        assert (tmp_path / "table3_f1.csv").read_text().splitlines() == [
            "team,ici,mean,sci,contains_zero"
        ]
        assert len((tmp_path / "table4_f1.csv").read_text().splitlines()) == 1

    def test_team_names_needing_quotes_parse_back(self, tmp_path):
        spec = cj.ReconstructionSpec(
            40, 60, {"a,b": (30, 10), 'say "x"': (25, 20), "plain": (20, 5)}
        )
        report = analyze(cj.reconstruct(spec, seed=4),
                         RunConfig(positive="offensive", b=150, seed=3))
        emit_tables(report, tmp_path)
        tables = {}
        for path in sorted(tmp_path.glob("*.csv")):
            with path.open(newline="", encoding="utf-8") as fh:
                tables[path.name] = list(csv.reader(fh))
        for name, rows in tables.items():
            assert {len(row) for row in rows} == {len(rows[0])}, name
        assert {row[0] for row in tables["table1.csv"][1:]} == set(spec.teams)

    def test_team_names_are_escaped_in_latex(self, tmp_path):
        spec = cj.ReconstructionSpec(40, 60, {"team_1&co": (30, 10), "50%~x": (25, 20)})
        report = analyze(cj.reconstruct(spec, seed=4),
                         RunConfig(positive="offensive", b=150, seed=3))
        emit_tables(report, tmp_path)
        texts = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.glob("*.tex")}
        escaped = ("team\\_1\\&co", "50\\%\\textasciitilde{}x")
        for name, text in texts.items():
            assert "team_1" not in text and "50%" not in text, name
        # table4: one team heads the column, the other labels the row
        for name in ("table1.tex", "table2_f1.tex", "table4_f1.tex"):
            assert all(texts[name].count(e) == 1 for e in escaped), name
        assert sum(texts["table3_f1.tex"].count(e) for e in escaped) == 1

    def test_latex_escape_covers_every_special_character(self):
        assert _tex_escape("\\&%$#_{}~^a") == (
            r"\textbackslash{}\&\%\$\#\_\{\}\textasciitilde{}\textasciicircum{}a"
        )

    def test_write_into_missing_directory_is_an_io_failure(self, tmp_path):
        path = tmp_path / "absent" / "report.json"
        with pytest.raises(IoFailure, match=f"^cannot write {path}: "):
            write_text(path, "{}")

    def test_out_dir_that_is_a_file_is_an_io_failure(self, small_report, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        with pytest.raises(IoFailure, match=f"^cannot create {out}: "):
            emit_tables(small_report, out)

    def test_emission_is_deterministic(self, small_report, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        emit_tables(small_report, a)
        emit_tables(small_report, b)
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()


class TestSvg:
    def test_figures_are_wellformed_and_deterministic(self, small_report, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for out in (a, b):
            for path in emit_all_figures(small_report, out):
                ET.parse(path)  # raises on malformed XML
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_difference_color_rule(self, small_report, tmp_path):
        path = emit_difference_plot(small_report, tmp_path)
        root = ET.parse(path).getroot()
        bars = [
            el for el in root.iter("{http://www.w3.org/2000/svg}line")
            if "diff-bar" in el.get("class", "")
        ]
        doc = to_dict(small_report)
        expected = []
        for m in doc["config"]["metrics"]:
            expected.extend(e["contains_zero"] for e in doc["metrics"][m]["differences"])
        assert len(bars) == len(expected)
        for bar, contains_zero in zip(bars, expected):
            if contains_zero:
                assert "contains-zero" in bar.get("class")
                assert bar.get("stroke") == "#cc3311"
            else:
                assert "excludes-zero" in bar.get("class")
                assert bar.get("stroke") == "#117733"

    def test_interval_plot_bar_counts(self, small_report, tmp_path):
        path = emit_interval_plot(small_report, tmp_path)
        root = ET.parse(path).getroot()
        bars = [
            el for el in root.iter("{http://www.w3.org/2000/svg}line")
            if el.get("class") == "ci-bar"
        ]
        assert len(bars) == 3 * len(small_report.teams)

    def test_single_team_interval_plot(self, solo_report, tmp_path):
        path = emit_interval_plot(solo_report, tmp_path)
        root = ET.parse(path).getroot()
        bars = [
            el for el in root.iter("{http://www.w3.org/2000/svg}line")
            if el.get("class") == "ci-bar"
        ]
        assert len(bars) == 3  # one bar per metric panel

    def test_degenerate_interval_zero_length_bar(self, tmp_path):
        gold = np.asarray(["p"] * 25 + ["n"] * 25)
        ds = cj.LabeledDataset(
            tuple(map(str, range(50))), gold, {"perfect": gold.copy()}, "p"
        )
        rep = analyze(ds, RunConfig(positive="p", b=150, seed=0))
        path = emit_interval_plot(rep, tmp_path)
        root = ET.parse(path).getroot()
        bars = [
            el for el in root.iter("{http://www.w3.org/2000/svg}line")
            if el.get("class") == "ci-bar"
        ]
        for bar in bars:
            assert bar.get("x1") == bar.get("x2")

    @pytest.mark.parametrize("text", [
        "", "plain", "a & b", "<team>", "x > y < z", "&amp;", "&lt;&gt;",
        "say \"hi\" & 'bye'", "équipe <ñ> & 団体", "&&<<>>",
    ])
    def test_escape_matches_saxutils(self, text):
        assert escape(text) == sax_escape(text)


class TestHistogram:
    def test_freedman_diaconis_rule(self):
        rng = np.random.default_rng(42)
        diffs = rng.normal(0.0, 1.0, 5000)
        q75, q25 = np.quantile(diffs, [0.75, 0.25])
        width = 2 * (q75 - q25) / 5000 ** (1 / 3)
        expected = max(10, math.ceil((diffs.max() - diffs.min()) / width))
        assert histogram_bins(diffs) == expected

    def test_bin_floor(self):
        # two-valued data: FD width is huge, floor kicks in
        diffs = np.asarray([0.0] * 500 + [1.0] * 500)
        assert histogram_bins(diffs) == 10

    def test_zero_iqr_with_a_spread_takes_the_floor(self):
        # one outlier: the quartiles coincide, so the Freedman-Diaconis width is 0
        assert histogram_bins(np.asarray([0.0] * 99 + [1.0])) == MIN_BINS

    def test_constant_diffs_single_bin(self, tmp_path):
        path = emit_histogram(np.zeros(100), 0.0, "clone", tmp_path)
        root = ET.parse(path).getroot()
        bars = [
            el for el in root.iter("{http://www.w3.org/2000/svg}rect")
            if el.get("class") == "hist-bar"
        ]
        assert len(bars) == 1

    def test_marker_lines_present(self, small_report, tmp_path):
        p = small_report.pairs[0]
        path = emit_histogram(p.diffs, p.delta, "pair", tmp_path)
        root = ET.parse(path).getroot()
        marks = [
            el for el in root.iter("{http://www.w3.org/2000/svg}line")
            if el.get("class") == "mark-line"
        ]
        assert len(marks) == 3

    def test_empty_diffs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_histogram(np.asarray([]), 0.0, "x", tmp_path)

    def test_distribution_centered_near_delta(self, full_report):
        # paired diffs concentrate around the observed full-data difference
        for p in full_report.pairs:
            assert abs(float(np.median(p.diffs)) - p.delta) < 0.01


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_categories=("Cs",)))
    | st.sampled_from(["", "é好 ", "\x00\x1f\x7f\"\\", "\ud800"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(st.floats(), max_size=6)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=25,
)


@given(JSON_VALUES)
def test_dumps_equals_indented_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, ensure_ascii=False)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[]]}, [math.nan, 1.0], [math.inf, -math.inf],
    [1.0, 2], [0.1, -0.0, 1e300, 5e-324], {"é\n": ["\x01", None, True, False, -7]},
    np.float64(0.25), [np.float64(0.5), 1.5],
])
def test_dumps_equals_json_dumps_on_edge_values(value):
    assert _dumps(value) == json.dumps(value, indent=2, ensure_ascii=False)


def test_report_json_is_the_standard_encoders_text(small_report, tmp_path):
    emit_tables(small_report, tmp_path)
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert text == json.dumps(to_dict(small_report), indent=2, ensure_ascii=False) + "\n"
