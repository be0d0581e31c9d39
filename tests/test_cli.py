import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.cli import _merge, build_parser, main
from challenge_judge.dataset import ReconstructionSpec, reconstruct, write


@pytest.fixture()
def small_csv(tmp_path):
    spec = ReconstructionSpec(40, 80, {"ace": (35, 6), "mid": (28, 15), "tail": (18, 20)})
    path = tmp_path / "challenge.csv"
    write(reconstruct(spec, seed=3), path)
    return path


def run_analyze(csv, out, *extra):
    return main([
        "analyze", "--input", str(csv), "--positive", "offensive",
        "--out", str(out), "--b", "200", "--seed", "5", *extra,
    ])


class TestAnalyze:
    def test_writes_full_output_directory(self, small_csv, tmp_path):
        out = tmp_path / "results"
        assert run_analyze(small_csv, out) == 0
        names = {p.name for p in out.iterdir()}
        assert "report.json" in names
        assert "manifest.json" in names
        assert "table1.csv" in names
        assert "fig1_intervals.svg" in names
        assert "fig2_differences.svg" in names
        assert any(n.startswith("fig3_") for n in names)

    def test_manifest_echoes_config_and_input_hash(self, small_csv, tmp_path):
        out = tmp_path / "results"
        run_analyze(small_csv, out)
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["b"] == 200
        assert doc["seed"] == 5
        assert doc["positive"] == "offensive"
        assert len(doc["input_sha256"]) == 64
        assert "threads" not in doc

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "fifo"])
    def test_manifest_hashes_the_bytes_load_parsed(self, small_csv, tmp_path, pipe, quoted):
        data = small_csv.read_bytes()
        if quoted:  # every cell quoted, so csv.reader reads even the regular file
            buf = io.StringIO()
            csv.writer(buf, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(data.decode())))
            data = buf.getvalue().encode()
        path, done = tmp_path / "input.csv", threading.Event()

        def feed():  # write the data once, then give any later reader an empty pipe
            path.write_bytes(data)
            while not done.wait(0.01):
                with contextlib.suppress(OSError):  # raised while no reader waits
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

        if pipe:
            os.mkfifo(path)
            writer = threading.Thread(target=feed, daemon=True)
            writer.start()
        else:
            path.write_bytes(data)
        try:
            assert run_analyze(path, tmp_path / "results") == 0
        finally:
            done.set()
        if pipe:
            writer.join(timeout=30)
            assert not writer.is_alive()
        doc = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert doc["input_sha256"] == hashlib.sha256(data).hexdigest()

    def test_b_below_floor_exits_2(self, small_csv, tmp_path, capsys):
        code = main([
            "analyze", "--input", str(small_csv), "--positive", "offensive",
            "--out", str(tmp_path / "o"), "--b", "50",
        ])
        assert code == 2
        assert "b must be" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert run_analyze(tmp_path / "nope.csv", tmp_path / "o") == 2

    def test_bad_pair_spec_exits_2(self, small_csv, tmp_path):
        assert run_analyze(small_csv, tmp_path / "o", "--pairs", "acemid") == 2

    def test_unknown_metric_exits_2(self, small_csv, tmp_path):
        assert run_analyze(small_csv, tmp_path / "o", "--metrics", "accuracy") == 2

    def test_json_pairs_flag_names_a_team_holding_a_colon(self, tmp_path, capsys):
        spec = ReconstructionSpec(40, 80, {"a:b": (35, 6), "c,d": (28, 15), "e": (18, 20)})
        csv = tmp_path / "colon.csv"
        write(reconstruct(spec, seed=3), csv)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": [["a:b", "c,d"]]}))
        common = ["analyze", "--input", str(csv), "--positive", "offensive"]
        from_file = _merge(build_parser().parse_args([*common, "--config", str(cfg)]))
        from_flag = _merge(build_parser().parse_args([*common, "--pairs", '[["a:b", "c,d"]]']))
        assert from_flag == from_file
        assert from_flag.pairs == (("a:b", "c,d"),)
        out = tmp_path / "o"
        assert run_analyze(csv, out, "--pairs", '[["a:b", "c,d"]]') == 0
        (pair,) = json.loads((out / "report.json").read_text())["pairs"]
        assert (pair["team_a"], pair["team_b"]) == ("a:b", "c,d")
        assert run_analyze(csv, tmp_path / "o2", "--pairs", "a:b:c,d") == 2
        assert "bad pair" in capsys.readouterr().err

    @pytest.mark.parametrize("pairs", ['[["ace", "mid"]', '[["ace"]]', '["ace:mid"]'])
    def test_bad_json_pairs_flag_exits_2(self, small_csv, tmp_path, capsys, pairs):
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--pairs", pairs) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "internal error" not in err
        assert not out.exists()

    def test_explicit_pairs(self, small_csv, tmp_path):
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--pairs", "mid:tail") == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["pairs"]) == 1
        assert {doc["pairs"][0]["team_a"], doc["pairs"][0]["team_b"]} == {"mid", "tail"}

    def test_self_pair_exits_2_without_output(self, small_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--pairs", "ace:mid,ace:ace") == 2
        assert "pair ace:ace compares a team with itself" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pairs", ["ace:mid,mid:ace", "ace:mid,mid:tail,ace:mid"])
    def test_duplicate_pairs_exit_2_without_output(self, small_csv, tmp_path, capsys, pairs):
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--pairs", pairs) == 2
        assert "repeats an earlier pair" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("team, fault", [
        ("a/b", "holds '/' or NUL"),
        ("a\x00b", "holds '/' or NUL"),
        ("é" * 124, "exceeds 255 bytes"),  # 138 characters, 262 UTF-8 bytes in its file name
    ], ids=["slash", "nul", "long"])
    def test_unwritable_figure_name_exits_2_without_output(self, tmp_path, capsys, team, fault):
        spec = ReconstructionSpec(60, 140, {team: (50, 10), "x:y": (30, 20), "c": (45, 10)})
        csv = tmp_path / "teams.csv"
        write(reconstruct(spec, seed=3), csv)
        out = tmp_path / "o"
        assert run_analyze(csv, out) == 2  # default pairs: the leader vs c and vs x:y
        err = capsys.readouterr().err
        assert f"error: pair {team}:c: figure name " in err and fault in err
        assert not out.exists()

    def test_colliding_figure_names_exit_2_without_output(self, tmp_path, capsys):
        spec = ReconstructionSpec(
            60, 140, {"x_vs_y": (50, 10), "z": (30, 20), "x": (45, 10), "y_vs_z": (25, 30)}
        )
        csv = tmp_path / "teams.csv"
        write(reconstruct(spec, seed=3), csv)
        out = tmp_path / "o"
        assert run_analyze(csv, out, "--pairs", "x_vs_y:z,x:y_vs_z") == 2
        assert (
            "error: pairs x_vs_y:z and x:y_vs_z share the figure name 'fig3_x_vs_y_vs_z.svg'"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_unknown_pair_team_is_rejected_before_resampling(
        self, small_csv, tmp_path, capsys, monkeypatch
    ):
        import challenge_judge.pipeline as pipeline_mod
        from challenge_judge.errors import UnknownTeam

        def never(*args, **kwargs):
            raise AssertionError("distributions ran before the pair check")

        monkeypatch.setattr(pipeline_mod, "distributions", never)
        ds = cj.load(small_csv, "offensive")
        config = pipeline_mod.RunConfig(b=200, pairs=(("ace", "mid"), ("ace", "nobody")))
        with pytest.raises(UnknownTeam, match="pair names unknown team 'nobody'"):
            pipeline_mod.analyze(ds, config)
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--pairs", "ace:nobody") == 2
        assert "pair names unknown team 'nobody'" in capsys.readouterr().err
        assert not out.exists()

    def test_figure_names_are_checked_before_resampling(self, tmp_path, monkeypatch):
        import challenge_judge.pipeline as pipeline_mod
        from challenge_judge.errors import ConfigError

        def never(*args, **kwargs):
            raise AssertionError("make_plan ran before the figure name check")

        monkeypatch.setattr(pipeline_mod, "make_plan", never)
        spec = ReconstructionSpec(60, 140, {"a/b": (50, 10), "c": (45, 10)})
        ds = reconstruct(spec, seed=3)
        with pytest.raises(ConfigError, match=r"pair a/b:c: figure name 'fig3_a/b_vs_c.svg'"):
            pipeline_mod.analyze(ds, pipeline_mod.RunConfig(b=10_000))
        # pairs given in either order are oriented, then checked, before the plan
        with pytest.raises(ConfigError, match="pair a/b:c: figure name"):
            pipeline_mod.analyze(ds, pipeline_mod.RunConfig(pairs=(("c", "a/b"),)))

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x1f"], ids=["nul", "soh", "us"])
    def test_team_name_svg_cannot_carry_exits_2_before_resampling(
        self, tmp_path, capsys, monkeypatch, char
    ):
        # the team is in no pair, but fig1 and fig2 draw every team
        import challenge_judge.pipeline as pipeline_mod

        def never(*args, **kwargs):
            raise AssertionError("make_plan ran before the team name check")

        monkeypatch.setattr(pipeline_mod, "make_plan", never)
        team = f"a{char}b"
        spec = ReconstructionSpec(60, 140, {"ace": (50, 10), "mid": (40, 20), team: (30, 30)})
        csv = tmp_path / "teams.csv"
        write(reconstruct(spec, seed=3), csv)
        out = tmp_path / "o"
        assert run_analyze(csv, out, "--pairs", "ace:mid") == 2
        assert f"error: team {team!r} holds U+{ord(char):04X}" in capsys.readouterr().err
        assert not out.exists()

    def test_pairs_are_oriented_as_the_star_matrix_ranks_ties(self, tmp_path):
        # alpha and zeta tie on every metric; rank_teams puts alpha first
        spec = ReconstructionSpec(60, 140, {"alpha": (40, 20), "zeta": (40, 20), "mid": (30, 10)})
        csv = tmp_path / "tied.csv"
        write(reconstruct(spec, seed=3), csv)
        results = []
        for pairs in ("zeta:alpha", "alpha:zeta"):
            out = tmp_path / pairs.replace(":", "_")
            assert main([
                "analyze", "--input", str(csv), "--positive", "offensive", "--out", str(out),
                "--b", "500", "--seed", "1", "--pairs", pairs,
            ]) == 0
            doc = json.loads((out / "report.json").read_text())
            (pair,) = doc["pairs"]
            cells = doc["metrics"]["f1"]["star_matrix"]["cells"]
            (cell,) = [c for c in cells if (c["row"], c["col"]) == ("zeta", "alpha")]
            assert (pair["team_a"], pair["team_b"]) == ("alpha", "zeta")
            assert pair["p"] == cell["p"]
            assert (out / "fig3_alpha_vs_zeta.svg").exists()
            results.append(pair)
        assert results[0] == results[1]

    def test_lead_metric_without_f1_is_the_first_metric(self, tmp_path):
        # precision ranks d, b, c, a; recall ranks a, c, b, d
        spec = ReconstructionSpec(
            100, 200, {"a": (90, 80), "b": (50, 5), "c": (70, 30), "d": (30, 1)}
        )
        csv = tmp_path / "lead.csv"
        write(reconstruct(spec, seed=2), csv)
        out = tmp_path / "o"
        assert run_analyze(csv, out, "--metrics", "precision,recall") == 0
        table1 = (out / "table1.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in table1] == ["team", "d", "b", "c", "a"]
        doc = json.loads((out / "report.json").read_text())
        assert [(p["team_a"], p["team_b"], p["metric"]) for p in doc["pairs"]] == [
            ("d", "b", "precision"), ("d", "c", "precision"),
        ]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_philox_key_range_exits_2(self, small_csv, tmp_path, capsys, seed):
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--seed", seed) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs(self, small_csv, tmp_path):
        assert run_analyze(small_csv, tmp_path / "o", "--seed", str(2**64 - 1)) == 0

    def test_duplicate_metrics_exit_2(self, small_csv, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--metrics", "f1,recall,f1") == 2
        assert "metrics must not repeat" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--input", "--positive", "--out"])
    def test_required_settings_exit_2(self, small_csv, tmp_path, capsys, missing):
        flags = {"--input": small_csv, "--positive": "offensive", "--out": tmp_path / "o"}
        del flags[missing]
        assert main(["analyze", *map(str, itertools.chain(*flags.items())), "--b", "200"]) == 2
        assert f"error: {missing} is required" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2(self, small_csv, tmp_path, capsys, monkeypatch):
        import challenge_judge.pipeline as pipeline_mod

        def never(*args, **kwargs):
            raise AssertionError("resampling ran before the --out check")

        monkeypatch.setattr(pipeline_mod, "make_plan", never)
        monkeypatch.setattr(pipeline_mod, "distributions", never)
        out = tmp_path / "taken"
        out.write_text("")
        assert run_analyze(small_csv, out) == 2
        assert f"error: cannot create {out}: " in capsys.readouterr().err
        assert out.read_text() == ""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(out)}))
        assert main(["validate", "--input", str(small_csv), "--positive", "offensive",
                     "--config", str(cfg)]) == 2
        assert f"error: cannot create {out}: {out} is not a directory" in capsys.readouterr().err

    def test_out_below_a_file_exits_2_before_resampling(self, small_csv, tmp_path, capsys,
                                                         monkeypatch):
        import challenge_judge.pipeline as pipeline_mod

        def never(*args, **kwargs):
            raise AssertionError("make_plan ran before the --out check")

        monkeypatch.setattr(pipeline_mod, "make_plan", never)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "new" / "o"
        assert run_analyze(small_csv, out) == 2
        assert (
            f"error: cannot create {out}: {tmp_path / 'taken'} is not a directory"
            in capsys.readouterr().err
        )

    def test_out_with_missing_parents_is_created(self, small_csv, tmp_path):
        out = tmp_path / "new" / "deeper" / "o"
        assert run_analyze(small_csv, out) == 0
        assert (out / "report.json").exists()

    def test_out_of_memory_exits_2(self, small_csv, tmp_path, monkeypatch, capsys):
        import challenge_judge.cli as cli_mod

        def exhausted(ds, config):
            raise MemoryError("Unable to allocate 1.56 GiB")

        monkeypatch.setattr(cli_mod, "analyze", exhausted)
        assert run_analyze(small_csv, tmp_path / "o") == 2
        assert (
            "error: not enough memory for this run (Unable to allocate 1.56 GiB); lower --b"
            in capsys.readouterr().err
        )

    def test_internal_error_exits_1(self, small_csv, tmp_path, monkeypatch):
        import challenge_judge.cli as cli_mod

        def boom(ds, config):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "analyze", boom)
        assert run_analyze(small_csv, tmp_path / "o") == 1


class TestConfigPrecedence:
    def test_flags_override_config_file(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b": 300, "seed": 1, "positive": "offensive"}))
        out = tmp_path / "o"
        code = main([
            "analyze", "--input", str(small_csv), "--config", str(cfg),
            "--out", str(out), "--b", "400",
        ])
        assert code == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["b"] == 400  # flag wins
        assert doc["seed"] == 1  # config file fills the gap

    @pytest.mark.parametrize("bad", [
        {"metrics": ["f2"]},
        {"metrics": 3},
        {"pairs": [["a"]]},
        {"pairs": [["ace", ""]]},
        {"pairs": ["ace:mid"]},
        {"pairs": {"ace": "mid"}},
        {"pairs": [["ace", "mid"], ["mid", "ace"]]},
    ])
    def test_bad_config_lists_exit_2(self, small_csv, tmp_path, bad):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "o"
        code = main([
            "analyze", "--input", str(small_csv), "--positive", "offensive",
            "--config", str(cfg), "--out", str(out), "--b", "200",
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("b", None),
        ("b", "many"),
        ("b", 300.9),
        ("seed", 2.7),
        ("seed", True),
        ("level", "high"),
        ("level", [0.9]),
        ("threads", 1.5),
    ])
    def test_config_values_must_read_as_their_flag(self, small_csv, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "o"
        code = main([
            "analyze", "--input", str(small_csv), "--positive", "offensive",
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_scalars_read_as_flag_text(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": 5, "positive": 1, "out": 2,
            "b": "300", "seed": "7", "level": "0.9", "threads": 2,
        }))
        from_file = _merge(build_parser().parse_args(["analyze", "--config", str(cfg)]))
        from_flags = _merge(build_parser().parse_args([
            "analyze", "--input", "5", "--positive", "1", "--out", "2",
            "--b", "300", "--seed", "7", "--level", "0.9", "--threads", "2",
        ]))
        assert from_file == from_flags

    def test_unknown_config_keys_exit_2(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": 7, "metric": "f1", "b": 200}))
        out = tmp_path / "o"
        code = main([
            "analyze", "--input", str(small_csv), "--positive", "offensive",
            "--config", str(cfg), "--out", str(out),
        ])
        assert code == 2
        assert f"{cfg}: unknown config keys 'seeds', 'metric'" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_accepts_every_config_key(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": str(small_csv), "out": str(tmp_path / "o"), "positive": "offensive",
            "b": 200, "seed": 1, "level": 0.9, "metrics": ["f1"], "pairs": [["ace", "mid"]],
            "threads": 2,
        }))
        assert main(["validate", "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps({"input": str(small_csv), "positive": "offensive", "x": 1}))
        assert main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"b": 50}, "b must be >= 100"),
        ({"level": 1.0}, "level must be in [0.5, 1)"),
        ({"threads": 0}, "threads must be >= 1"),
        ({"pairs": [["ace", "mid"], ["mid", "ace"]]}, "pair mid:ace repeats an earlier pair"),
        ({"pairs": [["ace", "zzz"]]}, "pair names unknown team 'zzz'"),
        ({"input": "names.csv", "pairs": [["a/b", "z"]]},
         "pair a/b:z: figure name 'fig3_a/b_vs_z.svg' holds '/' or NUL"),
        ({"input": "names.csv", "pairs": [["x_vs_y", "z"], ["x", "y_vs_z"]]},
         "pairs x_vs_y:z and x:y_vs_z share the figure name 'fig3_x_vs_y_vs_z.svg'"),
        ({"input": "soh.csv", "pairs": [["ace", "mid"]]},
         "team 'a\\x01b' holds U+0001, which SVG cannot carry"),
        ({"out": "taken"}, "cannot create {tmp}/taken: {tmp}/taken is not a directory"),
    ])
    def test_validate_rejects_what_analyze_rejects(
        self, small_csv, tmp_path, capsys, doc, message
    ):
        # relative paths in doc name files in tmp_path; soh.csv's odd team is in no pair
        for name, extra in (("names.csv", {"a/b": (30, 10), "x_vs_y": (35, 5), "z": (10, 30),
                                           "x": (30, 5), "y_vs_z": (5, 30)}),
                            ("soh.csv", {"a\x01b": (10, 10)})):
            spec = ReconstructionSpec(40, 80, {"ace": (35, 6), "mid": (28, 15), **extra})
            write(reconstruct(spec, seed=3), tmp_path / name)
        (tmp_path / "taken").write_text("")
        doc = {"input": small_csv.name, "positive": "offensive", "out": "o", **doc}
        for key in ("input", "out"):
            doc[key] = str(tmp_path / doc[key])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["validate", "--config", str(cfg)]) == 2
        assert main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count(f"error: {message.format(tmp=tmp_path)}") == 2
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_malformed_config_exits_2_naming_line_and_column(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"b": 300,\n "seed" 7}')
        assert main(["validate", "--input", str(small_csv), "--positive", "offensive",
                     "--config", str(cfg)]) == 2
        assert f"error: {cfg}:2:9: not JSON (Expecting ':' delimiter)" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [3, [1, 2], "b"])
    def test_config_file_must_be_an_object(self, small_csv, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([
            "validate", "--input", str(small_csv), "--positive", "offensive",
            "--config", str(cfg),
        ]) == 2

    def test_config_lists_equal_flag_strings(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"metrics": ["F1", " recall"], "pairs": [["ace", "mid"], ["mid", "tail"]]}
        ))
        common = ["analyze", "--input", str(small_csv), "--positive", "offensive"]
        from_file = _merge(build_parser().parse_args([*common, "--config", str(cfg)]))
        from_flags = _merge(build_parser().parse_args(
            [*common, "--metrics", "F1, recall", "--pairs", "ace:mid,mid:tail"]
        ))
        assert from_file == from_flags
        assert from_file.metrics == (cj.MetricKind.F1, cj.MetricKind.RECALL)
        assert from_file.pairs == (("ace", "mid"), ("mid", "tail"))


# names whose fig3 files collide, hold '/' or NUL or pass 255 bytes, or that SVG cannot carry
ODD_TEAMS = ["ace", "z", "x", "x_vs_y", "y_vs_z", "a/b", "a\x00b", "a\x01b", "p" * 200, "q" * 200]


@st.composite
def runs(draw):
    n_pos, n_neg = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    names = draw(st.lists(st.sampled_from(ODD_TEAMS), min_size=1, max_size=4, unique=True))
    teams = {t: (draw(st.integers(0, n_pos)), draw(st.integers(0, n_neg))) for t in names}
    pair = st.tuples(*[st.sampled_from([*names, "zzz"])] * 2).map(list)
    pairs = draw(st.none() | st.lists(pair, min_size=1, max_size=3))
    out = draw(st.sampled_from(["o", "taken", "taken/o", "new/o"]))
    return ReconstructionSpec(n_pos, n_neg, teams), pairs, out


class TestValidateAnalyzeParity:
    @settings(max_examples=40, deadline=None)
    @given(runs())
    def test_validate_refuses_exactly_what_analyze_refuses(self, run):
        spec, pairs, out = run
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write(reconstruct(spec, seed=1), tmp / "in.csv")
            (tmp / "taken").write_text("")
            doc = {"input": str(tmp / "in.csv"), "positive": "offensive", "b": 100,
                   "out": str(tmp / out)}
            if pairs is not None:
                doc["pairs"] = pairs
            (tmp / "cfg.json").write_text(json.dumps(doc))
            before = set(tmp.rglob("*"))
            codes, errors = [], []
            for command in ("validate", "analyze"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    codes.append(main([command, "--config", str(tmp / "cfg.json")]))
                lines = err.getvalue().splitlines()
                errors.append([ln for ln in lines if ln.startswith("error:")])
            assert codes[0] == codes[1] and codes[0] in (0, 2), errors
            assert errors[0] == errors[1]
            if codes[1] == 2:
                assert set(tmp.rglob("*")) == before
            else:
                assert (tmp / out / "report.json").exists()


class TestValidate:
    def test_valid_file(self, small_csv, capsys):
        assert main(["validate", "--input", str(small_csv), "--positive", "offensive"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,gold,t\n1,pos,\n")
        assert main(["validate", "--input", str(bad), "--positive", "pos"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("id,gold,t\n", "no data rows after the header"),
        ("id,gold,t,\n1,pos,pos,pos\n", "header column 4 has an empty team name"),
    ])
    def test_header_faults_exit_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["validate", "--input", str(bad), "--positive", "pos"]) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err

    def test_never_writes(self, small_csv, tmp_path):
        before = set(tmp_path.iterdir())
        main(["validate", "--input", str(small_csv), "--positive", "offensive"])
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag", ["--b", "--seed", "--level", "--metrics"])
    def test_analyze_only_flags_rejected(self, small_csv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--input", str(small_csv), "--positive", "offensive", flag, "5"])
        assert exc.value.code == 2

    def test_oversized_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "big.csv"
        bad.write_text("id,gold,t\n1,pos," + "x" * 200_000 + "\n")
        assert main(["validate", "--input", str(bad), "--positive", "pos"]) == 2
        assert f"{bad}:2: field larger than field limit" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"id,gold,t\n1,pos,\xff\n")
        assert main(["validate", "--input", str(bad), "--positive", "pos"]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: not UTF-8 text" in err and "internal error" not in err

    def test_non_utf8_file_analyze_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"id,gold,t\n1,offensive,\xff\n")
        out = tmp_path / "results"
        assert run_analyze(bad, out) == 2
        assert not out.exists()

    def test_non_utf8_config_exits_2(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff{}")
        assert main([
            "validate", "--input", str(small_csv), "--positive", "offensive",
            "--config", str(cfg),
        ]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: not UTF-8 text" in err and "internal error" not in err

    def test_non_utf8_config_analyze_exits_2_without_output(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"b": "\xff"}')
        out = tmp_path / "results"
        assert run_analyze(small_csv, out, "--config", str(cfg)) == 2
        assert not out.exists()

    def test_bom_file_is_valid(self, small_csv, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + small_csv.read_bytes())
        assert main(["validate", "--input", str(bom), "--positive", "offensive"]) == 0


class TestReconstruct:
    def test_roundtrip_matches_leaderboard(self, tmp_path):
        spec_path = tmp_path / "table1.json"
        offendmex.reconstruction_spec().to_json(spec_path)
        out_csv = tmp_path / "offendmex.csv"
        code = main([
            "reconstruct", "--spec", str(spec_path), "--seed", "7",
            "--out", str(out_csv),
        ])
        assert code == 0
        ds = cj.load(out_csv, "offensive")
        pts = cj.point_estimates(ds)
        for team, (prec, rec, f1) in offendmex.LEADERBOARD.items():
            assert round(pts[team][cj.MetricKind.PRECISION].value, 4) == prec
            assert round(pts[team][cj.MetricKind.RECALL].value, 4) == rec
            assert round(pts[team][cj.MetricKind.F1].value, 4) == f1

    def test_label_with_comma_round_trips(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        ReconstructionSpec(20, 30, {"t": (15, 5)}).to_json(spec_path)
        out_csv = tmp_path / "r.csv"
        assert main([
            "reconstruct", "--spec", str(spec_path), "--out", str(out_csv),
            "--positive", "a,b", "--negative", 'say "no"',
        ]) == 0
        assert main(["validate", "--input", str(out_csv), "--positive", "a,b"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_empty_negative_label_exits_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        ReconstructionSpec(20, 30, {"t": (15, 5)}).to_json(spec_path)
        out_csv = tmp_path / "r.csv"
        assert main([
            "reconstruct", "--spec", str(spec_path), "--out", str(out_csv), "--negative", "",
        ]) == 2
        assert not out_csv.exists()

    def test_equal_positive_and_negative_labels_exit_2(self, tmp_path, capsys):
        # an all-"x" file would score team a's precision 1.0, not the spec's 0.5
        spec_path = tmp_path / "s.json"
        spec_path.write_text(json.dumps({"n_pos": 2, "n_neg": 2, "teams": {"a": {"tp": 1, "fp": 1}}}))
        out_csv = tmp_path / "r.csv"
        assert main([
            "reconstruct", "--spec", str(spec_path), "--out", str(out_csv),
            "--positive", "x", "--negative", "x",
        ]) == 2
        assert "error: positive and negative labels must differ" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        ReconstructionSpec(20, 30, {"t": (15, 5)}).to_json(spec_path)
        out_csv = tmp_path / "r.csv"
        assert main([
            "reconstruct", "--spec", str(spec_path), "--out", str(out_csv), "--seed", "-1",
        ]) == 2
        err = capsys.readouterr().err
        assert "error: seed must be a non-negative integer, got -1" in err
        assert "internal error" not in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("team", [{"tp": 9}, {"tp": 2.7, "fp": 0}])
    def test_spec_with_missing_or_fractional_count_exits_2(self, tmp_path, team):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"n_pos": 10, "n_neg": 10, "teams": {"t": team}}))
        out_csv = tmp_path / "x.csv"
        assert main(["reconstruct", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
        assert not out_csv.exists()

    def test_non_utf8_spec_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(b"\xff{}")
        out_csv = tmp_path / "x.csv"
        assert main(["reconstruct", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert f"error: {spec_path}: not UTF-8 text" in err and "internal error" not in err
        assert not out_csv.exists()

    def test_team_no_figure_can_carry_exits_2_without_output(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        ReconstructionSpec(20, 30, {"t": (15, 5), "a\x01b": (10, 5)}).to_json(spec_path)
        out_csv = tmp_path / "r.csv"
        assert main(["reconstruct", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
        assert (
            "error: team 'a\\x01b' holds U+0001, which SVG cannot carry"
            in capsys.readouterr().err
        )
        assert not out_csv.exists()

    @pytest.mark.parametrize("teams, message", [
        ({"p" * 200: (15, 1), "q" * 200: (14, 2), "r": (1, 9)}, "exceeds 255 bytes"),
        ({"top": (15, 1), "a/b": (14, 2), "r": (1, 9)}, "holds '/' or NUL"),
    ], ids=["200-character-names", "slash-in-top-three"])
    def test_spec_whose_default_analyze_is_refused_exits_2(self, tmp_path, capsys, teams, message):
        spec_path = tmp_path / "spec.json"
        ReconstructionSpec(20, 30, teams).to_json(spec_path)
        out_csv = tmp_path / "r.csv"
        assert main(["reconstruct", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert "error: pair " in err and message in err
        assert not out_csv.exists()

    @settings(max_examples=40, deadline=None)
    @given(runs())
    def test_reconstruct_refuses_exactly_what_a_default_validate_refuses(self, run):
        spec = run[0]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            spec.to_json(tmp / "spec.json")
            write(reconstruct(spec, seed=1), tmp / "lib.csv")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                made = main(["reconstruct", "--spec", str(tmp / "spec.json"), "--seed", "1",
                             "--out", str(tmp / "cli.csv")])
                valid = main(["validate", "--input", str(tmp / "lib.csv"), "--positive", "offensive"])
            assert made == valid and made in (0, 2)
            assert (tmp / "cli.csv").exists() == (made == 0)

    def test_bad_spec_exits_2(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"n_pos": 5, "n_neg": 5, "teams": {"t": {"tp": 9, "fp": 0}}}))
        assert main(["reconstruct", "--spec", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2


class TestEntryPoint:
    def test_module_invocation(self, small_csv, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "challenge_judge.cli", "analyze",
             "--input", str(small_csv), "--positive", "offensive",
             "--out", str(out), "--b", "150"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
