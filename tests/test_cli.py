import json
import subprocess
import sys

import pytest

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

    def test_explicit_pairs(self, small_csv, tmp_path):
        out = tmp_path / "o"
        assert run_analyze(small_csv, out, "--pairs", "mid:tail") == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["pairs"]) == 1
        assert {doc["pairs"][0]["team_a"], doc["pairs"][0]["team_b"]} == {"mid", "tail"}

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


class TestValidate:
    def test_valid_file(self, small_csv, capsys):
        assert main(["validate", "--input", str(small_csv), "--positive", "offensive"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,gold,t\n1,pos,\n")
        assert main(["validate", "--input", str(bad), "--positive", "pos"]) == 2

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

    @pytest.mark.parametrize("team", [{"tp": 9}, {"tp": 2.7, "fp": 0}])
    def test_spec_with_missing_or_fractional_count_exits_2(self, tmp_path, team):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"n_pos": 10, "n_neg": 10, "teams": {"t": team}}))
        out_csv = tmp_path / "x.csv"
        assert main(["reconstruct", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
        assert not out_csv.exists()

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
