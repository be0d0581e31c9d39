"""Toy-size self-test of the benchmark: python3 -m pytest -q bench/test_bench.py"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, write_csv

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY = {
    "paper": dataclasses.replace(WORKLOADS["paper"], b=200),
    "coverage": dataclasses.replace(WORKLOADS["coverage"], n=120, b=200),
    "wide": dataclasses.replace(WORKLOADS["wide"], n=300, teams=4, n_pos=90, b=200),
}


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def record(w, seed, trace):
    path = run.OUT / f"{w.name}_seed{seed}_trace{int(trace)}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(TOY))
def test_end_to_end_run_is_correct_and_complete(name):
    w = TOY[name]
    code, line = run.run_one(w, 5, 0.3, trace=False)
    assert code == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    facts = record(w, 5, False)["facts"]
    assert facts["nproc"] >= 1 and facts["versions"]["challenge_judge"]


def test_same_seed_same_outputs_other_seed_other_outputs():
    w = TOY["wide"]
    digests = []
    for seed in (1, 1, 2):
        run.run_one(w, seed, 0.1, trace=False)
        digests.append(record(w, seed, False)["digest"])
    assert digests[0] == digests[1] != digests[2]


def test_generated_csv_is_a_pure_function_of_the_seed(tmp_path):
    w = TOY["wide"]
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_csv(w, 7, a)
    write_csv(w, 7, b)
    write_csv(w, 8, c)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()


def test_traced_cli_run_reports_every_layer():
    w = TOY["wide"]
    code, line = run.run_one(w, 3, 0.4, trace=True)
    assert code == 0 and line["correct"]
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(values) == set(run.PER_LAYER_UNITS)
    notes = record(w, 3, True)["notes"]
    assert not [m for m, note in notes.items() if note.startswith(("n/a", "absent"))]
    # 6 star-matrix cells per metric, plus the 2 default histogram pairs
    assert values["inference.p_values"] == 6 * 3 + 2
    assert values["resampling.defined_frac"] == 1.0
    assert values["trace.self_time_share"] > 0.99
    spans = (run.OUT / "wide_seed3_trace1_spans.jsonl").read_text().splitlines()
    assert {json.loads(s)["name"] for s in spans} == set(tracing.SPAN_NAMES)


def test_traced_pipeline_run_marks_bypassed_layers():
    w = TOY["coverage"]
    code, line = run.run_one(w, 3, 0.4, trace=True)
    assert code == 0 and line["correct"]
    notes = record(w, 3, True)["notes"]
    for metric in ("dataset.load_s", "cli.self_s", "report.bytes", "inference.star_matrix_s"):
        assert notes[metric].startswith("n/a")
        assert line["metrics"][metric]["value"] == 0.0
    assert line["metrics"]["resampling.make_plan_s"]["value"] > 0


def test_missing_function_is_absent_not_fatal(monkeypatch):
    from challenge_judge import pipeline

    monkeypatch.delattr(pipeline, "make_plan")
    rec = tracing.Recorder()
    rec.install()
    rec.uninstall()
    assert rec.absent == ["resampling.make_plan"]
    assert not hasattr(pipeline, "make_plan")


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tail_percentile():
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0)


def test_memory_guard_skips_without_starting(monkeypatch):
    monkeypatch.setattr(run, "mem_available_bytes", lambda: 1000)
    monkeypatch.setattr(run, "run_worker", lambda *a, **k: pytest.fail("worker started"))
    assert run.run_one(TOY["paper"], 1, 0.1, trace=False) == (run.EXIT_SKIPPED, None)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
