"""Benchmark worker: one closed-loop client in one process.

Started by ``run.py`` with a workload spec and the generated input. It
imports ``challenge_judge`` from the checkout's ``src/``, runs one untimed
warm-up job (whose outputs become the reference), then starts job after
job until ``--seconds`` have passed, checking every job's outputs. With
``--trace 1`` it wraps the package's layer functions (see ``tracing.py``)
and afterwards times ``distributions`` with one thread. The result,
spans included, is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import shutil
import sys
import time
from pathlib import Path

from tracing import Recorder, maxrss_kb
from workloads import (
    NEGATIVE,
    POSITIVE,
    WORLD_POOL,
    Workload,
    analysis_seed,
    team_counts,
    world,
)

MAX_FAILURE_MESSAGES = 5
PROBE_REPS = 3


def import_package(src: Path):
    """Import challenge_judge from ``src`` and refuse any other copy."""
    sys.path.insert(0, str(src))
    import challenge_judge

    where = Path(challenge_judge.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"worker: imported challenge_judge from {where}, not from {src}")


def expected_points(counts: dict[str, tuple[int, int]], n_pos: int) -> dict:
    out = {}
    for team, (tp, fp) in counts.items():
        fn = n_pos - tp
        out[team] = {
            "precision": tp / (tp + fp) if tp + fp else 0.0,
            "recall": tp / n_pos,
            "f1": 2 * tp / (2 * tp + fp + fn) if tp else 0.0,
        }
    return out


def check_report_json(doc: dict, w: Workload, seed: int) -> str | None:
    """Point estimates must equal the generator's exact counts (and the
    published leaderboard, for the OffendMEX reconstruction)."""
    got = doc["point_estimates"]
    for team, by_m in expected_points(team_counts(w, seed), w.n_pos).items():
        for m, value in by_m.items():
            if not math.isclose(got[team][m]["value"], value, rel_tol=0, abs_tol=1e-12):
                return f"{team} {m}: {got[team][m]['value']!r} != expected {value!r}"
    if w.published:
        from challenge_judge import offendmex

        for team, published in offendmex.LEADERBOARD.items():
            for m, expect in zip(("precision", "recall", "f1"), published):
                if got[team][m]["display"] != f"{expect:.4f}":
                    return f"{team} {m}: {got[team][m]['display']} != published {expect:.4f}"
    return None


def cli_job(w: Workload, seed: int, csv: Path, work: Path, threads: int, call):
    """Job = ``cli.main(["analyze", ...])`` into a fresh output directory."""
    from challenge_judge import cli

    base = [
        "analyze", "--input", str(csv), "--positive", POSITIVE,
        "--b", str(w.b), "--seed", str(analysis_seed(seed)),
        "--metrics", ",".join(w.metrics), "--threads", str(threads),
    ]
    reference: dict[int, str] = {}  # the one input -> its first job's output digest

    def run(job: int) -> tuple[float, str | None]:
        out = work / f"job{job}"
        start = time.perf_counter()
        code = call("cli.main", cli.main, [*base, "--out", str(out)])
        elapsed = time.perf_counter() - start
        try:
            if code != 0:
                return elapsed, f"job {job}: exit code {code}"
            h = hashlib.sha256()
            for path in sorted(out.iterdir()):
                h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
            digest = h.hexdigest()
            if not reference:
                doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
                problem = check_report_json(doc, w, seed)
                if problem:
                    return elapsed, f"job {job}: {problem}"
                reference[0] = digest
            elif digest != reference[0]:
                return elapsed, f"job {job}: output bytes differ from the first job's"
            return elapsed, None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return run, reference


def world_dataset(gold_pos, pred_pos):
    """A fresh LabeledDataset for one coverage world."""
    import numpy as np

    from challenge_judge import LabeledDataset

    return LabeledDataset(
        tuple(f"ex{i:06d}" for i in range(len(gold_pos))),
        np.where(gold_pos, POSITIVE, NEGATIVE),
        {"sys": np.where(pred_pos, POSITIVE, NEGATIVE)},
        POSITIVE,
    )


def pipeline_job(w: Workload, seed: int, threads: int, call):
    """Job = ``pipeline.analyze`` on a fresh in-memory coverage world."""
    from challenge_judge import pipeline
    from challenge_judge.metrics import MetricKind

    metrics = tuple(MetricKind(m) for m in w.metrics)
    worlds = [world(seed, i, w.n) for i in range(WORLD_POOL)]
    reference: dict[int, str] = {}  # world index -> its first job's endpoint digest

    def run(job: int) -> tuple[float, str | None]:
        index = job % WORLD_POOL
        world_seed, gold_pos, pred_pos = worlds[index]
        ds = world_dataset(gold_pos, pred_pos)
        config = pipeline.RunConfig(
            positive=POSITIVE, b=w.b, seed=world_seed, metrics=metrics, threads=threads
        )
        start = time.perf_counter()
        report = call("pipeline.analyze", pipeline.analyze, ds, config)
        elapsed = time.perf_counter() - start
        endpoints = [
            (str(m), team, ci.lower, ci.upper)
            for m in metrics
            for team, ci in report.by_metric[m].intervals
        ]
        for m, team, lower, upper in endpoints:
            if not (math.isfinite(lower) and math.isfinite(upper) and 0 <= lower <= upper <= 1):
                return elapsed, f"job {job}: {team} {m} interval ({lower!r}, {upper!r})"
        digest = hashlib.sha256(repr(endpoints).encode()).hexdigest()
        if reference.setdefault(index, digest) != digest:
            return elapsed, f"job {job}: world {index} endpoints differ from its first job's"
        return elapsed, None

    return run, reference


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True, help="workload spec as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--input", type=Path, help="generated CSV for a cli workload")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    w = Workload.from_json(json.loads(args.spec))
    import_package(args.src)
    import numpy as np

    import challenge_judge

    recorder = Recorder() if args.trace else None
    call = recorder.call if recorder else (lambda name, fn, *a: fn(*a))
    if w.entry == "cli":
        run, reference = cli_job(w, args.seed, args.input, args.work, args.threads, call)
    else:
        run, reference = pipeline_job(w, args.seed, args.threads, call)
    if recorder:
        recorder.install()

    attempted = failed = preds = 0
    failures: list[str] = []
    jobs: list[tuple[int, float | None]] = []  # (job id, seconds or None if it failed)

    def one(job: int) -> float | None:
        nonlocal attempted, failed
        if recorder:
            recorder.job = job
        attempted += 1
        try:
            elapsed, problem = run(job)
        except Exception as exc:  # a raising job is a failed job, not a failed run
            elapsed, problem = None, f"job {job}: raised {exc!r}"
        if problem is None:
            return elapsed
        failed += 1
        if len(failures) < MAX_FAILURE_MESSAGES:
            failures.append(problem)
        return None

    one(0)  # warm-up; its outputs are the reference for every later job
    start = time.perf_counter()
    deadline = start + args.seconds
    job = 1
    while True:
        elapsed = one(job)
        jobs.append((job, elapsed))
        if elapsed is not None:
            preds += w.preds_per_job
        job += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    peak_rss_kb = maxrss_kb()

    probe: list[float] = []
    if recorder:
        recorder.uninstall()
        probe = distributions_one_thread(w, args, recorder.absent)

    digest = hashlib.sha256("".join(reference.values()).encode()).hexdigest()
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "jobs": jobs,
        "wall_s": wall,
        "preds": preds,
        "peak_rss_kb": peak_rss_kb,
        "digest": digest,
        "digest_inputs": len(reference),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "challenge_judge": challenge_judge.__version__,
        },
        "spans": recorder.spans if recorder else [],
        "absent": recorder.absent if recorder else [],
        "distributions_1t_s": probe,
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def distributions_one_thread(w: Workload, args, absent: list[str]) -> list[float]:
    """Time ``distributions(threads=1)`` on the workload's first input."""
    if "resampling.make_plan" in absent or "resampling.distributions" in absent:
        return []
    from challenge_judge import dataset
    from challenge_judge.metrics import MetricKind
    from challenge_judge.pipeline import distributions, make_plan

    if w.entry == "cli":
        ds = dataset.load(args.input, POSITIVE)
        plan_seed = analysis_seed(args.seed)
    else:
        plan_seed, gold_pos, pred_pos = world(args.seed, 0, w.n)
        ds = world_dataset(gold_pos, pred_pos)
    plan = make_plan(ds.n, w.b, plan_seed)
    metrics = tuple(MetricKind(m) for m in w.metrics)
    times: list[float] = []
    budget = time.perf_counter() + args.seconds / 4
    while len(times) < PROBE_REPS and (not times or time.perf_counter() < budget):
        start = time.perf_counter()
        distributions(ds, plan, metrics, threads=1)
        times.append(time.perf_counter() - start)
    return times


if __name__ == "__main__":
    raise SystemExit(main())
