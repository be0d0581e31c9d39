"""challenge-judge benchmark: one command, checked outputs, named metrics.

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Runs one workload (``paper``, ``coverage``, ``wide``; ``all`` runs each in
turn) as a closed loop: one client in one worker process, each job
starting when the previous one has finished, with ``threads`` = nproc.
Inputs are generated from ``--seed``; every job's outputs are checked
(see ``worker.py``). The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``:

- ``--trace 0``: the end-to-end metrics, measured with tracing off.
- ``--trace 1``: the per-layer metrics. An untraced worker and a traced
  worker each run for half of ``--seconds``; their job medians give
  ``trace.overhead_frac``.

Machine and version facts, notes and sample counts are printed above the
last line and saved, with the spans of a traced run, under ``bench/out/``.
A workload whose estimated resampling memory exceeds half of MemAvailable
is skipped (exit code 3) rather than started. Exit code 2 means the run
could not be made, for example because ``src/challenge_judge`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / "_work"
sys.path.insert(0, str(SRC))

from tracing import SPAN_NAMES, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, estimated_peak_bytes, write_csv  # noqa: E402

# fresh-interpreter imports timed before and again after the worker, so the
# median spans the run rather than one moment of a machine whose speed drifts
SETUP_REPS = 5
TIME_LIMIT_S = 170  # every run must end within 180 s
TAIL_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
EXIT_UNUSABLE = 2
EXIT_SKIPPED = 3

END_TO_END_UNITS = {
    "job_p50_s": "s",
    "job_tail_s": "s",
    "resampled_preds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Unusable(Exception):
    """The benchmark cannot run here (missing package, worker crash, timeout)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def machine_facts() -> dict:
    import numpy

    mem = mem_available_bytes()
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "mem_available_mb": round(mem / 2**20) if mem else None,
        "caches": cache_sizes(),
    }


def setup_times(reps: int, deadline: float) -> list[float]:
    """Seconds to import challenge_judge in a fresh interpreter, ``reps`` times
    after one untimed import that fills the bytecode and file caches."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import challenge_judge; print(repr(time.perf_counter() - t))"
    )
    times = []
    for _ in range(reps + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise Unusable(f"importing challenge_judge failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_worker(
    w: Workload, seed: int, seconds: float, trace: bool, threads: int,
    work: Path, csv: Path | None, deadline: float,
) -> dict:
    result = work / f"worker_trace{int(trace)}.json"
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--spec", json.dumps(w.to_json()), "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
        "--threads", str(threads), "--src", str(SRC), "--work", str(work),
        "--result", str(result),
    ]
    if csv is not None:
        argv += ["--input", str(csv)]
    try:
        # the worker's stdout goes to our stderr: our stdout ends with the result line
        done = subprocess.run(
            argv, cwd=ROOT, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise Unusable(f"{w.name}: worker did not finish within {TIME_LIMIT_S} s") from None
    if done.returncode != 0:
        raise Unusable(f"{w.name}: worker exited with code {done.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail(times: list[float]) -> tuple[float, float]:
    """The highest of p99.9, p99, p90 and p50 (nearest rank) that has at least
    TAIL_BEYOND samples beyond it, and that percentile. With too few samples
    for any of them, the maximum (percentile 100)."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(round(pct * n / 100, 9))
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def job_times(result: dict) -> list[float]:
    return [t for _, t in result["jobs"] if t is not None]


def end_to_end(w: Workload, result: dict, setup: list[float]) -> tuple[dict, dict]:
    times = job_times(result)
    n = len(times)
    if not n:
        return {name: 0.0 for name in END_TO_END_UNITS}, {"job_p50_s": "no job succeeded"}
    tail_s, pct = tail(times)
    values = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "resampled_preds_per_s": result["preds"] / result["wall_s"],
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setup),
    }
    notes = {
        "job_p50_s": f"median of {n} jobs",
        "job_tail_s": (
            f"p{pct:g} of {n} jobs" if pct < 100
            else f"max of {n} jobs (too few for p50 with {TAIL_BEYOND} beyond it)"
        ),
        "resampled_preds_per_s": (
            f"{n} correct jobs x n*K*b={w.preds_per_job} over {result['wall_s']:.3f} s wall"
        ),
        "peak_rss_mb": "ru_maxrss of the worker process",
        "setup_s": f"median of {len(setup)} fresh-interpreter imports",
    }
    return values, notes


PER_LAYER_UNITS: dict[str, str] = {
    "resampling.make_plan_s": "s",
    "resampling.plan_rows_per_s": "1/s",
    "resampling.distributions_s": "s",
    "resampling.distributions_1t_s": "s",
    "resampling.thread_speedup": "x",
    "resampling.plan_bytes": "bytes_computed",
    "resampling.gather_bytes": "bytes_computed",
    "resampling.defined_frac": "fraction",
    "dataset.load_s": "s",
    "dataset.cells_per_s": "1/s",
    "metrics.point_estimates_s": "s",
    "inference.ordered_intervals_s": "s",
    "inference.differences_from_best_s": "s",
    "inference.star_matrix_s": "s",
    "inference.p_values": "count",
    "inference.p_values_per_s": "1/s",
    "pipeline.analyze_self_s": "s",
    "report.emit_tables_s": "s",
    "report.bytes": "bytes",
    "svgfig.emit_all_figures_s": "s",
    "svgfig.bytes": "bytes",
    "cli.self_s": "s",
    **{f"{name}.rss_growth_mb": "MB" for name in SPAN_NAMES},
    "trace.overhead_frac": "fraction",
    "trace.self_time_share": "fraction",
}

# metric -> (span whose time it is, "self" or "total")
SPAN_TIMES = {
    "resampling.make_plan_s": ("resampling.make_plan", "total"),
    "resampling.distributions_s": ("resampling.distributions", "total"),
    "dataset.load_s": ("dataset.load", "total"),
    "metrics.point_estimates_s": ("metrics.point_estimates", "total"),
    "inference.ordered_intervals_s": ("inference.ordered_intervals", "total"),
    "inference.differences_from_best_s": ("inference.differences_from_best", "total"),
    "inference.star_matrix_s": ("inference.star_matrix", "total"),
    "pipeline.analyze_self_s": ("pipeline.analyze", "self"),
    "report.emit_tables_s": ("report.emit_tables", "total"),
    "svgfig.emit_all_figures_s": ("svgfig.emit_all_figures", "total"),
    "cli.self_s": ("cli.main", "self"),
}
# metric -> (numerator count, span names whose summed time is the denominator)
SPAN_RATES = {
    "resampling.plan_rows_per_s": ("rows", ("resampling.make_plan",)),
    "dataset.cells_per_s": ("cells", ("dataset.load",)),
    "inference.p_values_per_s": ("p_values", ("inference.star_matrix", "inference.p_value")),
}
# metric -> (count summed within a job, span names it is summed over)
SPAN_COUNTS = {
    "inference.p_values": ("p_values", ("inference.star_matrix", "inference.p_value")),
    "report.bytes": ("bytes", ("report.emit_tables",)),
    "svgfig.bytes": ("bytes", ("svgfig.emit_all_figures",)),
}


def per_layer(w: Workload, untraced: dict, traced: dict) -> tuple[dict, dict]:
    spans = traced["spans"]
    absent = set(traced["absent"])
    elapsed = {job: t for job, t in traced["jobs"] if t is not None}
    if not elapsed or not job_times(untraced):
        return {m: 0.0 for m in PER_LAYER_UNITS}, {"trace.overhead_frac": "no job succeeded"}
    # per timed job: span name -> total time, self time, counts
    jobs: dict[int, dict] = defaultdict(lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0}))
    counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))
    growth: dict[str, int] = defaultdict(int)
    for span, self_s in zip(spans, self_times(spans)):
        growth[span["name"]] += span["rss1_kb"] - span["rss0_kb"]
        if span["job"] not in elapsed:
            continue  # the warm-up job or a failed job
        agg = jobs[span["job"]][span["name"]]
        agg["total"] += span["end"] - span["start"]
        agg["self"] += self_s
        for key, value in span["counts"].items():
            counts[span["job"]][(span["name"], key)] += value
    seen = {name for job in jobs.values() for name in job}

    values: dict[str, float] = {}
    notes: dict[str, str] = {}

    def missing(metric: str, names) -> bool:
        gone = [n for n in names if n in absent]
        if gone:
            notes[metric] = "absent: " + ", ".join(gone)
        elif not any(n in seen for n in names):
            notes[metric] = "n/a: layer not called on this workload"
        else:
            return False
        values[metric] = 0.0
        return True

    def median_over_jobs(fn) -> float:
        return statistics.median(fn(job) for job in sorted(jobs))

    for metric, (name, kind) in SPAN_TIMES.items():
        if not missing(metric, [name]):
            values[metric] = median_over_jobs(lambda j: jobs[j][name][kind])
    for metric, (key, names) in SPAN_RATES.items():
        if not missing(metric, names):
            values[metric] = median_over_jobs(
                lambda j: sum(counts[j][(n, key)] for n in names)
                / sum(jobs[j][n]["total"] for n in names)
            )
    for metric, (key, names) in SPAN_COUNTS.items():
        if not missing(metric, names):
            values[metric] = median_over_jobs(lambda j: sum(counts[j][(n, key)] for n in names))

    one_thread, speedup = "resampling.distributions_1t_s", "resampling.thread_speedup"
    if missing(one_thread, ["resampling.make_plan", "resampling.distributions"]):
        values[speedup], notes[speedup] = 0.0, notes[one_thread]
    else:
        probe = traced["distributions_1t_s"]
        values[one_thread] = statistics.median(probe)
        notes[one_thread] = f"median of {len(probe)} calls, threads=1"
        values[speedup] = values[one_thread] / values["resampling.distributions_s"]
        notes[speedup] = "distributions_1t_s / distributions_s"
    values["resampling.plan_bytes"] = float(w.b * w.n * 4)
    values["resampling.gather_bytes"] = float(w.b * w.n * w.teams)
    notes["resampling.plan_bytes"] = "computed: b*n*4"
    notes["resampling.gather_bytes"] = "computed: b*n*K"
    replicates = sum(c[("resampling.distributions", "replicates")] for c in counts.values())
    degenerate = sum(c[("resampling.distributions", "degenerate")] for c in counts.values())
    if not missing("resampling.defined_frac", ["resampling.distributions"]):
        values["resampling.defined_frac"] = 1 - degenerate / replicates
        notes["resampling.defined_frac"] = f"{replicates - degenerate}/{replicates} replicates"

    for name in SPAN_NAMES:
        metric = f"{name}.rss_growth_mb"
        if not missing(metric, [name]):
            values[metric] = growth[name] / 1024
            notes[metric] = "ru_maxrss growth summed over the traced run's calls"

    p50_traced = statistics.median(job_times(traced))
    p50_untraced = statistics.median(job_times(untraced))
    values["trace.overhead_frac"] = p50_traced / p50_untraced - 1
    notes["trace.overhead_frac"] = (
        f"traced job_p50_s {p50_traced:.6g} s ({len(elapsed)} jobs) vs untraced "
        f"{p50_untraced:.6g} s ({len(job_times(untraced))} jobs)"
    )
    shares = [
        sum(agg["self"] for agg in jobs[j].values()) / elapsed[j] for j in sorted(jobs)
    ]
    values["trace.self_time_share"] = min(shares)
    notes["trace.self_time_share"] = "lowest over jobs of (sum of span self times) / job wall"
    for metric in [*SPAN_TIMES, *SPAN_RATES, *SPAN_COUNTS]:
        notes.setdefault(metric, f"median over {len(jobs)} traced jobs")
    return {m: values[m] for m in PER_LAYER_UNITS}, notes


def run_one(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[int, dict | None]:
    """Run workload ``w`` once; return the exit status and the result line."""
    name = w.name
    deadline = time.monotonic() + TIME_LIMIT_S
    threads = nproc()
    facts = machine_facts()
    print(f"== {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"   {w.why}")
    print(f"   shape n={w.n} K={w.teams} b={w.b} metrics={','.join(w.metrics)} "
          f"entry={'cli.main analyze' if w.entry == 'cli' else 'pipeline.analyze'} "
          f"threads={threads} closed loop, 1 client")
    estimate = estimated_peak_bytes(w, threads)
    mem = mem_available_bytes()
    if mem is not None and estimate > mem / 2:
        print(f"   SKIPPED: estimated {estimate / 2**20:.0f} MB (b*n*4 + threads*b*n) "
              f"exceeds half of MemAvailable {mem / 2**20:.0f} MB")
        return EXIT_SKIPPED, None

    setup = [] if trace else setup_times(SETUP_REPS, deadline)
    # manifest.json records the input path as given, so it is kept relative
    # and free of run-specific parts: equal seeds must give equal output bytes
    work = WORK / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        csv = None
        if w.entry == "cli":
            csv = Path(os.path.relpath(work / "input.csv", ROOT))
            write_csv(w, seed, ROOT / csv)

        def run(secs: float, traced: bool) -> dict:
            return run_worker(w, seed, secs, traced, threads, work, csv, deadline)

        if trace:
            workers = [run(seconds / 2, False), run(seconds / 2, True)]
            values, notes = per_layer(w, *workers)
            units = PER_LAYER_UNITS
        else:
            workers = [run(seconds, False)]
            setup += setup_times(SETUP_REPS, deadline)
            values, notes = end_to_end(w, workers[0], setup)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    attempted = sum(r["attempted"] for r in workers)
    failed = sum(r["failed"] for r in workers)
    digests = {r["digest"] for r in workers}
    facts["versions"] = workers[0]["versions"]
    for r in workers:
        for problem in r["failures"]:
            print(f"   FAILED {problem}", file=sys.stderr)
    if len(digests) > 1:
        print("   FAILED untraced and traced workers produced different outputs", file=sys.stderr)
    correct = failed == 0 and len(digests) == 1

    print(f"   machine {json.dumps(facts, sort_keys=True)}")
    for metric, value in values.items():
        note = notes.get(metric, "")
        print(f"   {metric:<42} {value:>16.6g} {units[metric]:<15} {note}")
    print(f"   {'failed_frac':<42} {failed / attempted:>16.6g} {'fraction':<15} "
          f"{failed}/{attempted} jobs (incl. warm-up)")
    print(f"   output digest {workers[0]['digest']} over {workers[0]['digest_inputs']} input(s)")

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}_seed{seed}_trace{int(trace)}"
    record = {**line, "workload": w.to_json(), "seed": seed, "seconds": seconds,
              "notes": notes, "facts": facts, "digest": workers[0]["digest"],
              "failures": [p for r in workers for p in r["failures"]],
              "setup_s_samples": setup,
              "job_times_s": [job_times(r) for r in workers]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        with (OUT / f"{stem}_spans.jsonl").open("w", encoding="utf-8") as fh:
            for span in workers[1]["spans"]:
                fh.write(json.dumps(span) + "\n")
    return 0, line


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="challenge-judge benchmark")
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "challenge_judge" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'challenge_judge'}", file=sys.stderr)
        return EXIT_UNUSABLE
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status, lines = 0, {}
    for name in names:
        try:
            code, line = run_one(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except Unusable as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return EXIT_UNUSABLE
        status = status or code
        if line is not None:
            lines[name] = line
    if not lines:
        return status
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
