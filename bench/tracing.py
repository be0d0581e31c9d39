"""Span recording around the package's layer boundaries, from outside.

The traced run replaces each layer's public functions with a timing
wrapper at the place where their caller looks them up: the ``cli``
module's names for ``analyze`` and the emitters, the ``dataset`` module
attribute for ``load`` (``cli`` calls ``dataset.load``), and the
``pipeline`` module's names for everything ``analyze`` calls. Spans stay
in memory and are written out by the benchmark when the run ends.
"""

from __future__ import annotations

import importlib
import resource
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute, span name "<layer>.<fn>")
WRAPS = (
    ("challenge_judge.dataset", "load", "dataset.load"),
    ("challenge_judge.cli", "analyze", "pipeline.analyze"),
    ("challenge_judge.cli", "emit_tables", "report.emit_tables"),
    ("challenge_judge.cli", "emit_all_figures", "svgfig.emit_all_figures"),
    ("challenge_judge.pipeline", "point_estimates", "metrics.point_estimates"),
    ("challenge_judge.pipeline", "make_plan", "resampling.make_plan"),
    ("challenge_judge.pipeline", "distributions", "resampling.distributions"),
    ("challenge_judge.pipeline", "ordered_intervals", "inference.ordered_intervals"),
    ("challenge_judge.pipeline", "differences_from_best", "inference.differences_from_best"),
    ("challenge_judge.pipeline", "star_matrix", "inference.star_matrix"),
    ("challenge_judge.pipeline", "p_value", "inference.p_value"),
)
# "cli.main" is the root span the benchmark itself opens around a cli job
SPAN_NAMES = tuple(dict.fromkeys(["cli.main", *(name for _, _, name in WRAPS)]))


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _written_bytes(paths) -> dict:
    return {"bytes": sum(p.stat().st_size for p in paths)}


def _distribution_counts(dists) -> dict:
    ds = [d for by_metric in dists.values() for d in by_metric.values()]
    return {
        "replicates": sum(d.b for d in ds),
        "degenerate": sum(d.degenerate_count for d in ds),
    }


# counts recorded at the boundary, from each call's result
COUNTS = {
    "dataset.load": lambda ds: {"cells": ds.n * (len(ds.teams) + 2)},
    "report.emit_tables": _written_bytes,
    "svgfig.emit_all_figures": _written_bytes,
    "resampling.make_plan": lambda plan: {"rows": int(plan.b)},
    "resampling.distributions": _distribution_counts,
    "inference.star_matrix": lambda stars: {"p_values": len(stars.cells)},
    "inference.p_value": lambda result: {"p_values": 1},
}


class Recorder:
    """In-memory span list for one worker process.

    A span is a dict with ``id``, ``name``, ``job``, ``parent`` (id or
    None), ``start``/``end`` (perf_counter seconds), ``rss0_kb``/``rss1_kb``
    (ru_maxrss before and after) and ``counts``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": self._stack[-1] if self._stack else None,
            "rss0_kb": maxrss_kb(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            span["rss1_kb"] = maxrss_kb()
        count = COUNTS.get(name)
        span["counts"] = count(result) if count else {}
        return result

    def install(self) -> None:
        """Wrap every function in WRAPS; record the missing ones as absent."""
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]
