"""Hand-rolled SVG figures: interval plots, difference plots, histograms.

No plotting framework: elements are written directly with fixed numeric
formatting, so identical reports produce byte-identical files and tests
can parse colors and geometry straight out of the XML.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .pipeline import ComparisonReport, check_figure_names, histogram_file, pair_name
from .report import write_text

WIDTH, HEIGHT = 1600, 900
RED = "#cc3311"  # difference interval containing zero
GREEN = "#117733"  # difference interval excluding zero
BLUE = "#4477aa"
GREY = "#555555"
FONT = "font-family=\"sans-serif\""

MIN_BINS = 10


def _f(x: float) -> str:
    return f"{x:.2f}"


def escape(text: str) -> str:
    """``text`` with ``&``, ``>`` and ``<`` as XML entities, ``&`` first.

    The same replacements, in the same order, as ``xml.sax.saxutils.escape``,
    whose import would load the network modules of ``urllib.request``.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class Canvas:
    def __init__(self, width: int = WIDTH, height: int = HEIGHT):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke=GREY, width=2.0, cls=None, dash=None):
        extra = f' class="{cls}"' if cls else ""
        if dash:
            extra += f' stroke-dasharray="{dash}"'
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}"'
            f' stroke="{stroke}" stroke-width="{_f(width)}"{extra}/>'
        )

    def circle(self, cx, cy, r, fill=GREY):
        self.parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"/>')

    def rect(self, x, y, w, h, fill, cls=None):
        extra = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}"'
            f' fill="{fill}"{extra}/>'
        )

    def text(self, x, y, s, size=20, anchor="start", fill="black"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" {FONT}'
            f' text-anchor="{anchor}" fill="{fill}">{escape(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join([*self.parts, "</svg>"]) + "\n"


def _xscale(lo: float, hi: float, x0: float, x1: float):
    """Affine data->pixel map with 5% padding; degenerate spans get a unit pad."""
    span = hi - lo
    if span <= 0:
        lo, hi = lo - 0.5, hi + 0.5
        span = hi - lo
    lo -= 0.05 * span
    hi += 0.05 * span
    scale = (x1 - x0) / (hi - lo)
    return lambda v: x0 + (v - lo) * scale, lo, hi


def emit_interval_plot(r: ComparisonReport, out_dir: str | Path) -> Path:
    """One panel per metric: teams on the y axis, CI bars with point markers."""
    c = Canvas()
    k = len(r.metrics)
    panel_w = WIDTH / k
    for pi, m in enumerate(r.metrics):
        intervals = r.by_metric[m].intervals
        x0 = pi * panel_w + 180
        x1 = (pi + 1) * panel_w - 40
        lo = min(ci.lower for _, ci in intervals)
        hi = max(ci.upper for _, ci in intervals)
        sx, axis_lo, axis_hi = _xscale(lo, hi, x0, x1)
        c.text((x0 + x1) / 2, 50, str(m), size=28, anchor="middle")
        c.line(x0, 840, x1, 840, width=1.5)
        c.text(x0, 870, _f(axis_lo), size=18, anchor="middle")
        c.text(x1, 870, _f(axis_hi), size=18, anchor="middle")
        step = 740 / (len(intervals) + 1)
        for i, (team, ci) in enumerate(intervals):
            y = 80 + (i + 1) * step
            c.text(x0 - 10, y + 6, team, size=18, anchor="end")
            c.line(sx(ci.lower), y, sx(ci.upper), y, stroke=BLUE, width=3, cls="ci-bar")
            c.line(sx(ci.lower), y - 6, sx(ci.lower), y + 6, stroke=BLUE, width=2)
            c.line(sx(ci.upper), y - 6, sx(ci.upper), y + 6, stroke=BLUE, width=2)
            c.circle(sx(ci.point), y, 5, fill="black")
    return write_text(Path(out_dir) / "fig1_intervals.svg", c.render())


def emit_difference_plot(r: ComparisonReport, out_dir: str | Path) -> Path:
    """Difference-from-best CIs per metric; red iff the interval contains zero."""
    c = Canvas()
    k = len(r.metrics)
    panel_w = WIDTH / k
    for pi, m in enumerate(r.metrics):
        diffs = r.by_metric[m].differences
        x0 = pi * panel_w + 180
        x1 = (pi + 1) * panel_w - 40
        best = diffs[0].team_a if diffs else ""
        c.text((x0 + x1) / 2, 50, f"{m} vs {best}", size=26, anchor="middle")
        if not diffs:
            continue
        lo = min(min(d.ci.lower for d in diffs), 0.0)
        hi = max(max(d.ci.upper for d in diffs), 0.0)
        sx, axis_lo, axis_hi = _xscale(lo, hi, x0, x1)
        c.line(x0, 840, x1, 840, width=1.5)
        c.text(x0, 870, _f(axis_lo), size=18, anchor="middle")
        c.text(x1, 870, _f(axis_hi), size=18, anchor="middle")
        c.line(sx(0.0), 80, sx(0.0), 840, stroke=GREY, width=1.5, dash="6 4", cls="zero-line")
        step = 740 / (len(diffs) + 1)
        for i, d in enumerate(diffs):
            y = 80 + (i + 1) * step
            color = RED if d.contains_zero else GREEN
            cls = "diff-bar contains-zero" if d.contains_zero else "diff-bar excludes-zero"
            c.text(x0 - 10, y + 6, d.team_b, size=18, anchor="end")
            c.line(sx(d.ci.lower), y, sx(d.ci.upper), y, stroke=color, width=3, cls=cls)
            c.line(sx(d.ci.lower), y - 6, sx(d.ci.lower), y + 6, stroke=color, width=2)
            c.line(sx(d.ci.upper), y - 6, sx(d.ci.upper), y + 6, stroke=color, width=2)
            c.circle(sx(d.mean), y, 5, fill=color)
    return write_text(Path(out_dir) / "fig2_differences.svg", c.render())


def histogram_bins(diffs: np.ndarray) -> int:
    """Freedman-Diaconis bin count with a floor of MIN_BINS."""
    diffs = np.asarray(diffs, dtype=np.float64)
    span = float(diffs.max() - diffs.min())
    if span <= 0:
        return 1
    q75, q25 = np.quantile(diffs, [0.75, 0.25])
    width = 2.0 * (q75 - q25) * diffs.size ** (-1.0 / 3.0)
    if width <= 0:
        return MIN_BINS
    return max(MIN_BINS, math.ceil(span / width))


def emit_histogram(
    diffs: np.ndarray, delta: float, name: str, out_dir: str | Path
) -> Path:
    """Histogram of paired differences with marked 0, delta, and 2*delta."""
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.size == 0:
        raise ValueError("cannot draw a histogram of an empty diffs vector")
    c = Canvas()
    x0, x1, y0, y1 = 120, WIDTH - 60, 820, 90
    counts, edges = np.histogram(diffs, bins=histogram_bins(diffs))
    marks = [0.0, delta, 2.0 * delta]
    sx, axis_lo, axis_hi = _xscale(
        min(edges[0], *marks), max(edges[-1], *marks), x0, x1
    )
    peak = max(int(counts.max()), 1)
    sy = lambda count: y0 - (y0 - y1) * count / peak
    c.text((x0 + x1) / 2, 50, name, size=28, anchor="middle")
    for i, count in enumerate(counts):
        if count == 0:
            continue
        left, right = sx(edges[i]), sx(edges[i + 1])
        c.rect(left, sy(count), right - left, y0 - sy(count), fill="#9ebcda", cls="hist-bar")
    c.line(x0, y0, x1, y0, width=1.5)
    c.text(x0, y0 + 30, _f(axis_lo), size=18, anchor="middle")
    c.text(x1, y0 + 30, _f(axis_hi), size=18, anchor="middle")
    for value, label, color in (
        (0.0, "0", GREY),
        (delta, "δ", GREEN),
        (2.0 * delta, "2δ", RED),
    ):
        c.line(sx(value), y0, sx(value), y1 - 10, stroke=color, width=2, dash="6 4",
               cls="mark-line")
        c.text(sx(value), y1 - 20, label, size=22, anchor="middle", fill=color)
    return write_text(Path(out_dir) / histogram_file(name), c.render())


def emit_all_figures(r: ComparisonReport, out_dir: str | Path) -> list[Path]:
    check_figure_names(r.teams, ((p.team_a, p.team_b) for p in r.pairs))
    out = Path(out_dir)
    written = [emit_interval_plot(r, out), emit_difference_plot(r, out)]
    for p in r.pairs:
        written.append(emit_histogram(p.diffs, p.delta, pair_name(p.team_a, p.team_b), out))
    return written
