"""Report serialization: canonical JSON plus derived CSV and LaTeX tables.

report.json is the single source of truth. Every real number is stored at
full precision together with a 4-decimal half-up display string. The CSV
and LaTeX tables are rendered from report.json's own document, display
strings included, so each value is rounded once, in ``to_dict``. Each
table's rows are built once and written by one writer as both
``<stem>.csv`` and ``<stem>.tex``.

report.json holds the text of ``json.dumps(..., indent=2,
ensure_ascii=False)``, written by a small writer of its own: Python 3.11's
``json`` encodes indented output in pure Python, one value at a time,
while this writer joins each list of finite floats, such as a pair's b
replicate differences, in one call.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from .errors import as_io_failure
from .inference import ConfidenceInterval
from .metrics import lead_metric
from .pipeline import ComparisonReport


def half_up(x: float, places: int = 4) -> str:
    """Presentation rounding: half-up to ``places`` decimals (3 in star cells)."""
    step = Decimal(1).scaleb(-places)
    return str(Decimal(repr(float(x))).quantize(step, rounding=ROUND_HALF_UP))


def _real(x: float) -> dict:
    return {"value": float(x), "display": half_up(x)}


def _ci_dict(ci: ConfidenceInterval) -> dict:
    return {
        "lower": _real(ci.lower),
        "upper": _real(ci.upper),
        "level": ci.level,
        "point": _real(ci.point),
    }


def to_dict(r: ComparisonReport) -> dict:
    metrics_block = {}
    for m in r.metrics:
        mr = r.by_metric[m]
        block: dict = {
            "intervals": [
                {"team": team, **_ci_dict(ci)} for team, ci in mr.intervals
            ],
            "differences": [
                {
                    "team_a": d.team_a,
                    "team_b": d.team_b,
                    "delta": _real(d.delta),
                    "mean": _real(d.mean),
                    "ci": _ci_dict(d.ci),
                    "contains_zero": d.contains_zero,
                }
                for d in mr.differences
            ],
        }
        if mr.stars is not None:
            block["star_matrix"] = {
                "teams": list(mr.stars.teams),
                "cells": [
                    {
                        "row": row,
                        "col": col,
                        "delta": _real(cell.delta),
                        "delta_display3": half_up(cell.delta, 3),
                        "p": cell.p,
                        "stars": cell.stars,
                    }
                    for (row, col), cell in sorted(mr.stars.cells.items())
                ],
            }
        else:
            block["star_matrix"] = None
        metrics_block[str(m)] = block
    return {
        "config": {
            "b": r.b,
            "seed": r.seed,
            "level": r.level,
            "positive": r.positive,
            "metrics": [str(m) for m in r.metrics],
        },
        "teams": list(r.teams),
        "point_estimates": {
            team: {
                str(m): {**_real(s.value), "defined": s.defined}
                for m, s in by_m.items()
            }
            for team, by_m in r.points.items()
        },
        "degenerate_replicates": {
            team: {str(m): c for m, c in by_m.items()}
            for team, by_m in r.degenerate.items()
        },
        "metrics": metrics_block,
        "pairs": [
            {
                "team_a": p.team_a,
                "team_b": p.team_b,
                "metric": str(p.metric),
                "delta": _real(p.delta),
                "p": p.p,
                "b_exceed": p.b_exceed,
                "diffs": [float(x) for x in p.diffs],
            }
            for p in r.pairs
        ],
    }


_STR = json.encoder.encode_basestring  # a JSON string literal, non-ASCII kept as is


def _scalar(x) -> str:
    """``x`` as ``json.dumps`` writes a str, None, bool, int or float."""
    if isinstance(x, str):
        return _STR(x)
    if x is None or isinstance(x, bool):
        return {None: "null", True: "true", False: "false"}[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False)``, byte for byte, for str keys."""
    parts: list[str] = []

    def emit(value, newline: str) -> None:
        if isinstance(value, dict):
            if not value:
                parts.append("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in value.items():
                if isinstance(item, (dict, list, tuple)):
                    parts.append(f"{sep}{_STR(key)}: ")
                    emit(item, inner)
                else:
                    parts.append(f"{sep}{_STR(key)}: {_scalar(item)}")
                sep = "," + inner
            parts.append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                parts.append("[]")
                return
            inner = newline + "  "
            if set(map(type, value)) == {float}:
                text = ("," + inner).join(map(float.__repr__, value))
                if "n" not in text:  # no nan or inf, which JSON spells otherwise
                    parts.append(f"[{inner}{text}{newline}]")
                    return
            sep = "[" + inner
            for item in value:
                parts.append(sep)
                emit(item, inner)
                sep = "," + inner
            parts.append(newline + "]")
        else:
            parts.append(_scalar(value))

    emit(obj, "\n")
    return "".join(parts)


def write_text(path: Path, text: str) -> Path:
    """Write one UTF-8 output file, mapping OS errors to IoFailure."""
    with as_io_failure(path, "write"):
        path.write_text(text, encoding="utf-8")
    return path


def _csv_lines(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_TEX_SPECIALS = str.maketrans({
    "\\": r"\textbackslash{}",
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
})


def _tex_escape(text: str) -> str:
    """``text`` with LaTeX's special characters escaped."""
    return text.translate(_TEX_SPECIALS)


def _tex_table(header: list[str], rows: list[list[str]], note: str | None = None) -> str:
    """A tabular whose header cells and row labels (team names) are escaped."""
    lines = [
        "\\begin{tabular}{l" + "r" * (len(header) - 1) + "}",
        "\\hline",
        " & ".join(map(_tex_escape, header)) + " \\\\",
        "\\hline",
    ]
    for label, *cells in rows:
        lines.append(" & ".join([_tex_escape(label), *cells]) + " \\\\")
    lines.append("\\hline")
    lines.append("\\end{tabular}")
    if note:
        lines.append(note)
    return "\n".join(lines) + "\n"


STAR_NOTE = (
    "\\\\ Note: $\\dagger$ $p<.1$, *$p<.05$, **$p<.01$, ***$p<.001$."
    "  % ** denotes $p<.01$ (a widely circulated version of this note"
    " misprints it as $p<.1$, duplicating the dagger threshold)"
)


def emit_tables(r: ComparisonReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, then one CSV and one LaTeX fragment per table, both from its document."""
    out = Path(out_dir)
    with as_io_failure(out, "create"):
        out.mkdir(parents=True, exist_ok=True)
    doc = to_dict(r)
    written = [write_text(out / "report.json", _dumps(doc) + "\n")]

    def table(stem: str, csv_rows: list[list[str]], tex_header: list[str],
              tex_rows: list[list[str]], note: str | None = None) -> None:
        written.append(write_text(out / f"{stem}.csv", _csv_lines(csv_rows)))
        written.append(write_text(out / f"{stem}.tex", _tex_table(tex_header, tex_rows, note)))

    # table 1: point estimates, ordered by the lead metric's intervals
    names, points = doc["config"]["metrics"], doc["point_estimates"]
    rows = [
        [e["team"], *(points[e["team"]][name]["display"] for name in names)]
        for e in doc["metrics"][str(lead_metric(r.metrics))]["intervals"]
    ]
    table("table1", [["team", *names], *rows], ["Team", *names], rows)

    for name, block in doc["metrics"].items():
        rows = [
            [e["team"], e["lower"]["display"], e["upper"]["display"], e["point"]["display"]]
            for e in block["intervals"]
        ]
        table(f"table2_{name}", [["team", "lower", "upper", "point"], *rows],
              ["Team", "CI"], [[t, f"({lo},{hi})"] for t, lo, hi, _ in rows])

        rows = [
            [d["team_b"], d["ci"]["lower"]["display"], d["mean"]["display"],
             d["ci"]["upper"]["display"], _scalar(d["contains_zero"])]
            for d in block["differences"]
        ]
        table(f"table3_{name}", [["team", "ici", "mean", "sci", "contains_zero"], *rows],
              ["Team", "ICI", "Mean", "SCI"], [row[:4] for row in rows])

        if block["star_matrix"] is None:
            table(f"table4_{name}", [["team"]], ["Team"], [])
            continue
        # row i holds a cell for each of the i columns ranked above it
        teams = block["star_matrix"]["teams"]
        text = {(c["row"], c["col"]): f"{c['delta_display3']} {c['stars']}".rstrip()
                for c in block["star_matrix"]["cells"]}
        rows = [[row, *(text[row, col] for col in teams[:i]), *[""] * (len(teams) - 1 - i)]
                for i, row in enumerate(teams[1:], start=1)]
        header = ["", *teams[:-1]]
        tex_rows = [[t, *(c.replace("†", "$\\dagger$") for c in texts)] for t, *texts in rows]
        table(f"table4_{name}", [header, *rows], header, tex_rows, note=STAR_NOTE)

    return written
