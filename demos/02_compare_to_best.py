"""Paired comparisons against the best team, and the full output bundle.

Because every team is scored on the same resample rows, per-replicate
score differences are meaningful: their percentile CI says whether a gap
from the leader could be chance (interval contains zero) or not. The
run writes the complete report directory: JSON, CSV/LaTeX tables, and
SVG figures (difference bars colored red when the interval contains
zero, green otherwise).
"""

from pathlib import Path

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.pipeline import RunConfig, analyze
from challenge_judge.report import emit_tables, half_up
from challenge_judge.svgfig import emit_all_figures

ds = cj.reconstruct(offendmex.reconstruction_spec(), seed=7)
report = analyze(ds, RunConfig(positive="offensive", b=10_000, seed=42))

f1 = report.by_metric[cj.MetricKind.F1]
best = f1.differences[0].team_a
print(f"F1 differences from the best team ({best}):")
print(f"{'team':<12} {'ICI':>8} {'mean':>8} {'SCI':>8}  zero in CI?")
for d in f1.differences:
    print(
        f"{d.team_b:<12} {half_up(d.ci.lower):>8} {half_up(d.mean):>8}"
        f" {half_up(d.ci.upper):>8}  {'yes' if d.contains_zero else 'no'}"
    )

print("\nStar matrix cells against the leader (delta, p, stars):")
sm = f1.stars
for row in sm.teams[1:]:
    cell = sm.cells[(row, sm.teams[0])]
    print(f"  {row:<12} {half_up(cell.delta)}  p={cell.p:.4f}  {cell.stars or '(none)'}")

out = Path("demo_output")
emit_tables(report, out)
emit_all_figures(report, out)
print(f"\nWrote {len(list(out.iterdir()))} files to {out}/")
