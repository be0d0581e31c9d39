"""How the 2-delta bootstrap p-value works, on one pair of teams.

The paired bootstrap difference distribution is centered near the
observed full-dataset gap delta. Under the null that the gap is zero,
seeing a replicate beyond 2*delta is as surprising as the observed win;
the p-value is the (add-one smoothed) fraction of replicates out there.
"""

from pathlib import Path

import numpy as np

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.svgfig import emit_histogram

ds = cj.reconstruct(offendmex.reconstruction_spec(), seed=7)
points = cj.point_estimates(ds)
plan = cj.make_plan(ds.n, 10_000, seed=42)
F1 = cj.MetricKind.F1
dists = cj.distributions(ds, plan, (F1,))
out = Path("demo_output")
out.mkdir(exist_ok=True)

for a, b in (("NLPCIC", "CIMATMTYGTO"), ("NLPCIC", "DCCDINFOTEC")):
    diffs = cj.paired_difference(dists[a][F1], dists[b][F1])
    delta = points[a][F1].value - points[b][F1].value
    res = cj.p_value(diffs, delta)
    print(f"{a} vs {b}:")
    print(f"  delta (full data)    = {delta:.4f}")
    print(f"  diffs centered near  = {np.median(diffs):.4f}")
    print(f"  replicates >= 2*delta: {res.b_exceed} of {len(diffs)}")
    verdict = "significant" if res.p < 0.05 else "not significant"
    print(f"  p = {res.p:.4f}  ({verdict} at the 5% level, one-sided)")
    path = emit_histogram(diffs, delta, f"{a}_vs_{b}", out)
    print(f"  histogram -> {path}\n")
