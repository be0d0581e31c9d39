"""Rebuild the MeOffendEs subtask-3 leaderboard from confusion counts.

The original tweet corpus is private, but published precision/recall pin
down each team's confusion counts. A synthetic dataset with those exact
counts reproduces every published point estimate, and its bootstrap CIs
match the published intervals up to Monte Carlo error.
"""

import challenge_judge as cj
from challenge_judge import offendmex
from challenge_judge.report import half_up

spec = offendmex.reconstruction_spec()
print("Reconstruction spec (team -> tp, fp):")
for team, (tp, fp) in spec.teams.items():
    print(f"  {team:<12} tp={tp:<4} fp={fp}")

ds = cj.reconstruct(spec, seed=7)
print(f"\nDataset: n={ds.n} ({spec.n_pos} offensive, {spec.n_neg} non-offensive)")

points = cj.point_estimates(ds)
print(f"\n{'team':<12} {'precision':>9} {'recall':>9} {'f1':>9}   (published)")
for team, published in offendmex.LEADERBOARD.items():
    row = [half_up(points[team][m].value) for m in cj.ALL_METRICS]
    print(f"{team:<12} {row[0]:>9} {row[1]:>9} {row[2]:>9}   {published}")

print("\nBootstrap 95% intervals for F1 (b=10000, shared index plan):")
plan = cj.make_plan(ds.n, 10_000, seed=42)
dists = cj.distributions(ds, plan)
f1_points = {t: points[t][cj.MetricKind.F1].value for t in ds.teams}
f1_dists = {t: dists[t][cj.MetricKind.F1] for t in ds.teams}
for team, ci in cj.ordered_intervals(f1_dists, f1_points):
    print(f"  {team:<12} ({half_up(ci.lower)}, {half_up(ci.upper)})")
