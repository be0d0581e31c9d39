"""Benchmark workloads and their seeded input generators.

Every input is a pure function of the benchmark seed: the same seed gives
the same CSV bytes and the same in-memory worlds. The program under test
only ever receives the generated CSV (``cli`` workloads) or the generated
in-memory dataset (``pipeline`` workloads); the expected confusion counts
stay on the benchmark's side and are used to check the outputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

POSITIVE = "offensive"
NEGATIVE = "non-offensive"

# coverage world of acceptance criterion 5
WORLD_POS_FRAC = 0.3
WORLD_RECALL = 0.8
WORLD_FP_RATE = 0.25
# distinct worlds per run; jobs cycle through them so every world is
# analyzed several times and repeat outputs can be compared byte for byte
WORLD_POOL = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its shape, entry point and why it exists."""

    name: str
    entry: str  # "cli": cli.main analyze on a CSV; "pipeline": pipeline.analyze in memory
    n: int
    teams: int
    b: int
    metrics: tuple[str, ...]
    n_pos: int
    published: bool  # counts are the OffendMEX leaderboard's, not seeded
    why: str

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "Workload":
        return cls(**{**d, "metrics": tuple(d["metrics"])})

    @property
    def preds_per_job(self) -> int:
        """Resampled predictions one job scores: n * K * b."""
        return self.n * self.teams * self.b


ALL3 = ("precision", "recall", "f1")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper", "cli", 2182, 10, 10_000, ALL3, 600, True,
            "OffendMEX reconstruction n=2182 K=10 b=10000, 3 metrics, via cli.main analyze: "
            "the published use case; resampling (plan + counting) is ~90% of each job",
        ),
        Workload(
            "coverage", "pipeline", 500, 1, 2000, ("precision", "recall"), 0, False,
            "criterion-5 world n=500 K=1 b=2000 via pipeline.analyze in memory: plan "
            "generation is 75-90% of a job; ingest, pairwise inference and emission are bypassed",
        ),
        Workload(
            "wide", "cli", 20_000, 50, 1000, ALL3, 6000, False,
            "synthetic n=20000 K=50 b=1000 via cli.main analyze: 1.04M cells of ingest, many "
            "teams over short plans, 1225-pair star matrices, the largest tables",
        ),
    )
}


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def team_counts(w: Workload, seed: int) -> dict[str, tuple[int, int]]:
    """Per-team (tp, fp) for a ``cli`` workload."""
    if w.published:
        from challenge_judge import offendmex

        spec = offendmex.reconstruction_spec()
        if (spec.n_pos + spec.n_neg, len(spec.teams), spec.n_pos) != (w.n, w.teams, w.n_pos):
            raise ValueError(f"{w.name}: shape does not match the OffendMEX reconstruction")
        return dict(spec.teams)
    rng = rng_for(seed, 1)
    n_neg = w.n - w.n_pos
    recall = rng.uniform(0.4, 0.9, size=w.teams)
    fp_rate = rng.uniform(0.05, 0.4, size=w.teams)
    return {
        f"team{k + 1:02d}": (int(round(r * w.n_pos)), int(round(f * n_neg)))
        for k, (r, f) in enumerate(zip(recall, fp_rate))
    }


def write_csv(w: Workload, seed: int, path: Path) -> None:
    """Write the wide CSV for a ``cli`` workload.

    Gold positives sit at seeded positions. Each team's true positives and
    false positives are seeded subsets of the positives and negatives, so
    its confusion counts equal ``team_counts(w, seed)`` exactly.
    """
    counts = team_counts(w, seed)
    rng = rng_for(seed, 2)
    gold_pos = np.zeros(w.n, dtype=bool)
    gold_pos[rng.choice(w.n, size=w.n_pos, replace=False)] = True
    pos_idx = np.flatnonzero(gold_pos)
    neg_idx = np.flatnonzero(~gold_pos)
    tokens = np.array([NEGATIVE, POSITIVE], dtype=object)
    cols = [[f"ex{i:06d}" for i in range(w.n)], tokens[gold_pos.astype(np.intp)]]
    for tp, fp in counts.values():
        pred = np.zeros(w.n, dtype=bool)
        pred[rng.choice(pos_idx, size=tp, replace=False)] = True
        pred[rng.choice(neg_idx, size=fp, replace=False)] = True
        cols.append(tokens[pred.astype(np.intp)])
    lines = [",".join(["id", "gold", *counts])]
    lines.extend(",".join(row) for row in zip(*cols))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def world(seed: int, index: int, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """One coverage world: (analysis seed, gold positive mask, predicted positive mask)."""
    rng = rng_for(seed, 3, index)
    gold_pos = rng.random(n) < WORLD_POS_FRAC
    pred_pos = np.where(gold_pos, rng.random(n) < WORLD_RECALL, rng.random(n) < WORLD_FP_RATE)
    return int(rng.integers(0, 2**31)), gold_pos, pred_pos


def analysis_seed(seed: int) -> int:
    """Resampling seed handed to ``analyze --seed`` for a ``cli`` workload."""
    return int(rng_for(seed, 4).integers(0, 2**31))


def estimated_peak_bytes(w: Workload, threads: int) -> int:
    """Plan matrix (b*n int32) plus one b*n int8 gather per worker thread."""
    return w.b * w.n * 4 + threads * w.b * w.n
