"""Dataset ingestion, validation, and synthetic reconstruction.

The on-disk format is a single wide CSV, ``id,gold,<team1>,...,<teamK>``,
UTF-8, comma-delimited, header in the first row, with standard CSV quoting
(RFC 4180) as Python's ``csv`` module reads and writes it. Every cell must
be non-empty; a leading UTF-8 byte-order mark is skipped. ``write`` and
``load`` are inverses for every non-empty token.

``load`` keeps the cells as ``str`` objects in one (n, K+2) object array;
``gold`` and each team column are views of it, so every token, NUL
characters included, is kept exactly as written. Which cells hold the
positive label is worked out once per dataset (``positive_mask``) and
shared by the point estimates and the bootstrap.

``reconstruct`` builds a dataset from per-team (tp, fp) confusion counts.
Marginal metrics of the result are exact; joint agreement between teams is
synthetic (errors placed independently per team), so paired quantities are
only approximately reproduced for real leaderboards.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CountOutOfRange,
    DuplicateId,
    EmptyCell,
    IoFailure,
    LengthMismatch,
    MissingColumn,
    UnknownPositiveLabel,
)
from .metrics import is_positive

DEFAULT_NEGATIVE = "non-offensive"
DEFAULT_POSITIVE = "offensive"


@dataclass(frozen=True)
class LabeledDataset:
    """Gold labels plus aligned per-team prediction columns."""

    ids: tuple[str, ...]
    gold: np.ndarray
    teams: dict[str, np.ndarray]
    positive: str

    def __post_init__(self):
        n = len(self.ids)
        if n < 1:
            raise LengthMismatch("dataset must contain at least one example")
        if len(self.gold) != n:
            raise LengthMismatch(f"gold column has {len(self.gold)} entries, expected {n}")
        if not self.teams:
            raise MissingColumn("dataset must contain at least one team column")
        for team, col in self.teams.items():
            if not team:
                raise MissingColumn("team names must be non-empty")
            if len(col) != n:
                raise LengthMismatch(
                    f"team {team!r} column has {len(col)} entries, expected {n}"
                )
        if not self.positive:
            raise UnknownPositiveLabel("positive label must be a non-empty token")

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def team_names(self) -> tuple[str, ...]:
        return tuple(self.teams)

    @cached_property
    def positive_mask(self) -> np.ndarray:
        """(n, K+1) bool: which gold, then each team's, labels are positive.

        Tokens are compared as ``str`` objects, exactly. ``load`` sets the
        mask from its cell array; for a dataset built directly, the columns
        are stacked first so that one comparison walks the tokens row by row.
        """
        columns = [np.asarray(c, dtype=object) for c in (self.gold, *self.teams.values())]
        return is_positive(np.column_stack(columns), self.positive)


def load(path: str | Path, positive: str) -> LabeledDataset:
    """Load and validate a wide gold+predictions CSV."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header[:2] != ["id", "gold"]:
                raise MissingColumn(f"{path}: header must start with 'id,gold', got {header[:2]}")
            team_names = header[2:]
            if not team_names:
                raise MissingColumn(f"{path}: no team columns after 'gold'")
            if len(set(team_names)) != len(team_names):
                raise DuplicateId(f"{path}: duplicate team column names")
            rows: list[list[str]] = []
            seen: set[str] = set()
            start = reader.line_num + 1  # a quoted cell can span lines
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if len(row) != len(header):
                    raise LengthMismatch(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                if row[0] in seen:
                    raise DuplicateId(f"{path}:{lineno}: duplicate id {row[0]!r}")
                if "" in row:
                    raise EmptyCell(f"empty cell at {path}:{lineno} ({header[row.index('')]})")
                seen.add(row[0])
                rows.append(row)
        except csv.Error as exc:
            raise IoFailure(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise IoFailure(f"{path}: not UTF-8 text ({exc.reason})") from None
    cells = np.array(rows, dtype=object).reshape(len(rows), len(header))
    mask = is_positive(cells[:, 1:], positive)
    if not mask[:, 0].any():
        raise UnknownPositiveLabel(
            f"{path}: positive label {positive!r} never occurs in the gold column"
        )
    teams = {t: cells[:, j] for j, t in enumerate(team_names, start=2)}
    ds = LabeledDataset(tuple(cells[:, 0].tolist()), cells[:, 1], teams, positive)
    ds.__dict__["positive_mask"] = mask  # seeds the cached property; no copy of the cells
    return ds


def write(ds: LabeledDataset, path: str | Path) -> None:
    """Write a dataset in the wide CSV format, quoting as ``load`` reads it back."""
    header = ["id", "gold", *ds.teams]
    columns = [ds.ids, ds.gold, *ds.teams.values()]
    for name, col in zip(header, columns):
        if "" in col:
            raise EmptyCell(f"cannot write {path}: empty cell ({name})")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *zip(*columns)])


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file; bytes that are not UTF-8 raise IoFailure naming it."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise IoFailure(f"{path}: not UTF-8 text ({exc.reason})") from None


@dataclass(frozen=True)
class ReconstructionSpec:
    """Class sizes plus per-team (tp, fp) counts to rebuild a dataset from."""

    n_pos: int
    n_neg: int
    teams: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_pos < 1 or self.n_neg < 0:
            raise CountOutOfRange(f"invalid class sizes n_pos={self.n_pos}, n_neg={self.n_neg}")
        for team, (tp, fp) in self.teams.items():
            if not (0 <= tp <= self.n_pos):
                raise CountOutOfRange(f"{team}: tp={tp} outside [0, {self.n_pos}]")
            if not (0 <= fp <= self.n_neg):
                raise CountOutOfRange(f"{team}: fp={fp} outside [0, {self.n_neg}]")

    @classmethod
    def from_json(cls, path: str | Path) -> "ReconstructionSpec":
        raw = read_json(path)

        def count(obj, key: str) -> int:  # as ``int`` reads text: 7 or "7", not 2.7 or true
            return int(str(obj[key]))

        try:
            teams = {t: (count(c, "tp"), count(c, "fp")) for t, c in raw["teams"].items()}
            n_pos, n_neg = count(raw, "n_pos"), count(raw, "n_neg")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}: a spec needs integer n_pos, n_neg and per-team tp, fp ({exc!r})"
            ) from None
        return cls(n_pos, n_neg, teams)

    def to_json(self, path: str | Path) -> None:
        raw = {
            "n_pos": self.n_pos,
            "n_neg": self.n_neg,
            "teams": {t: {"tp": tp, "fp": fp} for t, (tp, fp) in self.teams.items()},
        }
        Path(path).write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")


def reconstruct(
    spec: ReconstructionSpec,
    seed: int,
    positive: str = DEFAULT_POSITIVE,
    negative: str = DEFAULT_NEGATIVE,
) -> LabeledDataset:
    """Build a synthetic dataset whose confusion counts match ``spec`` exactly.

    Gold is n_pos positives followed by n_neg negatives. For each team the
    seeded stream picks which positives it gets right (tp of them) and which
    negatives it gets wrong (fp of them); errors are placed independently
    across teams.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_pos + spec.n_neg
    gold = np.array([positive] * spec.n_pos + [negative] * spec.n_neg, dtype=object)
    teams: dict[str, np.ndarray] = {}
    for team, (tp, fp) in spec.teams.items():
        col = np.full(n, negative, dtype=object)
        hit = rng.choice(spec.n_pos, size=tp, replace=False)
        col[hit] = positive
        err = spec.n_pos + rng.choice(spec.n_neg, size=fp, replace=False)
        col[err] = positive
        teams[team] = col
    ids = tuple(f"ex{i:05d}" for i in range(n))
    return LabeledDataset(ids, gold, teams, positive)
