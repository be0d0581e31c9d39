"""Dataset ingestion, validation, and synthetic reconstruction.

The on-disk format is a single wide CSV, ``id,gold,<team1>,...,<teamK>``,
UTF-8, comma-delimited, header in the first row, with standard CSV quoting
(RFC 4180) as Python's ``csv`` module reads and writes it. Every cell must
be non-empty; a leading UTF-8 byte-order mark is skipped. ``write`` and
``load`` are inverses for every non-empty token.

Each reader gives one label table: the distinct labels, and the (n, K+1)
codes of the gold and team cells into them. ``load`` indexes the table by
the codes into one object array of ``str`` whose columns are ``gold`` and
the teams, so every token, NUL included, is kept exactly as written, and
each distinct label is one ``str`` object that every cell with it refers
to (ids are unique and kept as read): on a 20,000-row, 50-team file the
dataset holds 10 MB rather than 69 MB, and a 50,000-row, 50-team file
loads in 62 MB of resident memory rather than 245 MB. ``load`` is the one
place that applies the positive label to a file: it compares each
distinct label once and indexes the result by the codes into the cached
(n, K+1) bool ``positive_mask``, which a dataset built in memory fills a
column at a time. The point estimates and the bootstrap share that mask.

``load`` reads a file in one of two ways, with one result. A regular file
with no ``"`` and no carriage return outside a CRLF line end, holding a
few distinct labels, is tokenized as bytes in numpy, a bounded chunk of
lines at a time. Every other file, and every file whose rows hold a
fault, is read by ``csv.reader``, which decides the outcome and the
message; the byte reader never raises one of its own. One function checks
the header for both. Each reader hashes the bytes as it reads them, and
``load`` keeps the SHA-256 of the pass whose result it returns, so the
digest describes what was parsed, for a pipe too.

``reconstruct`` builds a dataset from per-team (tp, fp) confusion counts.
Marginal metrics of the result are exact; joint agreement between teams is
synthetic (errors placed independently per team), so paired quantities are
only approximately reproduced for real leaderboards.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
from pathlib import Path
from typing import Iterator

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
    as_io_failure,
)
from .metrics import is_positive

DEFAULT_NEGATIVE = "non-offensive"
DEFAULT_POSITIVE = "offensive"
MAX_LABELS = 32  # distinct gold and team labels the byte reader codes; more go to csv.reader
CHUNK_BYTES = 1 << 17  # bytes tokenized at once: offset arrays stay a few MiB


@dataclass(frozen=True)
class LabeledDataset:
    """Gold labels plus aligned per-team prediction columns."""

    ids: tuple[str, ...]
    gold: np.ndarray
    teams: dict[str, np.ndarray]
    positive: str
    sha256: str | None = None  # hex SHA-256 of the bytes ``load`` parsed; None when built in memory

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

        Tokens are compared as ``str`` objects, exactly, a column at a time
        without copying the cells; ``load`` fills it once per distinct label.
        """
        columns = (self.gold, *self.teams.values())
        mask = np.empty((self.n, len(columns)), dtype=bool)
        for j, col in enumerate(columns):
            mask[:, j] = is_positive(col, self.positive)
        return mask


def load(path: str | Path, positive: str) -> LabeledDataset:
    """Load and validate a wide gold+predictions CSV."""
    path = Path(path)
    read = _read_plain(path)
    if read is not None:
        _check_header(path, read[0])  # as csv.reader's path would: the rows are all well formed
    header, ids, codes, labels, sha256 = read or _read_csv(path)
    table = np.array(labels, dtype=object)
    cells = table[codes]
    teams = {t: cells[:, j] for j, t in enumerate(header[2:], start=1)}
    ds = LabeledDataset(tuple(ids), cells[:, 0], teams, positive, sha256)
    vars(ds)["positive_mask"] = is_positive(table, positive)[codes]  # fills the cached property
    if not ds.positive_mask[:, 0].any():
        raise UnknownPositiveLabel(
            f"{path}: positive label {positive!r} never occurs in the gold column"
        )
    return ds


def _check_header(path: Path, header: list[str]) -> None:
    if header[:2] != ["id", "gold"]:
        raise MissingColumn(f"{path}: header must start with 'id,gold', got {header[:2]}")
    team_names = header[2:]
    if not team_names:
        raise MissingColumn(f"{path}: no team columns after 'gold'")
    if "" in team_names:
        raise MissingColumn(
            f"{path}: header column {header.index('', 2) + 1} has an empty team name"
        )
    if len(set(team_names)) != len(team_names):
        raise DuplicateId(f"{path}: duplicate team column names")


class _Hashed(io.RawIOBase):
    """A binary reader that adds every byte read through it to ``digest``."""

    def __init__(self, raw: io.RawIOBase, digest) -> None:
        self.raw, self.digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = self.raw.readinto(buffer)
        self.digest.update(memoryview(buffer)[:size])
        return size


def _read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray, list[str], str]:
    """The header, ids, label codes, labels and SHA-256 as ``csv.reader`` reads a file.

    This is the reference reader. ``codes`` is (n, K+1), each cell an index
    into ``labels``, the distinct labels in the order they first occur.
    """
    digest = hashlib.sha256()
    with (
        as_io_failure(path, "read"),
        path.open("rb", buffering=0) as raw,
        io.TextIOWrapper(io.BufferedReader(_Hashed(raw, digest)),
                         encoding="utf-8-sig", newline="") as fh,
    ):
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            _check_header(path, header)
            ids: list[str] = []
            flat: list[int] = []  # every label cell's code, row by row
            code = defaultdict(count().__next__)  # each distinct label -> its code
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
                ids.append(row[0])
                flat.extend(map(code.__getitem__, row[1:]))
        except csv.Error as exc:
            raise IoFailure(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise IoFailure(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not ids:
        raise LengthMismatch(f"{path}: no data rows after the header")
    codes = np.array(flat, np.intp).reshape(len(ids), -1)
    return header, ids, codes, list(code), digest.hexdigest()


def _read_plain(path: Path) -> tuple[list[str], list[str], np.ndarray, list[str], str] | None:
    """What ``_read_csv`` returns, for a regular file with no quote, read as bytes.

    Returns None, so that ``_read_csv`` decides the outcome, unless the
    file is a regular UTF-8 file with no ``"`` and no ``\\r`` outside a
    CRLF line end, every row holds as many non-empty cells as the header,
    of at most the ``csv`` field limit in bytes, ids are unique, at most
    MAX_LABELS distinct gold and team labels occur, and there are at least
    three columns and one data row. Such a file splits at every comma and
    line end exactly as ``csv.reader`` splits it. Each label cell gets a
    one-byte code into the table of distinct labels, numbered by chunk and
    by length rather than in file order.
    """
    limit = csv.field_size_limit()
    labels: dict[bytes, int] = {}  # each distinct label's bytes -> its code
    ids: list[str] = []
    flat = bytearray()  # every label cell's code, row by row
    digest = hashlib.sha256()
    try:
        if not path.is_file():  # a pipe could not be read again by csv.reader
            return None
        with path.open("rb") as fh:
            chunks = _line_chunks(fh, digest)
            first = next(chunks, b"").removeprefix(codecs.BOM_UTF8)
            eol = first.find(b"\n")
            line = first[:eol].removesuffix(b"\r")
            if not line or b'"' in line or b"\r" in line:
                return None
            if max(map(len, line.split(b","))) > limit:
                return None
            header = line.decode().split(",")
            if len(header) < 3:
                return None
            for chunk in filter(None, chain([first[eol + 1 :]], chunks)):
                coded = _code_rows(chunk, len(header), limit, labels)
                if coded is None:
                    return None
                ids += coded[0]
                flat += coded[1].data
        table = [token.decode() for token in labels]
    except (OSError, UnicodeDecodeError):
        return None
    if not ids or len(set(ids)) != len(ids):
        return None
    codes = np.frombuffer(flat, np.uint8).reshape(len(ids), -1)
    return header, ids, codes, table, digest.hexdigest()


def _line_chunks(fh, digest) -> Iterator[bytes]:
    """The file's bytes in pieces of whole lines, each ending in ``\\n``; each read is hashed.

    A piece holds CHUNK_BYTES or a little more; a missing final line end is
    supplied, as ``csv.reader`` ends the last record at the end of the file.
    """
    carry = b""
    while block := fh.read(CHUNK_BYTES):
        digest.update(block)
        cut = block.rfind(b"\n") + 1
        if cut:
            yield carry + block[:cut]
            carry = block[cut:]
        else:
            carry += block
    if carry:
        yield carry + b"\n"


def _code_rows(
    chunk: bytes, width: int, limit: int, labels: dict[bytes, int]
) -> tuple[list[str], np.ndarray] | None:
    """The ids and (rows, width-1) uint8 label codes of whole lines, or None.

    Cell bounds are offsets into this chunk alone. Labels are grouped by
    length and told apart by comparing 8-byte windows that cover them;
    each new one is added to ``labels``.
    """
    if b'"' in chunk:
        return None
    a = np.frombuffer(chunk, dtype=np.uint8)
    lf = a == ord("\n")
    ends = np.flatnonzero(lf | (a == ord(",")))
    rows = np.count_nonzero(lf)
    # every row holds width cells, the last ended by a line end, the others by commas
    if len(ends) != rows * width or not lf[ends[width - 1 :: width]].all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    starts, ends = starts.reshape(rows, width), ends.reshape(rows, width)
    if b"\r" in chunk:
        cr = a == ord("\r")
        if np.count_nonzero(cr) != np.count_nonzero(cr[:-1] & lf[1:]):
            return None  # a carriage return that ends no CRLF
        ends[:, -1] -= cr[ends[:, -1] - 1]
    sizes = ends - starts
    if sizes.min() < 1 or sizes.max() > limit:
        return None
    # the ids, each with the comma after it, gathered into one string
    spans = sizes[:, 0] + 1
    at = np.arange(spans.sum()) + np.repeat(starts[:, 0] - np.cumsum(spans) + spans, spans)
    ids = a[at].tobytes().decode().split(",")[:-1]
    codes = np.empty((rows, width - 1), dtype=np.uint8)
    flat_codes = codes.reshape(-1)
    first, sizes = starts[:, 1:].ravel(), sizes[:, 1:].ravel()
    padded = np.frombuffer(chunk + bytes(7), dtype=np.uint8)
    words = np.ndarray((len(chunk),), dtype="<u8", buffer=padded, strides=(1,))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        cells = np.flatnonzero(sizes == size)
        base = first[cells]
        covering = {*range(0, size - 8, 8), max(size - 8, 0)}  # window offsets; 0 if size <= 8
        windows = [words[base + offset] for offset in covering]
        if size < 8:
            windows[0] &= np.uint64((1 << 8 * size) - 1)
        while len(cells):
            same = windows[0] == windows[0][0]
            for window in windows[1:]:
                same &= window == window[0]
            code = labels.setdefault(chunk[base[0] : base[0] + size], len(labels))
            if code >= MAX_LABELS:
                return None
            flat_codes[cells[same]] = code
            rest = ~same
            cells, base, windows = cells[rest], base[rest], [w[rest] for w in windows]
    return ids, codes


def write(ds: LabeledDataset, path: str | Path) -> None:
    """Write a dataset in the wide CSV format, quoting as ``load`` reads it back."""
    header = ["id", "gold", *ds.teams]
    columns = [ds.ids, ds.gold, *ds.teams.values()]
    for name, col in zip(header, columns):
        if "" in col:
            raise EmptyCell(f"cannot write {path}: empty cell ({name})")
    with as_io_failure(path, "write"), Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *zip(*columns)])


def read_json(path: str | Path):
    """Parse a UTF-8 JSON file, naming it in every failure.

    A file that cannot be read or is not UTF-8 raises IoFailure; text that
    is not JSON raises ConfigError with the line and column of the fault.
    """
    with as_io_failure(path, "read"), Path(path).open(encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise IoFailure(f"{path}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: not JSON ({exc.msg})") from None


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
        with as_io_failure(path, "write"):
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
    across teams. An empty label, which ``write`` could not store, equal
    positive and negative labels, which would turn every miss into a hit,
    and a negative seed raise ConfigError.
    """
    if not positive or not negative:
        raise ConfigError(f"labels must be non-empty, got {positive!r} and {negative!r}")
    if positive == negative:
        raise ConfigError(f"positive and negative labels must differ, both are {positive!r}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
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
