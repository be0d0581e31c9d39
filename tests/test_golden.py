"""``analyze`` output bytes pinned by SHA-256 across commits.

Four inputs are rebuilt from seeded reconstructions and analyzed through
the CLI; every output file must hash to the digest stored in
``golden/analyze_sha256.json``. ``manifest.json`` is checked field by
field instead, because its ``input`` field echoes the caller's path.

When an output change is intended, say why in CHANGES.md and regenerate
the digests with ``PYTHONPATH=src python tests/test_golden.py``, which
prints each case and file whose digest changed, appeared or vanished
before it writes.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from challenge_judge import offendmex
from challenge_judge.cli import main
from challenge_judge.dataset import ReconstructionSpec, reconstruct, write

GOLDEN = Path(__file__).parent / "golden" / "analyze_sha256.json"

TWELVE = ReconstructionSpec(
    150, 350, {f"t{i}": (70 + 5 * i, 20 + 3 * (11 - i)) for i in range(12)}
)

# case -> (spec, reconstruction seed, extra analyze flags)
CASES = {
    "offendmex": (offendmex.reconstruction_spec(), 7, ["--b", "1000", "--seed", "42"]),
    "single_team": (
        ReconstructionSpec(90, 210, {"only": (60, 20)}), 3, ["--b", "500", "--seed", "1"]
    ),
    "twelve_teams": (
        TWELVE, 11,
        ["--b", "1000", "--seed", "5", "--metrics", "recall,f1", "--pairs", "t3:t5,t0:t11"],
    ),
    # CSV quoting, LaTeX specials, a dagger in a name, a precision tie between
    # "a,b" and "x&y_z", no F1 to lead, and a non-default level
    "escaped_tied": (
        ReconstructionSpec(
            60, 140,
            {"a,b": (40, 20), "x&y_z": (40, 20), "50%~^": (30, 10), "é†{}": (25, 30),
             'q"t': (45, 35)},
        ),
        3,
        ["--b", "500", "--seed", "1", "--metrics", "precision,recall", "--level", "0.9"],
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(name: str, workdir: Path) -> Path:
    spec, seed, flags = CASES[name]
    csv = workdir / f"{name}.csv"
    write(reconstruct(spec, seed), csv)
    out = workdir / name
    code = main(["analyze", "--input", str(csv), "--positive", "offensive",
                 "--out", str(out), *flags])
    assert code == 0
    return out


def digests(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def moved(old: dict, new: dict) -> list[str]:
    """One line per case and file whose digest changed, appeared or vanished."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        before = old.get(name, {}).get("files", {})
        after = new.get(name, {}).get("files", {})
        if old.get(name, {}).get("manifest") != new.get(name, {}).get("manifest"):
            lines.append(f"{name}: manifest.json changed")
        for file in sorted(before.keys() | after.keys()):
            if file not in after:
                lines.append(f"{name}: {file} vanished")
            elif file not in before:
                lines.append(f"{name}: {file} appeared")
            elif before[file] != after[file]:
                lines.append(f"{name}: {file} changed")
    return lines


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_output_matches_golden_digests(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    out = run_case(name, tmp_path)
    assert digests(out) == golden["files"]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input"] == str(tmp_path / f"{name}.csv")
    del manifest["input"]
    assert manifest == golden["manifest"]  # input_sha256 pins the rebuilt input


if __name__ == "__main__":
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            out = run_case(name, Path(tmp))
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["input"]
            doc[name] = {
                "manifest": manifest,
                "files": digests(out),
            }
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    print("\n".join(moved(old, doc)) or "no digest moved")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
