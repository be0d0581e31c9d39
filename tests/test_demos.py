"""Each demo runs on its own from an empty working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import challenge_judge

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SRC = Path(challenge_judge.__file__).parents[1]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_from_an_empty_directory(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
