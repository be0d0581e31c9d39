"""The public namespace: ``__all__`` is the whole star-import surface."""

import os
import subprocess
import sys
from pathlib import Path

import challenge_judge


def test_star_import():
    namespace = {}
    exec("from challenge_judge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(challenge_judge.__all__)


def test_all_is_sorted_unique_and_resolvable():
    names = challenge_judge.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(challenge_judge, name) is not None, name


def test_import_loads_no_network_modules():
    # xml.sax.saxutils alone pulls in urllib.request, http.client, email,
    # ssl and socket, about a fifth of the import time
    network = ["xml", "urllib.request", "http.client", "email", "ssl", "socket"]
    probe = f"import sys, challenge_judge; print([m for m in {network!r} if m in sys.modules])"
    src = str(Path(challenge_judge.__file__).parents[1])  # probe this copy of the package
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"
