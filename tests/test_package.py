"""The public namespace: ``__all__`` is the whole star-import surface."""

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
