import re

import pytest

from challenge_judge.errors import ConfigError
from challenge_judge.pipeline import RunConfig


@pytest.mark.parametrize("settings, message", [
    ({"b": 99}, "b must be >= 100, got 99"),
    ({"level": 0.49}, "level must be in [0.5, 1), got 0.49"),
    ({"level": 1.0}, "level must be in [0.5, 1), got 1.0"),
    ({"metrics": ()}, "metrics subset must be non-empty"),
    ({"positive": ""}, "positive label must be non-empty"),
    ({"threads": 0}, "threads must be >= 1, got 0"),
])
def test_run_config_checks_itself_when_made(settings, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(**settings)
