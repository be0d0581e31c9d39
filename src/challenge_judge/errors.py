"""Exception hierarchy shared across the package, and the one map from OS errors to it."""

from contextlib import contextmanager


class ChallengeJudgeError(Exception):
    """Base class for all errors raised by challenge_judge."""


class LengthMismatch(ChallengeJudgeError):
    """Gold and prediction vectors (or CSV rows) differ in length."""


class UnknownTeam(ChallengeJudgeError):
    """A requested team name is not present in the dataset."""


class PlanMismatch(ChallengeJudgeError):
    """Two score distributions were not produced from the same resample plan."""


class TooFewTeams(ChallengeJudgeError):
    """A pairwise comparison needs at least two teams."""


class NegativeDelta(ChallengeJudgeError):
    """The observed difference must be oriented so the higher-scoring team comes first."""


class MissingColumn(ChallengeJudgeError):
    """The input CSV lacks a required column."""


class DuplicateId(ChallengeJudgeError):
    """Two rows of the input CSV share an example identifier."""


class EmptyCell(ChallengeJudgeError):
    """An input CSV cell is empty."""


class UnknownPositiveLabel(ChallengeJudgeError):
    """The declared positive label does not occur in the gold column."""


class CountOutOfRange(ChallengeJudgeError):
    """A reconstruction count falls outside the class size it must fit in."""


class IoFailure(ChallengeJudgeError):
    """Reading or writing a file failed."""


class ConfigError(ChallengeJudgeError):
    """Run configuration violates its invariants."""


@contextmanager
def as_io_failure(path, verb: str):
    """Raise an OS error from the block as IoFailure("cannot <verb> <path>: ...")."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot {verb} {path}: {exc}") from exc
