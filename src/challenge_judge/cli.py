"""Command-line front end: analyze, reconstruct, validate.

Exit codes: 0 success, 2 configuration/validation failure or not enough
memory, 1 internal error. ``analyze`` writes a run manifest next to its
outputs echoing the result-relevant configuration plus the SHA-256 of the
input bytes that ``load`` parsed, a pipe's included, so two runs can be
diffed for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import dataset
from .errors import ChallengeJudgeError, ConfigError
from .metrics import ALL_METRICS, MetricKind, point_estimates
from .pipeline import RunConfig, analyze, check_run
from .report import emit_tables, write_text
from .svgfig import emit_all_figures

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2

# each config-file key and its reader: as its flag reads text, or (None) a flag string or JSON list
CONFIG_KEYS = {"input": str, "out": str, "positive": str, "b": int, "seed": int,
               "level": float, "metrics": None, "pairs": None, "threads": int}


def _parse_metrics(value) -> tuple[MetricKind, ...]:
    """Metrics from a flag string ``"f1,recall"`` or a config-file list."""
    tokens = value.split(",") if isinstance(value, str) else value
    if not isinstance(tokens, list):
        raise ConfigError(f"metrics must be a comma list or a JSON list, got {value!r}")
    out = []
    for token in tokens:
        token = str(token).strip().lower()
        try:
            out.append(MetricKind(token))
        except ValueError:
            raise ConfigError(
                f"unknown metric {token!r}; choose from "
                + ",".join(str(m) for m in ALL_METRICS)
            ) from None
    return tuple(out)


def _parse_pairs(value) -> tuple[tuple[str, str], ...]:
    """Pairs from a flag string ``"a:b,a:c"``, or a list of [a, b] as JSON text or from a config file.

    The JSON form, a flag value starting with ``[``, can name a team whose
    name holds ``:`` or ``,``.
    """
    if isinstance(value, str) and value.startswith("["):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"pairs {value!r} is not a JSON list ({exc.msg})") from None
    items = [chunk.split(":") for chunk in value.split(",")] if isinstance(value, str) else value
    if not isinstance(items, list):
        raise ConfigError(f"pairs must be a comma list or a JSON list, got {value!r}")
    pairs = []
    for names in items:
        if not (isinstance(names, list) and len(names) == 2
                and all(isinstance(t, str) and t for t in names)):
            raise ConfigError(f"bad pair {names!r}; expected teamA:teamB")
        pairs.append((names[0], names[1]))
    return tuple(pairs)


def _merge(args: argparse.Namespace) -> RunConfig:
    """Apply precedence: command-line flag > config file > ``RunConfig`` default.

    A config-file scalar is read as its flag reads text: ``{"b": "300"}``
    is 300, while ``{"seed": 2.7}`` or ``{"b": null}`` is a ``ConfigError``,
    and so is a key outside ``CONFIG_KEYS``.
    """
    file_cfg = {}
    if args.config:
        file_cfg = dataset.read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config file must hold a JSON object")
        unknown = [key for key in file_cfg if key not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown config keys {', '.join(map(repr, unknown))};"
                f" known keys are {', '.join(CONFIG_KEYS)}"
            )

    def pick(key, kind):
        flag = getattr(args, key, None)
        if flag is not None or key not in file_cfg:
            return flag
        if kind is None:
            return file_cfg[key]
        try:
            return kind(str(file_cfg[key]))
        except ValueError:
            raise ConfigError(
                f"config key {key!r} must be {kind.__name__}, got {file_cfg[key]!r}"
            ) from None

    given = {key: pick(key, kind) for key, kind in CONFIG_KEYS.items()}
    given = {key: value for key, value in given.items() if value is not None}
    for key in ("input", "positive"):
        if key not in given:
            raise ConfigError(f"--{key} is required")
    for key, parse in (("input", Path), ("out", Path),
                       ("metrics", _parse_metrics), ("pairs", _parse_pairs)):
        if key in given:
            given[key] = parse(given[key])
    return RunConfig(**given)


def _manifest(config: RunConfig, input_sha256: str) -> str:
    """The input's SHA-256 and every setting but out and threads, which change no result."""
    doc = {"command": "analyze", "input": config.input, "input_sha256": input_sha256}
    for f in fields(config):
        if f.name not in ("input", "out", "threads"):
            doc[f.name] = getattr(config, f.name)
    return json.dumps(doc, indent=2, default=str) + "\n"


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _merge(args)
    if config.out is None:
        raise ConfigError("--out is required")
    ds = dataset.load(config.input, config.positive)
    report = analyze(ds, config)  # refuses, through check_run, before --out exists
    emit_tables(report, config.out)
    write_text(config.out / "manifest.json", _manifest(config, ds.sha256))
    emit_all_figures(report, config.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = _merge(args)
    ds = dataset.load(config.input, config.positive)
    check_run(ds, config, point_estimates(ds))
    print(f"{config.input}: OK")
    return EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    spec = dataset.ReconstructionSpec.from_json(args.spec)
    ds = dataset.reconstruct(
        spec, args.seed, positive=args.positive, negative=args.negative
    )
    # refuse what a default analyze of the file would refuse, so validate accepts every file written
    check_run(ds, RunConfig(positive=args.positive), point_estimates(ds))
    dataset.write(ds, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="challenge-judge",
        description="Paired-bootstrap comparison of challenge competitors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="wide CSV: id,gold,<team...>")
        p.add_argument("--positive", help="token of the positive class")
        p.add_argument("--config", help="optional JSON config file; flags override it")

    p = sub.add_parser("analyze", help="run the full comparison and write reports")
    add_common(p)
    p.add_argument("--b", type=int, help="bootstrap replicates (default 10000)")
    p.add_argument("--seed", type=int, help="resampling seed (default 42)")
    p.add_argument("--level", type=float, help="CI level (default 0.95)")
    p.add_argument("--metrics", help="comma list of precision,recall,f1")
    p.add_argument("--out", help="output directory")
    p.add_argument("--threads", type=int, help="accepted for compatibility; ignored")
    p.add_argument("--pairs", help='histogram pairs, e.g. teamA:teamB,teamA:teamC or [["a:b", "c"]]')
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="analyze's checks before resampling; writes nothing")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reconstruct", help="build a synthetic CSV from confusion counts")
    p.add_argument("--spec", required=True, help="JSON reconstruction spec")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--positive", dest="positive", default=dataset.DEFAULT_POSITIVE)
    p.add_argument("--negative", dest="negative", default=dataset.DEFAULT_NEGATIVE)
    p.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChallengeJudgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        detail = str(exc) or "MemoryError"
        print(f"error: not enough memory for this run ({detail}); lower --b", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
