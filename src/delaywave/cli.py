"""Command-line interface; ``__main__`` is the process entry.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 failed
admissibility checks without override. Errors are printed to stdout as a
JSON object; wall time goes to stderr so the written files stay bit-stable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import PRESET_NAMES, load_preset, parse_config
from .errors import ConditionError, ConfigError, NumericalError
from .scenario import EXIT_CONDITIONS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, \
    _json_num, run_scenario, sweep


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="delaywave",
        description="Simulate the delayed wave equation with variable-exponent "
                    "damping and source, and verify its energy laws.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", type=Path, help="path to a config document")
    source.add_argument("--preset", choices=PRESET_NAMES, help="bundled scenario")
    parser.add_argument("--out", type=Path, default=Path("delaywave_out"),
                        help="output directory (default: ./delaywave_out)")
    parser.add_argument("--sweep", metavar="KEY=V1,V2,...",
                        help="run one scenario per value of a scalar config key")
    parser.add_argument("--override-conditions", action="store_true",
                        help="run even when admissibility checks fail")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the randomized certification families")
    return parser


def _json_value(value):
    """JSON-safe copy of an error detail; non-finite floats become strings."""
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, float):
        return _json_num(value)
    return value


def _error_json(kind, exc):
    """The error as a JSON object: type and message, plus a NumericalError's
    context and a ConfigError's key, line and column where they are set."""
    error = {"type": kind, "message": str(exc)}
    if isinstance(exc, NumericalError) and exc.context:
        error["context"] = {k: _json_value(v) for k, v in exc.context.items()}
    if isinstance(exc, ConfigError):
        for field in ("key", "line", "column"):
            if getattr(exc, field) is not None:
                error[field] = getattr(exc, field)
    return json.dumps({"error": error}, indent=2)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    try:
        if args.config is not None:
            try:
                text = args.config.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ConfigError(f"cannot read config {args.config}: {reason}") from None
        else:
            text = load_preset(args.preset)
        cfg = parse_config(text)
        if args.override_conditions:
            cfg = replace(cfg, override_conditions=True)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        # a file, a dangling symlink, or a path under one cannot hold the outputs
        existing = next(path for path in (args.out, *args.out.parents) if os.path.lexists(path))
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")

        started = time.perf_counter()
        if args.sweep:
            key, _, raw_values = args.sweep.partition("=")
            key = key.strip()
            if not raw_values:
                raise ConfigError("--sweep expects KEY=V1,V2,...")
            try:
                values = [float(v) for v in raw_values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"--sweep {key}: {exc}", key=key) from None
            if not values:
                raise ConfigError("--sweep needs at least one value")
            _, table = sweep(cfg, key, values, out_dir=str(args.out))
            sys.stdout.write(table)
        else:
            result = run_scenario(cfg, out_dir=str(args.out))
            sys.stdout.write(result.json_text)
        elapsed = time.perf_counter() - started
        print(f"wall time: {elapsed:.2f} s; outputs in {args.out}", file=sys.stderr)
        return EXIT_OK
    except ConfigError as exc:
        print(_error_json("config", exc))
        return EXIT_CONFIG
    except NumericalError as exc:
        print(_error_json("numerical", exc))
        return EXIT_NUMERICAL
    except ConditionError as exc:
        print(_error_json("conditions", exc))
        return EXIT_CONDITIONS
