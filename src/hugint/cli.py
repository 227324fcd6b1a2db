"""Command-line entry point: one subcommand per experiment.

Subcommands and their help lines come from the experiment table,
:data:`hugint.experiments.EXPERIMENTS`.  Each subcommand takes ``--config``,
``--out`` and ``--seed`` plus a flag for each field of its entry's
``settings`` that has a help line; each flag takes a value, of the type its
field declares in :class:`~hugint.experiments.ExperimentConfig`, with its help.
The parser, with every subcommand, is built once per process and reused by
later calls.
Settings come from an optional JSON config file overridden by command-line
flags; the file may set ``out``, ``seed`` and the fields of the entry, and any
other key is a configuration error.  Unset fields take the entry's defaults.
Every run writes its data files plus a manifest JSON, recording the settings
the run read, into the output directory.
Exit codes: 0 on success, 2 on configuration errors and unwritable output,
3 on numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .errors import HugError
from .experiments import EXPERIMENTS, RUNNERS, SETTINGS, ConfigError, ExperimentConfig
from .output import _jsonable, write_manifest


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hugint`` parser with a subcommand for every experiment; cached,
    since a parser keeps no state between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="hugint",
        description="Run experiments for the level-set hugging integrator.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.help)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key in experiment.keys:
            if SETTINGS[key]["help"] is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=SETTINGS[key]["kind"], help=SETTINGS[key]["help"])
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                settings = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # bad JSON, bad UTF-8 or an integer of too many digits
            raise ConfigError(f"config file is not readable JSON: {exc}") from exc
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a JSON object")
        unread = set(settings) - set(EXPERIMENTS[args.experiment].keys)
        if unread:
            raise ConfigError(
                f"bad config key(s) for {args.experiment}: {', '.join(sorted(unread))}"
            )
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            settings[key] = value
    # a null in the file, like an unset flag, leaves its field at the default
    return ExperimentConfig(**{key: value for key, value in settings.items() if value is not None})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        runner = RUNNERS[config.experiment]
        # An overflow reads +-inf, and inf * 0 or inf - inf after it reads NaN;
        # the finiteness checks turn both into a rejection or exit 3, so
        # numpy's warnings would only repeat them.
        start = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            summary = runner(config)
        wall_time_s = time.perf_counter() - start
        manifest_path = f"{config.out}/{config.experiment}.manifest.json"
        write_manifest(manifest_path, config.echo(), wall_time_s, summary)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HugError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # --out names a file, or a directory that cannot be made
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    try:
        print(json.dumps({"summary": summary, "manifest": manifest_path}, indent=2,
                         default=_jsonable), flush=True)
    except BrokenPipeError:
        # the files are written; a quiet stdout keeps the flush at exit from failing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
