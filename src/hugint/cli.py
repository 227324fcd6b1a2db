"""Command-line entry point: one subcommand per experiment.

Subcommands, their help lines and their flags come from the experiment table,
:data:`hugint.experiments.EXPERIMENTS`; each flag's type and help come from
its field's declaration in :class:`~hugint.experiments.ExperimentConfig`.
A call that names an experiment builds the parser of that subcommand only;
any other call (no arguments, ``-h`` or an unknown name) builds all of them.
Settings come from an optional JSON config file overridden by command-line
flags; the file may set the experiment's flags plus the fields declared
without a help line, and any other key is a configuration error.  Unset
fields take the experiment's defaults.  Every run writes its data files plus
a manifest JSON, recording the resolved config, into the output directory.
Exit codes: 0 on success, 2 on configuration errors and unwritable output,
3 on numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import HugError
from .experiments import EXPERIMENTS, RUNNERS, SETTINGS, ConfigError, ExperimentConfig
from .output import ManifestTimer, write_manifest

def _flags(name: str) -> tuple[str, ...]:
    """The config fields experiment ``name`` takes as flags besides ``--config``."""
    return ("out", "seed", *EXPERIMENTS[name].flags)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``hugint`` parser with a subcommand for every experiment, or for
    the experiment ``only`` alone, whose usage line still lists every name."""
    parser = argparse.ArgumentParser(
        prog="hugint",
        description="Run experiments for the level-set hugging integrator.",
    )
    # Without every name as metavar the usage line would list ``only`` alone;
    # the full parser keeps the default so its errors name "experiment".
    metavar = None if only is None else "{" + ",".join(EXPERIMENTS) + "}"
    sub = parser.add_subparsers(dest="experiment", required=True, metavar=metavar)
    for name in EXPERIMENTS if only is None else (only,):
        p = sub.add_parser(name, help=EXPERIMENTS[name].help)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        for key in _flags(name):
            kind, help_line = SETTINGS[key]["kind"], SETTINGS[key]["help"]
            how = dict(action="store_true", default=None) if kind is bool else dict(type=kind)
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_line, **how)
    return parser


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    settings: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                settings = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a JSON object")
        file_only = {key for key, setting in SETTINGS.items() if setting["help"] is None}
        unread = set(settings) - file_only - set(_flags(args.experiment))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    only = argv[0] if argv and argv[0] in EXPERIMENTS else None
    args = build_parser(only).parse_args(argv)
    try:
        config = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    runner = RUNNERS[config.experiment]
    try:
        # An overflow reads +-inf, and inf * 0 or inf - inf after it reads NaN;
        # the finiteness checks turn both into a rejection or exit 3, so
        # numpy's warnings would only repeat them.
        with ManifestTimer() as timer, np.errstate(over="ignore", invalid="ignore"):
            summary = runner(config)
        manifest_path = f"{config.out}/{config.experiment}.manifest.json"
        write_manifest(
            manifest_path,
            config.experiment,
            config.echo(),
            config.seed,
            timer.wall_time_s,
            summary=summary,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HugError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # --out names a file, or a directory that cannot be made
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"summary": summary, "manifest": manifest_path}, indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
