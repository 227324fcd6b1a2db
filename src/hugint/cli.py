"""Command-line entry point: one subcommand per experiment.

Subcommands, their help lines and their flags come from the experiment table,
:data:`hugint.experiments.EXPERIMENTS`.  A call that names an experiment
builds the parser of that subcommand only; any other call (no arguments,
``-h`` or an unknown name) builds all of them.  Settings come from an
optional JSON config file overridden by command-line flags; the file may set
the experiment's flags plus ``out``, ``seed``, ``constraint``, ``x0``, ``v0``
and ``velocity_sigma``, and any other key is a configuration error.  Unset
fields take the experiment's defaults.
Every run writes its data files plus a manifest JSON, recording the resolved
config, into the output directory.  Exit codes: 0 on success, 2 on
configuration errors, 3 on numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import HugError
from .experiments import EXPERIMENTS, RUNNERS, ConfigError, ExperimentConfig
from .output import ManifestTimer, write_manifest

#: ``add_argument`` settings of each config field an experiment may take as a flag.
FLAGS = {
    "t_end": dict(type=float, help="time horizon"),
    "delta": dict(type=float, help="step size"),
    "steps": dict(type=int, help="steps per trajectory"),
    "dim": dict(type=int, help="ambient dimension"),
    "h": dict(type=float, help="threshold in [0, 1]"),
    "replicates": dict(type=int, help="replicate count for sampled studies"),
    "full_scale": dict(
        action="store_true", default=None, help="use publication-scale replicate and step counts"
    ),
    "iterations": dict(type=int, help="chain length"),
    "walk_scale": dict(type=float, help="random-walk proposal scale (interleaved move)"),
}


#: Config-file keys every experiment accepts besides its flags.
_FILE_KEYS = {"out", "seed", "constraint", "x0", "v0", "velocity_sigma"}


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
        p.add_argument("--out", help="output directory (default: current directory)")
        p.add_argument("--seed", type=int, help="root RNG seed (default: 0)")
        for field in EXPERIMENTS[name].flags:
            p.add_argument("--" + field.replace("_", "-"), dest=field, **FLAGS[field])
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
        unread = set(settings) - _FILE_KEYS - set(EXPERIMENTS[args.experiment].flags)
        if unread:
            raise ConfigError(
                f"bad config key(s) for {args.experiment}: {', '.join(sorted(unread))}"
            )
    for key, value in vars(args).items():
        if key in ("config",) or value is None:
            continue
        settings[key] = value
    return ExperimentConfig(**settings)


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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HugError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    manifest_path = f"{config.out}/{config.experiment}.manifest.json"
    write_manifest(
        manifest_path,
        config.experiment,
        config.echo(),
        config.seed,
        timer.wall_time_s,
        summary=summary,
    )
    print(json.dumps({"summary": summary, "manifest": manifest_path}, indent=2, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
