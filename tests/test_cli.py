"""Command-line interface: parsing, config merging, exit codes, artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import hugint
from hugint import dynamics, experiments
from hugint.cli import build_parser, load_config, main
from hugint.constraints import QuadricConstraint
from hugint.dynamics import convergence_study
from hugint.experiments import (
    BENCH_DIAG,
    BENCH_V0,
    BENCH_X0,
    EXPERIMENTS,
    FOLDBACK_DELTA,
    FOLDBACK_STEPS,
    RUNNERS,
    SETTINGS,
    TABLE_DELTAS,
)
from hugint.integrator import PhaseState
from oracles import read_csv


def _child_env() -> dict:
    """The environment of a child Python that imports this ``hugint``."""
    src = os.path.dirname(os.path.dirname(hugint.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_import_loads_no_scipy():
    """SciPy is imported by the calls that use it, not by ``import hugint.cli``."""
    probe = "import hugint.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=_child_env()
    )
    assert out.stdout.strip() == "[]"


def test_closed_stdout_exits_0_without_a_traceback(tmp_path):
    """A reader that closes stdout early, as ``hugint ... | head -c 0`` does,
    gets exit 0 and a quiet stderr: the data files and manifest are written."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        argv = ["sphere-tail", "--h", "0.3", "--dim", "3", "--out", str(tmp_path)]
        child = subprocess.run(
            [sys.executable, "-m", "hugint.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert child.returncode == 0, child.stderr
    assert "Traceback" not in child.stderr and "Exception ignored" not in child.stderr
    assert (tmp_path / "sphere-tail.manifest.json").exists()


# counts of 2**63 - 1 or more, and horizons of 1e300: numpy refuses the
# record's or the time grid's shape before it allocates; a horizon past inf
# is refused when its step count is rounded to an integer
_UNRECORDABLE = {
    "foldback-steps": (["foldback", "--steps", str(2**63 - 1)],
                       "steps=9223372036854775807 is too many"),
    "chain-iterations": (["chain", "--iterations", str(2**63)],
                         "iterations=9223372036854775808 is too many"),
    "phase-portrait-t-end": (["phase-portrait", "--t-end", "1e300"], "t_end=1e+300 is too long"),
    "convergence-t-end": (["convergence", "--t-end", "1e300"], "t_end=1e+300 is too long"),
    "convergence-t-end-past-inf": (["convergence", "--t-end", "1e308"], "t_end=1e+308 is too long"),
    "foldback-delta-steps": (["foldback", "--delta", "1e18", "--steps", "1"],
                             "delta=1e+18 times steps=1 is too long"),
}


@pytest.mark.parametrize("case", _UNRECORDABLE)
def test_main_exit_2_on_a_count_too_large_to_record(case, tmp_path, capsys):
    argv, message = _UNRECORDABLE[case]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message + " to record")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_a_start_at_a_turning_point_runs(tmp_path, capsys):
    """On these ellipses sin^2 of the turning angle of a start at p = 0 on a
    center rounds below 0; the start is a libration whose turning points
    close on it, in the portrait's classification and in the fold-back."""
    portrait = tmp_path / "portrait.json"
    portrait.write_text(json.dumps({"constraint": {"kind": "quadric", "diag": [1.613, 9.497]}}))
    # at the default t_end = 6 the stacked solve fails its accuracy check on
    # this ellipse (exit 3); the classification comes before the solve
    argv = ["phase-portrait", "--config", str(portrait), "--t-end", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_csv(str(tmp_path / "portrait_classification.csv"))
    by_start = {(row[1], row[2]): dict(zip(header, row)) for row in rows}
    center = by_start[("0.0", "0.0")]
    assert (center["kind"], center["phi_min"], center["phi_max"]) == ("libration", "0.0", "0.0")

    a, b = 7.4693691908392505, 8.533571531119144
    foldback = tmp_path / "foldback.json"
    foldback.write_text(json.dumps({
        "constraint": {"kind": "quadric", "diag": [a, b]},
        "x0": [1.0 / np.sqrt(a), 0.0], "v0": [0.780765227688968, 0.0],
    }))
    assert main(["foldback", "--config", str(foldback), "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    summary = json.loads(out)["summary"]
    assert (summary["classification"], summary["turning_points"]) == ("libration", [0.0, 0.0])


def test_main_exit_3_when_a_reference_solve_passes_its_evaluation_cap(
    tmp_path, monkeypatch, capsys
):
    """On this ellipse the portrait's stacked solve would run for minutes;
    past the cap on field evaluations it is refused instead.  The cap is
    lowered so that the refusal comes at once."""
    monkeypatch.setattr(dynamics, "REFERENCE_MAX_EVALS", 2000)
    config = tmp_path / "extreme.json"
    config.write_text(json.dumps({"constraint": {"kind": "quadric", "diag": [1e-8, 1e8]}}))
    argv = ["phase-portrait", "--config", str(config), "--t-end", "0.1", "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: DOP853 passed 2000 field evaluations\n"


class _NoSpawnSeedSequence(np.random.SeedSequence):
    """A seed sequence that fails if asked for child seeds."""

    def spawn(self, n_children):
        raise AssertionError(f"spawned {n_children} child seeds")


@pytest.mark.parametrize("experiment", ["ellipsoid", "ecdf"])
def test_main_exit_2_on_a_replicate_count_too_large_to_record(
    experiment, tmp_path, monkeypatch, capsys
):
    """numpy refuses the (R, n) velocity block before any of the R child
    seeds is spawned, so the run ends at once instead of growing a list of R
    seeds until memory runs out."""
    monkeypatch.setattr(np.random, "SeedSequence", _NoSpawnSeedSequence)
    argv = [experiment, "--replicates", str(2**63 - 1), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: replicates=9223372036854775807 is too many to record")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


# the call that allocates each experiment's record, and the setting that its
# refusal names at the experiment's defaults
_RECORD_CALLEES = [("foldback", "hug_trajectory"), ("chain", "run_sampling_chain"),
                   ("convergence", "convergence_study")]
_RECORD_SETTINGS = {
    "foldback": "steps=14 is too many",
    "chain": "iterations=20000 is too many",
    "convergence": "t_end=1.0 is too long",
}


@pytest.mark.parametrize("experiment, callee", _RECORD_CALLEES)
def test_main_exit_2_when_the_record_does_not_fit_in_memory(
    experiment, callee, tmp_path, monkeypatch, capsys
):
    """A MemoryError from allocating the record is a config error, as numpy's
    refusal of a shape beyond its index range is."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate the record")

    monkeypatch.setattr(experiments, callee, out_of_memory)
    assert main([experiment, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Unable to allocate the record" in err
    assert err.startswith(f"config error: {_RECORD_SETTINGS[experiment]} to record")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("experiment, callee", _RECORD_CALLEES)
def test_main_exit_2_when_numpy_refuses_the_record_shape(
    experiment, callee, tmp_path, monkeypatch, capsys
):
    """numpy's ValueError for a record shape beyond its index range, out of
    the call that allocates the record, is a config error naming the setting."""

    def refused(*args, **kwargs):
        raise ValueError("Maximum allowed dimension exceeded")

    monkeypatch.setattr(experiments, callee, refused)
    assert main([experiment, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {_RECORD_SETTINGS[experiment]} to record: "
                   "Maximum allowed dimension exceeded\n")
    assert not list(tmp_path.iterdir())


def test_stdout_summary_is_encoded_as_the_manifest_summary(tmp_path, monkeypatch, capsys):
    """A numpy integer, float or array in a runner's summary prints as the
    number or list the manifest records, not as its ``str``."""
    summary = {"count": np.int64(4), "scale": np.float32(0.5), "moments": np.array([1.0, 2.0])}
    monkeypatch.setitem(RUNNERS, "sphere-tail", lambda config: summary)
    out = tmp_path / "out"
    assert main(["sphere-tail", "--h", "0.3", "--dim", "3", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    manifest = json.loads((out / "sphere-tail.manifest.json").read_text())
    assert printed["summary"] == manifest["summary"] == {
        "count": 4, "scale": 0.5, "moments": [1.0, 2.0]
    }
    assert printed["manifest"] == str(out / "sphere-tail.manifest.json")


def _exit_code_and_stderr(argv, capsys) -> tuple[int, str]:
    """The exit code of ``main(argv)`` and what it alone wrote to stderr."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code, capsys.readouterr().err


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    code, err = _exit_code_and_stderr([], capsys)
    assert code == 2 and "required: experiment" in err
    assert all(name in err for name in EXPERIMENTS)


def test_parser_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["warp-drive"])
    code, err = _exit_code_and_stderr(["warp-drive"], capsys)
    assert code == 2 and "invalid choice: 'warp-drive'" in err
    assert all(name in err for name in EXPERIMENTS)


def test_parser_scopes_flags_to_experiments(capsys):
    args = build_parser().parse_args(["sphere-tail", "--h", "0.25", "--dim", "4"])
    assert args.h == 0.25 and args.dim == 4
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table1", "--delta", "0.1"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["foldback", "--h", "0.5"])
    for argv in (["ellipsoid", "--workers", "2"], ["ellipsoid", "--full-scale"],
                 ["ecdf", "--full-scale"]):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2, argv
    # main parses with that parser, so its errors print its usage line
    code, err = _exit_code_and_stderr(["chain", "--bogus"], capsys)
    assert code == 2
    assert err == build_parser().format_usage() + "hugint: error: unrecognized arguments: --bogus\n"


_OUT_OF_RANGE = [
    (["ellipsoid", "--replicates", "0"], "replicates must be >= 2"),
    (["foldback", "--delta", "-0.1"], "delta must be positive and finite"),
    (["chain", "--steps", "-1"], "steps must be >= 1"),
    (["chain", "--seed", "-1"], "seed must be >= 0"),
    (["chain", "--iterations", "0"], "iterations must be >= 1"),
    (["convergence", "--t-end", "-1"], "t_end must be positive and finite"),
    (["sphere-tail", "--h", "2", "--dim", "3"], "h must lie in [0, 1]"),
    (["sphere-tail", "--dim", "1", "--h", "0.5"], "need dim >= 2"),
    (["sphere-tail", "--dim", "1" + "0" * 400, "--h", "0.3"], "dim is too large for a float"),
    (["ellipsoid", "--dim", "4"], "no ellipsoid preset for dim=4"),
    (["table1", "--config", "missing.json"], "cannot read config file"),
]


@pytest.mark.parametrize(
    "argv, message",
    _OUT_OF_RANGE,
    ids=[f"{argv[0]}:{argv[1][2:]}" + (f"-of-{len(argv[2])}-digits" if len(argv[2]) > 20 else "")
         for argv, _ in _OUT_OF_RANGE],
)
def test_main_exit_2_on_out_of_range_setting(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where missing.json is missing
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"velocity_sigma": 0}', "bad config key(s) for chain: velocity_sigma"),
        ('{"velocity_sigma": -1}', "bad config key(s) for chain: velocity_sigma"),
        ('{"velocity_sigma": 1e400}', "bad config key(s) for chain: velocity_sigma"),
        ('{"walk_scale": -0.5}', "walk_scale must be positive and finite"),
        ('{"x0": [1, 2, 3]}', "x0 must have 2 entries"),
    ],
    ids=["sigma-zero", "sigma-negative", "sigma-overflow", "walk-scale-negative", "x0-shape"],
)
def test_main_exit_2_on_bad_chain_setting_in_config_file(text, message, tmp_path, capsys):
    """A start of the wrong dimension must not reach the integrator.  The chain
    draws unit-scale velocities and reads no velocity scale: under its
    norm-cancelling kernel a scale sigma only rescales delta."""
    config_file = tmp_path / "run.json"
    config_file.write_text(text)
    out = tmp_path / "out"
    argv = ["chain", "--iterations", "10", "--config", str(config_file), "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_load_config_cli_overrides_file(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"seed": 5, "delta": 0.25, "out": "from-file"}))
    args = build_parser().parse_args(
        ["foldback", "--config", str(config_file), "--seed", "9"]
    )
    config = load_config(args)
    assert config.seed == 9  # flag wins
    assert config.delta == 0.25  # file key survives
    assert config.out == "from-file"
    assert config.experiment == "foldback"


def test_load_config_defaults():
    config = load_config(build_parser().parse_args(["table1"]))
    assert config.out == "." and config.seed == 0


def test_load_config_rejects_unknown_key(tmp_path):
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps({"stepsize": 0.1}))
    args = build_parser().parse_args(["table1", "--config", str(config_file)])
    with pytest.raises(Exception, match="bad config key"):
        load_config(args)


@pytest.mark.parametrize(
    "argv, settings",
    [
        (["table1"], {"replicates": 7, "workers": 3}),
        (["ellipsoid", "--replicates", "8"], {"workers": 2}),
        (["foldback"], {"experiment": "table1"}),
        (["ecdf"], {"constraint": {"kind": "sphere", "dim": 3}}),
        (["sphere-tail", "--h", "0.3", "--dim", "3"],
         {"constraint": {"kind": "sphere", "dim": 3}, "x0": [1, 0, 0]}),
        (["phase-portrait"], {"x0": [1, 0], "v0": [0, 1]}),
        (["ellipsoid"], {"v0": [0, 1, 0]}),
        (["chain"], {"v0": [0, 1]}),
        (["table1"], {"velocity_sigma": 2.0}),
        (["ellipsoid"], {"full_scale": True}),
    ],
    ids=["table1:replicates,workers", "ellipsoid:workers", "foldback:experiment",
         "ecdf:constraint", "sphere-tail:constraint,x0", "phase-portrait:x0,v0",
         "ellipsoid:v0", "chain:v0", "table1:velocity_sigma", "ellipsoid:full_scale"],
)
def test_main_exit_2_on_config_key_the_experiment_does_not_read(argv, settings, tmp_path, capsys):
    """A key outside the experiment's table entry would run on the defaults
    and still be recorded in the manifest; it is a config error instead."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(settings))
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad config key" in err and all(key in err for key in settings)
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, settings, message",
    [
        ("foldback", {"constraint": [1, 4]}, "a constraint must be a JSON object, got [1, 4]"),
        ("foldback", {"steps": 10.5}, "steps must be an integer"),
        ("ellipsoid", {"steps": 10.5}, "steps must be an integer"),
        ("ecdf", {"replicates": 7.5}, "replicates must be an integer"),
        ("chain", {"iterations": 100.5}, "iterations must be an integer"),
        ("foldback", {"steps": True}, "steps must be a number"),
        ("ellipsoid", {"dim": 3.0}, "dim must be an integer"),
        ("table1", {"seed": 1.5}, "seed must be an integer"),
        ("foldback", {"delta": 10**400}, "delta is too large for a float"),
        ("table1", [1, 2], "config file must hold a JSON object"),
        ("table1", {"constraint": {"kind": "sliced", "dim": 2}}, "need ambient_dim >= 3"),
        ("table1", {"constraint": {"kind": "quadric", "matrix": [[1, 2, 3]]}}, "A must be square"),
        ("table1", {"constraint": {"kind": "quadric", "matrix": [1, 2]}}, "A must be square"),
    ],
    ids=["constraint-not-object", "foldback-steps-float",
         "ellipsoid-steps-float", "ecdf-replicates-float", "chain-iterations-float",
         "steps-bool", "dim-float", "seed-float", "delta-beyond-float", "file-not-object",
         "sliced-dim-2", "quadric-not-square", "quadric-flat"],
)
def test_main_exit_2_on_badly_typed_config_value(
    experiment, settings, message, tmp_path, capsys
):
    """A bad value is a config error, not a traceback; ``10**400`` is a JSON
    integer that no float can hold, and a constraint of the wrong shape is
    not a numerical failure."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(settings))
    code = main([experiment, "--config", str(config_file), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "experiment, kind", [("ellipsoid", "sphere"), ("table1", "sliced")], ids=["sphere", "sliced"]
)
@pytest.mark.parametrize("dim", [2.7, True, "3"], ids=["float", "bool", "string"])
def test_main_exit_2_on_constraint_dim_not_an_integer(experiment, kind, dim, tmp_path, capsys):
    """A constraint's ``dim`` is refused as the int settings are, where
    ``int()`` would run 2.7 on the 2-D sphere and true on the 1-D one."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"constraint": {"kind": kind, "dim": dim}}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: bad constraint spec: dim must be an integer, got {dim!r}" in err
    assert "Traceback" not in err and not out.exists()


def _wrongly_typed(name: str) -> tuple[str, object, str]:
    """An experiment whose config file may set ``name``, a value of the wrong
    kind for it, and the start of the error it must raise."""
    kind = SETTINGS[name]["kind"]
    experiment = next((e for e, spec in EXPERIMENTS.items() if name in spec.settings), "table1")
    value = 5 if kind is str else "10"
    expected = "a number" if kind in (int, float) else f"a {kind.__name__}"
    return experiment, value, f"{name} must be {expected}, got {value!r}"


@pytest.mark.parametrize(
    "name", [name for name, setting in SETTINGS.items() if setting["kind"] is not None]
)
def test_main_exit_2_on_wrongly_typed_setting(name, tmp_path, monkeypatch, capsys):
    """Every setting with a declared kind is checked before any runner starts:
    ``{"out": 5}`` must not fail only after the run."""
    experiment, value, message = _wrongly_typed(name)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({name: value}))
    assert main([experiment, "--config", "run.json"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err and "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_null_in_config_file_takes_the_default(tmp_path, monkeypatch, capsys):
    """A JSON null leaves its field unset, as an absent key does: as None,
    ``out`` and ``walk_scale`` would raise in the runner and ``seed`` would
    leave the run unseeded.  A field with no default, such as the chain's
    ``x0``, stays null in the manifest: the runner works it out."""
    monkeypatch.chdir(tmp_path)
    settings = {"out": None, "seed": None, "walk_scale": None, "x0": None}
    (tmp_path / "run.json").write_text(json.dumps(settings))
    assert main(["chain", "--iterations", "5", "--config", "run.json"]) == 0
    config = json.loads((tmp_path / "chain.manifest.json").read_text())["config"]
    assert (config["out"], config["seed"], config["walk_scale"], config["x0"]) == (".", 0, 0.5, None)


@pytest.mark.parametrize(
    "argv, below",
    [(["sphere-tail", "--h", "0.3", "--dim", "3"], "sub"), (["table1"], "")],
    ids=["sphere-tail:below-a-file", "table1:a-file"],
)
def test_main_exit_2_when_out_is_not_a_directory(argv, below, tmp_path, capsys):
    """An --out that is a regular file, or lies below one, is reported after
    the run as an unwritable output, not as a traceback."""
    regular = tmp_path / "file"
    regular.write_text("")
    assert main([*argv, "--out", str(regular / below)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "experiment, settings, message",
    [
        ("phase-portrait", {"constraint": {"kind": "quadric", "diag": [1, -4]}},
         "bad constraint spec: A must be positive definite"),
        ("foldback", {"constraint": {"kind": "quadric", "diag": [1, -4]}},
         "bad constraint spec: A must be positive definite"),
        ("table1", {"x0": "abc"}, "x0 must be a list of numbers"),
        ("convergence", {"x0": [1.0]}, "x0 must have 2 entries"),
        ("convergence", {"v0": [1, 2, 3]}, "v0 must have 2 entries"),
        ("foldback", {"v0": [[1.0], [0.5, 0.5]]}, "v0 must be a list of numbers"),
        ("foldback", {"x0": [2.0, 0.0]}, "x0 must lie on the ellipse 1 x1^2 + 4 x2^2 = 1"),
        ("foldback", {"x0": [1.0000001, 0.0]}, "x0 must lie on the ellipse"),
    ],
    ids=["portrait-not-spd", "foldback-not-spd", "table1-x0-string", "convergence-x0-short",
         "convergence-v0-long", "foldback-v0-ragged", "foldback-x0-off-ellipse",
         "foldback-x0-just-off-ellipse"],
)
def test_main_exit_2_on_bad_ellipse_or_start(experiment, settings, message, tmp_path, capsys):
    """An ellipse that is not positive definite, a start that is not a
    vector of the constraint's dimension and a fold-back start off the model's
    ellipse are configuration errors, found before any step or solve."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(settings))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config_file), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("diag", ["[1e400, 4]", "[1, 1e400]"], ids=["a-inf", "b-inf"])
@pytest.mark.parametrize("experiment", ["phase-portrait", "foldback", "chain", "table1"])
def test_main_exit_2_on_an_infinite_quadric_diagonal(experiment, diag, tmp_path, capsys):
    """JSON reads 1e400 as inf.  Every experiment reads its map through
    ``build_constraint``, so each refuses it there, before any step, solve
    or file, and with the same message."""
    config_file = tmp_path / "run.json"
    config_file.write_text('{"constraint": {"kind": "quadric", "diag": %s}}' % diag)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: bad constraint spec: A must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["table1", "convergence", "foldback"])
def test_main_exit_2_on_zero_start_velocity(experiment, tmp_path, capsys):
    """A zero v0 never leaves x0: every error is zero, so the error-table
    ratios are 0/0 and the convergence fit has nothing to fit."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"v0": [0, 0]}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config_file), "--out", str(out)]) == 2
    assert "v0 must not be zero, got [0, 0]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, delta",
    [("ecdf", 1e300), ("ellipsoid", 1e300), ("ecdf", 1e308), ("ellipsoid", 1e308)],
    ids=["ecdf", "ellipsoid", "ecdf-1e308", "ellipsoid-1e308"],
)
def test_main_exit_3_when_every_replicate_fails(experiment, delta, tmp_path, capsys):
    """At delta = 1e300 every replicate's first gradient overflows, so no
    d_max is finite and the study has nothing to report; at 1e308 the
    midpoint itself can overflow, with no floating-point warning either."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"delta": delta}))
    code = main([experiment, "--replicates", "5", "--steps", "2", "--config", str(config_file),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "all 5 replicates hit singular or non-finite geometry" in capsys.readouterr().err


def test_ellipsoid_study_rejects_a_codim_2_constraint(tmp_path, capsys):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"constraint": {"kind": "sliced", "dim": 3}}))
    code = main(["ellipsoid", "--config", str(config_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and "codimension-1" in err and "Traceback" not in err


def test_ellipsoid_study_runs_on_a_sphere(tmp_path, capsys):
    """The scatter study steps any codimension-1 map, not only a quadric,
    with no floating-point warning."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(
        {"constraint": {"kind": "sphere", "dim": 4}, "steps": 20, "replicates": 10}
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["ellipsoid", "--config", str(config_file), "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["dim"] == 4 and summary["failed_replicates"] == 0


def test_ellipsoid_manifest_names_only_the_dimension_the_run_used(tmp_path, capsys):
    """``dim`` picks the preset only when no constraint is given, so with a
    constraint it is left unset (null in the manifest) or must agree with
    the constraint's dimension: ``--dim 6`` beside a 4-D sphere exits 2."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(
        {"constraint": {"kind": "sphere", "dim": 4}, "steps": 5, "replicates": 4}
    ))
    for flags, dim in [([], None), (["--dim", "4"], 4)]:
        out = tmp_path / f"out{len(flags)}"
        assert main(["ellipsoid", "--config", str(config_file), *flags, "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["dim"] == 4
        assert json.loads((out / "ellipsoid.manifest.json").read_text())["config"]["dim"] == dim
    argv = ["ellipsoid", "--config", str(config_file), "--dim", "6", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert "dim=6 disagrees with the constraint's dimension 4" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    # no constraint: the preset of dim, 3 when dim is unset too
    out = tmp_path / "preset"
    assert main(["ellipsoid", "--steps", "2", "--replicates", "2", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["dim"] == 3
    assert json.loads((out / "ellipsoid.manifest.json").read_text())["config"]["dim"] is None


def test_overflowing_gradient_is_a_singular_rejection_without_warning(tmp_path, capsys):
    """At delta = 1e300 the first midpoint's gradient overflows: every chain
    proposal is rejected as singular and no floating-point warning escapes.
    At 1e308 the product A x overflows too, and with wide velocities the
    midpoint itself does: ``test_sampling`` runs that case on the library."""
    for i, settings in enumerate([{"delta": 1e300}, {"delta": 1e308}]):
        config_file = tmp_path / f"run{i}.json"
        config_file.write_text(json.dumps(settings))
        capsys.readouterr()
        code = main(["chain", "--iterations", "5", "--config", str(config_file),
                     "--out", str(tmp_path / f"out{i}")])
        assert code == 0, settings
        assert json.loads(capsys.readouterr().out)["summary"]["singular_rejections"] == 5


def test_overflowing_walk_proposal_is_a_plain_rejection_without_warning(tmp_path, capsys):
    """At walk_scale = 1e300 every random-walk proposal's quadratic form
    overflows: ell reads -inf, so each walk move is rejected, and no
    floating-point warning escapes.  At 1e308 the product x A overflows too."""
    for walk_scale in (1e300, 1e308):
        config_file = tmp_path / f"run-{walk_scale:g}.json"
        config_file.write_text(json.dumps({"walk_scale": walk_scale, "iterations": 3}))
        capsys.readouterr()
        code = main(["chain", "--config", str(config_file), "--out", str(tmp_path / "out")])
        assert code == 0, walk_scale
        assert json.loads(capsys.readouterr().out)["summary"]["walk_acceptance_rate"] == 0.0


def test_main_exit_3_on_overflowing_gradient(tmp_path, capsys):
    for delta in (1e300, 1e308):
        config_file = tmp_path / f"run-{delta:g}.json"
        config_file.write_text(json.dumps({"delta": delta}))
        capsys.readouterr()
        code = main(["foldback", "--config", str(config_file), "--out", str(tmp_path / "out")])
        assert code == 3, delta
        err = capsys.readouterr().err
        assert "singular geometry" in err and "(gradient is not finite)" in err
        assert "rank deficient" not in err


def test_main_exit_2_on_bad_json(tmp_path, capsys):
    config_file = tmp_path / "broken.json"
    config_file.write_text("{not json")
    code = main(["table1", "--config", str(config_file)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"delta": 1' + b"0" * 5000 + b"}", b'{"out": "\xff"}'],
    ids=["integer-of-5001-digits", "not-utf-8"],
)
def test_main_exit_2_on_unreadable_config_file(content, tmp_path, capsys):
    """Python reads no JSON integer of more than 4,300 digits and no bytes that
    are not UTF-8; either file is a config error, not a traceback."""
    config_file = tmp_path / "run.json"
    config_file.write_bytes(content)
    assert main(["foldback", "--config", str(config_file), "--out", str(tmp_path)]) == 2
    assert "config error: config file is not readable JSON" in capsys.readouterr().err


def test_main_exit_2_on_missing_required_setting(tmp_path, capsys):
    code = main(["sphere-tail", "--out", str(tmp_path)])
    assert code == 2
    assert "needs both h and dim" in capsys.readouterr().err


def test_main_exit_3_on_singular_geometry(tmp_path, capsys):
    """A fold-back whose first midpoint is the origin hits a zero gradient,
    a fold-back from a NaN start is off every level set, a fold-back with a
    NaN velocity fails in the map to reduced coordinates, and a codim-2 error
    table from a non-finite start hits a NaN Jacobian."""
    config_file = tmp_path / "singular.json"
    # the first midpoint x0 + (0.1 / 2) v0 is the origin
    config_file.write_text(json.dumps({"x0": [1.0, 0.0], "v0": [-20.0, 0.0]}))
    code = main(
        ["foldback", "--config", str(config_file), "--out", str(tmp_path)]
    )
    assert code == 3
    assert "gradient vanishes" in capsys.readouterr().err

    config_file.write_text(json.dumps({"x0": [float("nan"), 0.0]}))
    code = main(["foldback", "--config", str(config_file), "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure: point is off the level set" in capsys.readouterr().err

    config_file.write_text(json.dumps({"v0": [float("nan"), 0.0]}))
    code = main(["foldback", "--config", str(config_file), "--out", str(tmp_path)])
    assert code == 3
    assert "(velocity is not finite)" in capsys.readouterr().err

    config_file.write_text(json.dumps(
        {"constraint": {"kind": "sliced"}, "x0": [float("nan"), 0.5, 0.5], "v0": [1.0, 0.0, 0.0]}
    ))
    assert "NaN" in config_file.read_text()
    code = main(["table1", "--config", str(config_file), "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_main_reuses_its_parser_without_keeping_values(tmp_path, capsys):
    """Two ``main`` calls in one process share the cached parser; the second,
    without the first call's flags, reads the defaults and not its values."""
    first = ["foldback", "--delta", "0.2", "--steps", "5", "--seed", "7"]
    assert main([*first, "--out", str(tmp_path / "first")]) == 0
    assert main(["foldback", "--out", str(tmp_path / "second")]) == 0
    assert build_parser() is build_parser()
    configs = [
        json.loads((tmp_path / run / "foldback.manifest.json").read_text())["config"]
        for run in ("first", "second")
    ]
    assert [(c["delta"], c["steps"], c["seed"]) for c in configs] == [
        (0.2, 5, 7), (FOLDBACK_DELTA, FOLDBACK_STEPS, 0)
    ]


def test_main_runs_sphere_tail(tmp_path, capsys):
    code = main(["sphere-tail", "--h", "0.3", "--dim", "3", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["summary"]["probability"] - 0.7) < 1e-9
    manifest = json.loads((tmp_path / "sphere-tail.manifest.json").read_text())
    assert manifest["experiment"] == "sphere-tail"
    assert manifest["seed"] == 0
    assert (tmp_path / "sphere_tail.csv").exists()


def test_manifest_records_the_runner_wall_time(tmp_path, monkeypatch):
    """``wall_time_s`` is the time the runner took, read around it by ``main``."""

    def slow_runner(config):
        time.sleep(0.01)
        return {}

    monkeypatch.setitem(RUNNERS, "sphere-tail", slow_runner)
    assert main(["sphere-tail", "--h", "0.3", "--dim", "3", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "sphere-tail.manifest.json").read_text())
    assert 0.01 <= manifest["wall_time_s"] < 10.0


#: Flags that make each experiment's run short; a manifest's keys do not depend on them.
_SHORT_RUNS = {
    "convergence": ["--t-end", "0.01"],
    "phase-portrait": ["--t-end", "0.05"],
    "ellipsoid": ["--steps", "2", "--replicates", "2"],
    "ecdf": ["--steps", "2", "--replicates", "2"],
    "sphere-tail": ["--h", "0.3", "--dim", "3"],
    "chain": ["--iterations", "5"],
}


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_manifest_config_holds_the_settings_the_experiment_reads(experiment, tmp_path):
    """The manifest's ``config`` block records ``experiment``, ``out``,
    ``seed`` and the fields of the experiment's table entry, and nothing else."""
    argv = [experiment, *_SHORT_RUNS.get(experiment, []), "--out", str(tmp_path)]
    assert main(argv) == 0
    config = json.loads((tmp_path / f"{experiment}.manifest.json").read_text())["config"]
    assert set(config) == {"experiment", "out", "seed", *EXPERIMENTS[experiment].settings}
    assert config["experiment"] == experiment and config["out"] == str(tmp_path)


def test_main_runs_convergence(tmp_path, capsys):
    """A short-horizon convergence run writes the study's arrays, and its
    fitted orders fall in criterion 02's ranges."""
    assert main(["convergence", "--t-end", "0.05", "--out", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    schema, header, rows = read_csv(str(tmp_path / "convergence.csv"))
    assert schema == "convergence/1"
    assert header == ["delta", "one_step_error", "two_step_error", "global_error"]
    initial = PhaseState(np.asarray(BENCH_X0), np.asarray(BENCH_V0))
    study = convergence_study(
        QuadricConstraint(np.diag(BENCH_DIAG)), initial, np.asarray(TABLE_DELTAS), horizon=0.05
    )
    expected = np.column_stack([study.deltas, study.one_step, study.two_step, study.global_err])
    assert expected.shape == (5, 4)
    assert np.array_equal(np.array(rows, dtype=float), expected)
    assert summary["horizon"] == 0.05
    assert 1.8 <= summary["one_step_order"] <= 2.2
    assert 2.6 <= summary["two_step_order"] <= 3.4
    assert 1.8 <= summary["global_order"] <= 2.2


def test_main_exit_3_when_every_convergence_error_is_roundoff(tmp_path, capsys):
    """At speed 1e-6 every error (third order in the speed) sits below the
    roundoff floor, so no order can be fitted: exit 3 with the fit's
    message, and no ``convergence.csv`` left behind."""
    config_file = tmp_path / "slow.json"
    config_file.write_text(json.dumps({"v0": [0.0, 1e-6]}))
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(config_file), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: need at least two error values above the roundoff floor\n"
    )
    assert not (out / "convergence.csv").exists()


def test_main_table1_end_to_end_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        out.mkdir()
        assert main(["table1", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"].endswith("table1.manifest.json")
        assert len(payload["summary"]["deltas"]) == 5
    assert (out_a / "error_table.csv").read_bytes() == (out_b / "error_table.csv").read_bytes()
    config = json.loads((out_a / "table1.manifest.json").read_text())["config"]
    assert config["x0"] == list(BENCH_X0)  # the resolved default, not null
    assert config["constraint"] == {"kind": "quadric", "diag": list(BENCH_DIAG)}
