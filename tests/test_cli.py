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

import refusals


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


def _refusal_test(rows: list[refusals.Refusal]):
    """The Tier-1 test of ``rows`` of ``tests/refusals.py``: each row's exit
    code, one stderr line with its message, no stdout and no file, one case
    per row, or one test of them all where the rows have no case ids.  CI
    puts the same rows through the console script."""

    def check(row, directory, monkeypatch, capsys):
        directory.mkdir()
        monkeypatch.chdir(directory)
        code = main(refusals.prepare(row, directory))
        out, err = capsys.readouterr()
        assert not refusals.problems(row, directory, code, out, err), (row.argv, err)

    if rows[0].case is None:
        def test(tmp_path, monkeypatch, capsys):
            for number, row in enumerate(rows):
                check(row, tmp_path / str(number), monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("row", rows, ids=[row.case for row in rows])
    def test(row, tmp_path, monkeypatch, capsys):
        check(row, tmp_path / "run", monkeypatch, capsys)
    return test


for _name in refusals.TABLE:
    globals()[_name] = _refusal_test([row for row in refusals.ROWS if row.test == _name])


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
