"""Command-line interface: parsing, config merging, exit codes, artifacts."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hugint
from hugint.cli import build_parser, load_config, main
from hugint.constraints import QuadricConstraint
from hugint.dynamics import convergence_study
from hugint.experiments import (
    BENCH_DIAG,
    BENCH_V0,
    BENCH_X0,
    EXPERIMENTS,
    SETTINGS,
    TABLE_DELTAS,
)
from hugint.integrator import PhaseState
from hugint.output import read_csv


def test_import_loads_no_scipy():
    """SciPy is imported by the calls that use it, not by ``import hugint.cli``."""
    probe = "import hugint.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(hugint.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


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
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["ellipsoid", "--workers", "2"])
    assert info.value.code == 2
    # main's one-subcommand parser prints the full parser's usage line
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
    (["ellipsoid", "--dim", "4"], "no ellipsoid preset for dim=4"),
    (["table1", "--config", "missing.json"], "cannot read config file"),
]


@pytest.mark.parametrize(
    "argv, message", _OUT_OF_RANGE, ids=[f"{argv[0]}:{argv[1][2:]}" for argv, _ in _OUT_OF_RANGE]
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
        ('{"velocity_sigma": 0}', "velocity_sigma must be positive and finite"),
        ('{"velocity_sigma": -1}', "velocity_sigma must be positive and finite"),
        ('{"velocity_sigma": 1e400}', "velocity_sigma must be positive and finite"),
        ('{"walk_scale": -0.5}', "walk_scale must be positive and finite"),
        ('{"x0": [1, 2, 3]}', "x0 must have 2 entries"),
    ],
    ids=["sigma-zero", "sigma-negative", "sigma-overflow", "walk-scale-negative", "x0-shape"],
)
def test_main_exit_2_on_bad_chain_setting_in_config_file(text, message, tmp_path, capsys):
    """A zero velocity scale would make every hug proposal a no-op, and a
    start of the wrong dimension must not reach the integrator."""
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
    ],
    ids=["table1:replicates,workers", "ellipsoid:workers", "foldback:experiment"],
)
def test_main_exit_2_on_config_key_the_experiment_does_not_read(argv, settings, tmp_path, capsys):
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
        ("foldback", {"constraint": [1, 4]}, "quadric constraint"),
        ("foldback", {"steps": 10.5}, "steps must be an integer"),
        ("ellipsoid", {"steps": 10.5}, "steps must be an integer"),
        ("ecdf", {"replicates": 7.5}, "replicates must be an integer"),
        ("chain", {"iterations": 100.5}, "iterations must be an integer"),
        ("foldback", {"steps": True}, "steps must be a number"),
        ("ellipsoid", {"dim": 3.0}, "dim must be an integer"),
        ("table1", {"seed": 1.5}, "seed must be an integer"),
        ("foldback", {"delta": 10**400}, "delta is too large for a float"),
        ("table1", [1, 2], "config file must hold a JSON object"),
    ],
    ids=["constraint-not-object", "foldback-steps-float",
         "ellipsoid-steps-float", "ecdf-replicates-float", "chain-iterations-float",
         "steps-bool", "dim-float", "seed-float", "delta-beyond-float", "file-not-object"],
)
def test_main_exit_2_on_badly_typed_config_value(
    experiment, settings, message, tmp_path, capsys
):
    """A bad value is a config error, not a traceback; ``10**400`` is a JSON
    integer that no float can hold."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(settings))
    code = main([experiment, "--config", str(config_file), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err and "Traceback" not in err


def _wrongly_typed(name: str) -> tuple[str, object, str]:
    """An experiment whose config file may set ``name``, a value of the wrong
    kind for it, and the start of the error it must raise."""
    kind = SETTINGS[name]["kind"]
    experiment = next((e for e, spec in EXPERIMENTS.items() if name in spec.flags), "table1")
    value = {str: 5, bool: "no"}.get(kind, "10")
    expected = "a number" if kind in (int, float) else f"a {kind.__name__}"
    return experiment, value, f"{name} must be {expected}, got {value!r}"


@pytest.mark.parametrize(
    "name", [name for name, setting in SETTINGS.items() if setting["kind"] is not None]
)
def test_main_exit_2_on_wrongly_typed_setting(name, tmp_path, monkeypatch, capsys):
    """Every setting with a declared kind is checked before any runner starts:
    ``{"out": 5}`` must not fail only after the run, and a truthy
    ``{"full_scale": "no"}`` must not select the publication-scale study."""
    experiment, value, message = _wrongly_typed(name)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({name: value}))
    assert main([experiment, "--config", "run.json"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err and "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_null_in_config_file_takes_the_default(tmp_path, monkeypatch, capsys):
    """A JSON null leaves its field unset, as an absent key does: as None,
    ``out`` and ``velocity_sigma`` would raise in the runner and ``seed``
    would leave the run unseeded."""
    monkeypatch.chdir(tmp_path)
    settings = {"out": None, "seed": None, "velocity_sigma": None, "x0": None}
    (tmp_path / "run.json").write_text(json.dumps(settings))
    assert main(["chain", "--iterations", "5", "--config", "run.json"]) == 0
    config = json.loads((tmp_path / "chain.manifest.json").read_text())["config"]
    assert (config["out"], config["seed"], config["velocity_sigma"]) == (".", 0, 1.0)


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
         "positive 2-entry quadric diagonal, got [1, -4]"),
        ("foldback", {"constraint": {"kind": "quadric", "diag": [1, -4]}},
         "positive 2-entry quadric diagonal, got [1, -4]"),
        ("table1", {"x0": "abc"}, "x0 must be a list of numbers"),
        ("convergence", {"x0": [1.0]}, "x0 must have 2 entries"),
        ("convergence", {"v0": [1, 2, 3]}, "v0 must have 2 entries"),
        ("foldback", {"v0": [[1.0], [0.5, 0.5]]}, "v0 must be a list of numbers"),
    ],
    ids=["portrait-not-spd", "foldback-not-spd", "table1-x0-string", "convergence-x0-short",
         "convergence-v0-long", "foldback-v0-ragged"],
)
def test_main_exit_2_on_bad_ellipse_or_start(experiment, settings, message, tmp_path, capsys):
    """An ellipse that is not positive definite and a start that is not a
    vector of the constraint's dimension are configuration errors."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(settings))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config_file), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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


def test_overflowing_gradient_is_a_singular_rejection_without_warning(tmp_path, capsys):
    """At delta = 1e300 the first midpoint's gradient overflows: every chain
    proposal is rejected as singular and no floating-point warning escapes.
    At 1e308 the product A x overflows too, and with wide velocities the
    midpoint itself does, so the gradient holds inf * 0 = NaN."""
    for i, settings in enumerate(
        [{"delta": 1e300}, {"delta": 1e308}, {"delta": 1e308, "velocity_sigma": 100.0}]
    ):
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


def test_main_exit_2_on_missing_required_setting(tmp_path, capsys):
    code = main(["sphere-tail", "--out", str(tmp_path)])
    assert code == 2
    assert "needs both h and dim" in capsys.readouterr().err


def test_main_exit_3_on_singular_geometry(tmp_path, capsys):
    """A fold-back whose first midpoint is the origin hits a zero gradient,
    and a codim-2 error table from a non-finite start hits a NaN Jacobian."""
    config_file = tmp_path / "singular.json"
    config_file.write_text(json.dumps({"x0": [-0.05, 0.0], "v0": [1.0, 0.0]}))
    code = main(
        ["foldback", "--config", str(config_file), "--out", str(tmp_path)]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err

    config_file.write_text(json.dumps(
        {"constraint": {"kind": "sliced"}, "x0": [float("nan"), 0.5, 0.5], "v0": [1.0, 0.0, 0.0]}
    ))
    assert "NaN" in config_file.read_text()
    code = main(["table1", "--config", str(config_file), "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_main_runs_sphere_tail(tmp_path, capsys):
    code = main(["sphere-tail", "--h", "0.3", "--dim", "3", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["summary"]["probability"] - 0.7) < 1e-9
    manifest = json.loads((tmp_path / "sphere-tail.manifest.json").read_text())
    assert manifest["experiment"] == "sphere-tail"
    assert manifest["seed"] == 0
    assert (tmp_path / "sphere_tail.csv").exists()


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
