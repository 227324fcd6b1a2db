"""Command-line interface: parsing, config merging, exit codes, artifacts."""

from __future__ import annotations

import json

import pytest

from hugint.cli import build_parser, load_config, main
from hugint.experiments import BENCH_DIAG, BENCH_X0


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["warp-drive"])


def test_parser_scopes_flags_to_experiments():
    args = build_parser().parse_args(["sphere-tail", "--h", "0.25", "--dim", "4"])
    assert args.h == 0.25 and args.dim == 4
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table1", "--delta", "0.1"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["foldback", "--h", "0.5"])
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["ellipsoid", "--workers", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["ellipsoid", "--replicates", "0"],
        ["foldback", "--delta", "-0.1"],
        ["chain", "--steps", "-1"],
        ["chain", "--seed", "-1"],
        ["chain", "--iterations", "0"],
        ["convergence", "--t-end", "-1"],
    ],
    ids=lambda argv: f"{argv[0]}:{argv[1][2:]}",
)
def test_main_exit_2_on_out_of_range_setting(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
        ("foldback", {"steps": "10"}, "steps must be a number"),
        ("foldback", {"steps": 10.5}, "steps must be an integer"),
        ("ellipsoid", {"steps": 10.5}, "steps must be an integer"),
        ("ecdf", {"replicates": 7.5}, "replicates must be an integer"),
        ("chain", {"iterations": 100.5}, "iterations must be an integer"),
        ("foldback", {"steps": True}, "steps must be a number"),
        ("ellipsoid", {"dim": 3.0}, "dim must be an integer"),
        ("table1", {"seed": 1.5}, "seed must be an integer"),
    ],
    ids=["constraint-not-object", "steps-string", "foldback-steps-float",
         "ellipsoid-steps-float", "ecdf-replicates-float", "chain-iterations-float",
         "steps-bool", "dim-float", "seed-float"],
)
def test_main_exit_2_on_badly_typed_config_value(
    experiment, settings, message, tmp_path, capsys
):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps(settings))
    code = main([experiment, "--config", str(config_file), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err


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
