"""Refused CLI runs: one table, checked the same way in process and through
the console script.

Each row ``(test, case, argv, config, code, message)`` runs ``hugint ARGV
[--config run.json] --out out`` in an empty directory, ``run.json`` holding
``config`` unless that is None: a str or bytes as the file's text, any other
value as JSON.  Every row must exit with ``code``; write exactly one stderr line, which
starts ``config error: `` (exit 2) or ``numerical failure: `` (exit 3) and
holds ``message`` (a message that starts with that prefix starts the line,
and one that ends with a newline is the whole line); write no stdout; and
leave nothing in the directory but ``run.json``.

``tests/test_cli.py`` runs every row through ``hugint.cli.main`` in the
test that the row names, as the row's case; the rows of a test without case
ids are checked in turn by that one test.  As a script, ``python
tests/refusals.py`` runs every row through the ``hugint`` console script on
``PATH`` (``pip install -e .``), each within 120 s, with stdout read to the
end and no ``Exception ignored`` on stderr; it prints each failing row and
exits 1 if any fails.  A new refusal is one more row.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Refusal(NamedTuple):
    test: str  # the Tier-1 test in tests/test_cli.py that checks the row
    case: str | None  # the row's case id there; None where that test is not parametrized
    argv: list[str]
    config: object
    code: int
    message: str

    @property
    def id(self) -> str:
        """The Tier-1 test id that checks the row."""
        return self.test if self.case is None else f"{self.test}[{self.case}]"


PREFIXES = {2: "config error: ", 3: "numerical failure: "}
_BIG = str(2**63 - 1)
_NAN = float("nan")

# test name -> its rows (case, argv, config, code, message)
TABLE = {
    # a count or horizon too large to record: numpy refuses the record's, the
    # time grid's or the (R, n) velocity block's shape before it allocates or
    # spawns a seed; a horizon past inf fails when its step count is rounded
    "test_main_exit_2_on_a_count_too_large_to_record": [
        ("foldback-steps", ["foldback", "--steps", _BIG], None, 2,
         f"config error: steps={_BIG} is too many to record"),
        ("chain-iterations", ["chain", "--iterations", str(2**63)], None, 2,
         "config error: iterations=9223372036854775808 is too many to record"),
        *((f"{name}-replicates", [name, "--replicates", _BIG], None, 2,
           f"config error: replicates={_BIG} is too many to record")
          for name in ["ellipsoid", "ecdf"]),
        *((f"{name}-t-end{suffix}", [name, "--t-end", t_end], None, 2,
           f"config error: t_end={float(t_end):g} is too long to record")
          for name, t_end, suffix in [("phase-portrait", "1e300", ""),
                                      ("convergence", "1e300", ""),
                                      ("convergence", "1e308", "-past-inf")]),
        ("foldback-delta-steps", ["foldback", "--delta", "1e18", "--steps", "1"], None, 2,
         "config error: delta=1e+18 times steps=1 is too long to record"),
    ],
    # a flag out of its range, a setting missing, a config file missing or unreadable:
    # Python reads no JSON integer of over 4,300 digits and no bytes that are not UTF-8
    "test_main_exit_2_on_out_of_range_setting": [
        (f"{argv[0]}:{argv[1][2:]}{suffix}", argv, None, 2, message)
        for argv, suffix, message in [
            (["ellipsoid", "--replicates", "0"], "", "replicates must be >= 2"),
            (["foldback", "--delta", "-0.1"], "", "delta must be positive and finite"),
            (["chain", "--steps", "-1"], "", "steps must be >= 1"),
            (["chain", "--seed", "-1"], "", "seed must be >= 0"),
            (["chain", "--iterations", "0"], "", "iterations must be >= 1"),
            (["convergence", "--t-end", "-1"], "", "t_end must be positive and finite"),
            (["sphere-tail", "--h", "2", "--dim", "3"], "", "h must lie in [0, 1]"),
            (["sphere-tail", "--dim", "1", "--h", "0.5"], "", "need dim >= 2"),
            (["sphere-tail", "--dim", "1" + "0" * 400, "--h", "0.3"], "-of-401-digits",
             "dim is too large for a float"),
            (["ellipsoid", "--dim", "4"], "", "no ellipsoid preset for dim=4"),
            (["table1", "--config", "missing.json"], "",
             "config error: cannot read config file")]],
    "test_main_exit_2_on_missing_required_setting": [
        (None, ["sphere-tail"], None, 2, "needs both h and dim")],
    "test_main_exit_2_on_bad_json": [
        (None, ["table1"], "{not json", 2, "config error: config file is not readable JSON")],
    "test_main_exit_2_on_unreadable_config_file": [
        (name, ["foldback"], text, 2, "config error: config file is not readable JSON")
        for name, text in [("integer-of-5001-digits", b'{"delta": 1' + b"0" * 5000 + b"}"),
                           ("not-utf-8", b'{"out": "\xff"}')]],
    # a key outside the experiment's table entry would run on the defaults and
    # still be recorded; the chain's norm-cancelling kernel reads no velocity scale
    "test_main_exit_2_on_config_key_the_experiment_does_not_read": [
        (f"{argv[0]}:{','.join(settings)}", argv, settings, 2,
         f"bad config key(s) for {argv[0]}: {', '.join(sorted(settings))}")
        for argv, settings in [
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
            (["ellipsoid"], {"full_scale": True})]],
    # the chain reads no velocity scale, and a start of the wrong dimension
    # must not reach its integrator
    "test_main_exit_2_on_bad_chain_setting_in_config_file": [
        *((f"sigma-{name}", ["chain", "--iterations", "10"], {"velocity_sigma": sigma}, 2,
           "bad config key(s) for chain: velocity_sigma")
          for name, sigma in [("zero", 0), ("negative", -1), ("overflow", 1e400)]),
        ("walk-scale-negative", ["chain", "--iterations", "10"], {"walk_scale": -0.5}, 2,
         "walk_scale must be positive and finite"),
        ("x0-shape", ["chain", "--iterations", "10"], {"x0": [1, 2, 3]}, 2,
         "x0 must have 2 entries"),
    ],
    # a config value of the wrong kind or out of range; 10**400 is a JSON integer
    # that no float can hold, and a constraint spec that is no map is not a
    # numerical failure
    "test_main_exit_2_on_badly_typed_config_value": [
        ("constraint-not-object", ["foldback"], {"constraint": [1, 4]}, 2,
         "a constraint must be a JSON object, got [1, 4]"),
        *((name, [experiment], {key: value}, 2, f"{key} must be {message}")
          for name, experiment, key, value, message in [
              ("foldback-steps-float", "foldback", "steps", 10.5, "an integer"),
              ("ellipsoid-steps-float", "ellipsoid", "steps", 10.5, "an integer"),
              ("ecdf-replicates-float", "ecdf", "replicates", 7.5, "an integer"),
              ("chain-iterations-float", "chain", "iterations", 100.5, "an integer"),
              ("steps-bool", "foldback", "steps", True, "a number"),
              ("dim-float", "ellipsoid", "dim", 3.0, "an integer"),
              ("seed-float", "table1", "seed", 1.5, "an integer")]),
        ("delta-beyond-float", ["foldback"], {"delta": 10**400}, 2,
         "delta is too large for a float"),
        ("file-not-object", ["table1"], [1, 2], 2,
         "config error: config file must hold a JSON object"),
        ("sliced-dim-2", ["table1"], {"constraint": {"kind": "sliced", "dim": 2}}, 2,
         "config error: bad constraint spec: need ambient_dim >= 3"),
        *((f"quadric-{name}", ["table1"], {"constraint": {"kind": "quadric", "matrix": A}}, 2,
           "config error: bad constraint spec: A must be square")
          for name, A in [("not-square", [[1, 2, 3]]), ("flat", [1, 2])]),
    ],
    # int() would run dim 2.7 on the 2-D sphere and true on the 1-D one
    "test_main_exit_2_on_constraint_dim_not_an_integer": [
        (f"{name}-{kind}", [experiment], {"constraint": {"kind": kind, "dim": dim}}, 2,
         f"config error: bad constraint spec: dim must be an integer, got {dim!r}")
        for name, dim in [("float", 2.7), ("bool", True), ("string", "3")]
        for experiment, kind in [("ellipsoid", "sphere"), ("table1", "sliced")]],
    # an ellipse that is not positive definite, a start not a vector of the map's
    # dimension or off the fold-back's ellipse
    "test_main_exit_2_on_bad_ellipse_or_start": [
        *((f"{name}-not-spd", [experiment], {"constraint": {"kind": "quadric", "diag": [1, -4]}},
           2, "config error: bad constraint spec: A must be positive definite")
          for name, experiment in [("portrait", "phase-portrait"), ("foldback", "foldback")]),
        *((f"{experiment}-{name}", [experiment], settings, 2, message)
          for experiment, name, settings, message in [
              ("table1", "x0-string", {"x0": "abc"}, "x0 must be a list of numbers"),
              ("convergence", "x0-short", {"x0": [1.0]}, "x0 must have 2 entries"),
              ("convergence", "v0-long", {"v0": [1, 2, 3]}, "v0 must have 2 entries"),
              ("foldback", "v0-ragged", {"v0": [[1.0], [0.5, 0.5]]},
               "v0 must be a list of numbers"),
              ("foldback", "x0-off-ellipse", {"x0": [2.0, 0.0]},
               "x0 must lie on the ellipse 1 x1^2 + 4 x2^2 = 1"),
              ("foldback", "x0-just-off-ellipse", {"x0": [1.0000001, 0.0]},
               "x0 must lie on the ellipse")]),
    ],
    # JSON reads 1e400 as inf, and every experiment refuses it in build_constraint,
    # with one message
    "test_main_exit_2_on_an_infinite_quadric_diagonal": [
        (f"{experiment}-{name}", [experiment], '{"constraint": {"kind": "quadric", "diag": %s}}'
         % diag, 2, "config error: bad constraint spec: A must be finite")
        for experiment in ["phase-portrait", "foldback", "chain", "table1"]
        for name, diag in [("a-inf", "[1e400, 4]"), ("b-inf", "[1, 1e400]")]],
    "test_ellipsoid_study_rejects_a_codim_2_constraint": [
        (None, ["ellipsoid"], {"constraint": {"kind": "sliced", "dim": 3}}, 2,
         "config error: the ellipsoid study expects a codimension-1 constraint")],
    # a zero v0 never leaves x0: the error ratios are 0/0 and the fit has nothing
    "test_main_exit_2_on_zero_start_velocity": [
        (experiment, [experiment], {"v0": [0, 0]}, 2, "v0 must not be zero, got [0, 0]")
        for experiment in ["table1", "convergence", "foldback"]],
    # at delta 1e300 every replicate's first gradient overflows, and at 1e308 the
    # midpoint itself can, with no floating-point warning either
    "test_main_exit_3_when_every_replicate_fails": [
        (f"{experiment}{suffix}", [experiment, "--replicates", "5", "--steps", "2"],
         {"delta": delta}, 3, "all 5 replicates hit singular or non-finite geometry")
        for delta, suffix in [(1e300, ""), (1e308, "-1e308")]
        for experiment in ["ecdf", "ellipsoid"]],
    "test_main_exit_3_on_overflowing_gradient": [
        (None, ["foldback"], {"delta": delta}, 3,
         f"numerical failure: singular geometry at x=array([6.61437828e+{e}, 2.50000000e+{e}]) "
         "(gradient is not finite)\n") for delta, e in [(1e300, 299), (1e308, 307)]],
    # the first midpoint x0 + (0.1 / 2) v0 is the origin; a NaN start is off every
    # level set, a NaN velocity fails in the map to reduced coordinates, and a
    # codim-2 error table from a NaN start hits a NaN Jacobian
    "test_main_exit_3_on_singular_geometry": [
        (None, ["foldback"], {"x0": [1.0, 0.0], "v0": [-20.0, 0.0]}, 3, "(gradient vanishes)"),
        (None, ["foldback"], {"x0": [_NAN, 0.0]}, 3,
         "numerical failure: point is off the level set"),
        (None, ["foldback"], {"v0": [_NAN, 0.0]}, 3, "(velocity is not finite)"),
        (None, ["table1"],
         {"constraint": {"kind": "sliced"}, "x0": [_NAN, 0.5, 0.5], "v0": [1.0, 0.0, 0.0]}, 3,
         "(Jacobian is not finite)"),
    ],
    # at speed 1e-6 every error (third order in the speed) is below the roundoff floor
    "test_main_exit_3_when_every_convergence_error_is_roundoff": [
        (None, ["convergence"], {"v0": [0.0, 1e-6]}, 3,
         "numerical failure: need at least two error values above the roundoff floor\n")],
}
ROWS = [Refusal(test, *row) for test, rows in TABLE.items() for row in rows]


def prepare(row: Refusal, directory: Path) -> list[str]:
    """Write the row's config file into ``directory``; the argv to run there."""
    if row.config is None:
        return [*row.argv, "--out", "out"]
    text = row.config if isinstance(row.config, (str, bytes)) else json.dumps(row.config)
    (directory / "run.json").write_bytes(text.encode() if isinstance(text, str) else text)
    return [*row.argv, "--config", "run.json", "--out", "out"]


def problems(row: Refusal, directory: Path, code: int, stdout: str, stderr: str) -> list[str]:
    """Every way in which the row's run in ``directory`` broke the checks."""
    prefix, found = PREFIXES[row.code], []
    if code != row.code:
        found.append(f"exited {code}, not {row.code}")
    if not (stderr.startswith(prefix) and stderr.endswith("\n") and stderr.count("\n") == 1):
        found.append(f"stderr is not one line starting {prefix!r}")
    anchored = row.message.startswith(prefix)
    if not (stderr.startswith(row.message) if anchored else row.message in stderr):
        found.append(f"stderr does not hold {row.message!r}")
    if stdout:
        found.append("stdout is not empty")
    left = sorted(path.name for path in directory.iterdir())
    if left != (["run.json"] if row.config is not None else []):
        found.append(f"the run left {left}")
    return found


def main() -> int:
    """Run every row through the ``hugint`` console script; 1 if any fails."""
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as work:
            argv = ["hugint", *prepare(row, Path(work))]
            child = subprocess.run(argv, cwd=work, capture_output=True, text=True, timeout=120)
            found = problems(row, Path(work), child.returncode, child.stdout, child.stderr)
        if "Exception ignored" in child.stderr:
            found.append("stderr holds 'Exception ignored'")
        if found:
            failed += 1
            print(f"{row.id} {row.argv}: {'; '.join(found)}\n  stderr: {child.stderr!r}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} refused runs pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
