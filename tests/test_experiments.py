"""Experiment drivers: configs, oracles for the helpers, determinism, outputs."""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics

import numpy as np
import pytest

from hugint import cli
from hugint.cli import build_parser
from hugint.constraints import QuadricConstraint, SphereSlicedConstraint
from hugint.dynamics import reference_solve
from hugint.ellipse import EllipseModel, ReducedState, reduced_orbits
from hugint.experiments import (
    BENCH_DIAG,
    BENCH_V0,
    BENCH_X0,
    ELLIPSOID_DIAGS,
    EXPERIMENTS,
    RUNNERS,
    SETTINGS,
    SHOWCASE_NORMAL_SPEEDS,
    ConfigError,
    ExperimentConfig,
    _average_ranks,
    _d_max_rows,
    _scatter_study,
    _showcase_velocity,
    build_constraint,
    ecdf_points,
    run_chain,
    run_ecdf,
    run_ellipsoid,
    run_foldback,
    run_phase_portrait,
    run_sphere_tail,
    run_table1,
    spearman_rho,
    sphere_tail_probability,
    uniform_sphere,
)
from hugint.integrator import HugParams, PhaseState, hug_steps_rows, hug_trajectory
from conftest import fenced_ellipsoid
from oracles import build_bundle, d_max_reference, dense_projectors, read_csv, scatter_reference

#: A quadric whose unit normal at x0 = e1 is not e1.
TILTED_QUADRIC = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (subcommands,) = [
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return subcommands


def test_experiment_table_scopes_cli_flags():
    """Each subcommand takes --config, --out, --seed and a flag for exactly
    the fields of its table entry that have a help line; the entry's
    settings are config fields, and its keys are ``out``, ``seed`` and them."""
    parser = build_parser()
    subcommands = _subcommands(parser)
    assert list(subcommands) == list(EXPERIMENTS) == list(RUNNERS)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name, experiment in EXPERIMENTS.items():
        assert RUNNERS[name] is experiment.runner
        assert set(experiment.settings) <= fields
        assert experiment.keys == ("out", "seed", *experiment.settings)
        with pytest.raises(SystemExit) as info:
            cli.main([name, "--help"])
        assert info.value.code == 0
        declared = {
            "--" + key.replace("_", "-")
            for key in experiment.settings if SETTINGS[key]["help"] is not None
        }
        options = {opt for action in subcommands[name]._actions for opt in action.option_strings}
        assert options - {"-h", "--help"} == {"--config", "--out", "--seed"} | declared, name
    with pytest.raises(SystemExit):
        parser.parse_args(["table1", "--replicates", "7"])


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope")
    cfg = ExperimentConfig(experiment="table1", out="/tmp/x", seed=4)
    echo = cfg.echo()
    assert echo["experiment"] == "table1" and echo["seed"] == 4


def test_build_constraint_kinds():
    q = build_constraint({"kind": "quadric", "diag": [1.0, 4.0]})
    assert isinstance(q, QuadricConstraint) and q.ambient_dim == 2
    m = build_constraint({"kind": "quadric", "matrix": [[2.0, 0.0], [0.0, 1.0]]})
    assert np.allclose(m.A, np.diag([2.0, 1.0]))
    s = build_constraint({"kind": "sphere", "dim": 4})
    assert np.allclose(s.A, np.eye(4))
    sl = build_constraint({"kind": "sliced", "dim": 5})
    assert isinstance(sl, SphereSlicedConstraint) and sl.ambient_dim == 5
    with pytest.raises(ConfigError):
        build_constraint(None)
    with pytest.raises(ConfigError):
        build_constraint({"kind": "moebius"})
    with pytest.raises(ConfigError):
        build_constraint({"kind": "sphere"})  # missing dim
    with pytest.raises(ConfigError):
        build_constraint({"kind": "quadric", "diag": [1.0, -1.0]})


def test_uniform_sphere_draws():
    rng = np.random.default_rng(71)
    draws = np.array([uniform_sphere(rng, 5) for _ in range(200)])
    assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-12)
    replay = np.array([uniform_sphere(np.random.default_rng(71), 5) for _ in range(2)])
    assert np.array_equal(replay[0], replay[1])  # same seed, same draw
    assert not np.array_equal(draws[0], draws[1])


def test_tail_probability_closed_forms():
    """The incomplete beta function must match hand-integrable cases: arcsine
    component for dim 2, uniform for dim 3, semicircle for dim 4, and the
    density (3/4)(1 - w^2) for dim 5."""
    for h in (0.1, 0.3, 0.7, 0.95):
        assert np.isclose(sphere_tail_probability(h, 2), 2.0 / np.pi * np.arccos(h), atol=1e-9)
        assert np.isclose(sphere_tail_probability(h, 3), 1.0 - h, atol=1e-9)
        assert np.isclose(
            sphere_tail_probability(h, 4),
            2.0 / np.pi * (np.arccos(h) - h * np.sqrt(1.0 - h * h)),
            atol=1e-9,
        )
        assert np.isclose(sphere_tail_probability(h, 5), (2.0 - 3.0 * h + h**3) / 2.0, atol=1e-9)
    assert sphere_tail_probability(0.0, 6) == 1.0
    assert sphere_tail_probability(1.0, 6) == 0.0


def test_tail_probability_matches_monte_carlo_dim6():
    rng = np.random.default_rng(72)
    g = rng.standard_normal((50000, 6))
    w = np.abs(g[:, 0] / np.linalg.norm(g, axis=1))
    for h in (0.2, 0.5):
        p = sphere_tail_probability(h, 6)
        se = np.sqrt(p * (1.0 - p) / w.size)
        assert abs((w >= h).mean() - p) < 5.0 * se


def test_tail_probability_domain_checks():
    with pytest.raises(ValueError):
        sphere_tail_probability(-0.1, 3)
    with pytest.raises(ValueError):
        sphere_tail_probability(1.1, 3)
    with pytest.raises(ValueError):
        sphere_tail_probability(0.5, 1)


def _trajectory_d_max(constraint, x0, v0, delta, steps):
    t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(delta, steps))
    return np.linalg.norm(t.xs - x0, axis=1).max()


def test_ecdf_points_shape_and_limits():
    fractions, probs = ecdf_points(np.array([3.0, 1.0, 2.0]))
    assert np.allclose(fractions, [1.0 / 3.0, 2.0 / 3.0, 1.0])
    assert np.allclose(probs, [1.0 / 3.0, 2.0 / 3.0, 1.0])
    with pytest.raises(ValueError):
        ecdf_points(np.array([]))


@pytest.mark.parametrize("n", [3, 10, 500])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_spearman_rho_matches_scipy(n, ties):
    from scipy.stats import rankdata, spearmanr

    rng = np.random.default_rng(n)
    checked = 0
    for _ in range(20):
        a, b = rng.standard_normal((2, n))
        if ties:  # a handful of distinct values, so most entries share a rank
            a, b = np.round(a), np.round(2.0 * b)
        if a.min() == a.max() or b.min() == b.max():
            continue  # scipy warns on constant input; covered below
        np.testing.assert_array_equal(_average_ranks(a), rankdata(a))
        assert abs(spearman_rho(a, b) - spearmanr(a, b).statistic) <= 1e-14
        checked += 1
    assert checked >= 10


def test_spearman_rho_tie_ranks_and_degenerate_samples():
    np.testing.assert_array_equal(_average_ranks(np.array([2.0, 1.0, 2.0, 0.0])), [3.5, 2, 3.5, 1])
    assert spearman_rho(np.arange(4.0), -np.arange(4.0) ** 3) == pytest.approx(-1.0, abs=1e-15)
    assert np.isnan(spearman_rho(np.array([1.0]), np.array([2.0])))
    assert np.isnan(spearman_rho(np.ones(5), np.arange(5.0)))


def test_showcase_velocity_geometry():
    """On a diagonal preset the velocity is s e1 + sqrt(1 - s^2) (e2 + e3)/sqrt(2);
    on a non-diagonal quadric its normal part still has norm s and its
    tangential part points along the tangential part of e2 + e3."""
    x0 = np.eye(3)[0]
    diagonal, _ = build_bundle(QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3])), x0)
    tilted_map = QuadricConstraint(np.array(TILTED_QUADRIC))
    tilted, _ = build_bundle(tilted_map, x0)
    e23 = np.array([0.0, 1.0, 1.0])
    u = dense_projectors(tilted_map, x0)[1] @ e23
    for s in (0.2, 0.7):
        v = _showcase_velocity(diagonal[:, 0], x0, s)
        assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-14)
        assert np.isclose(v[0], s)  # normal component at x0 = e1
        assert v[1] == v[2] == np.sqrt(1.0 - s**2) * (1.0 / np.sqrt(2.0))
        v = _showcase_velocity(tilted[:, 0], x0, s)
        assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-14)
        assert np.isclose(np.linalg.norm(v @ tilted), s, atol=1e-14)
        q = tilted[:, 0]
        assert (v @ q) * (q @ x0) > 0.0  # the outward normal, as e1 is on the presets
        tangential = v - q * (q @ v)
        assert np.allclose(tangential, np.sqrt(1.0 - s**2) * u / np.linalg.norm(u), atol=1e-14)


def test_showcase_rows_label_their_true_normal_speed(tmp_path):
    """Each showcase row's v_perp_norm is ||v Q|| of the velocity whose d_max it
    reports, also where the unit normal at x0 = e1 is not e1."""
    config = ExperimentConfig(
        experiment="ellipsoid", out=str(tmp_path), seed=2, steps=40, replicates=4,
        constraint={"kind": "quadric", "matrix": TILTED_QUADRIC},
    )
    run_ellipsoid(config)
    _, header, rows = read_csv(str(tmp_path / "ellipsoid_showcase.csv"))
    assert header == ["v_perp_norm", "d_max"] and len(rows) == 4
    constraint = QuadricConstraint(np.array(TILTED_QUADRIC))
    x0 = np.eye(3)[0]
    Q, _ = build_bundle(constraint, x0)
    assert abs(Q[0, 0]) < 0.99  # the normal at e1 is tilted away from e1
    for row in rows:
        label, d_max = float(row[0]), float(row[1])
        v = _showcase_velocity(Q[:, 0], x0, label)
        assert np.isclose(np.linalg.norm(v @ Q), label, rtol=1e-12)
        np.testing.assert_allclose(
            d_max, _trajectory_d_max(constraint, x0, v, config.delta, config.steps), rtol=1e-12
        )


def test_run_table1_writes_expected_table(tmp_path):
    cfg = ExperimentConfig(experiment="table1", out=str(tmp_path), seed=0)
    summary = run_table1(cfg)
    schema, header, rows = read_csv(str(tmp_path / "error_table.csv"))
    assert schema == "error-table/1"
    assert len(rows) == 5
    assert header[0] == "delta"
    # per-halving decay ratios approach 4 (one-step) and 8 (two-step)
    one_ratio = float(rows[-1][3])
    two_ratio = float(rows[-1][4])
    assert 3.5 < one_ratio < 4.3
    assert 7.0 < two_ratio < 8.5
    assert len(summary["one_step_errors"]) == 5


def test_run_table1_reruns_byte_identical(tmp_path):
    """Reruns, and a run given the default start as arrays, write the same bytes."""
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out in (out_a, out_b):
        run_table1(ExperimentConfig(experiment="table1", out=str(out), seed=0))
    run_table1(
        ExperimentConfig(
            experiment="table1", out=str(out_c), x0=np.array(BENCH_X0), v0=np.array(BENCH_V0)
        )
    )
    table = (out_a / "error_table.csv").read_bytes()
    assert (out_b / "error_table.csv").read_bytes() == table
    assert (out_c / "error_table.csv").read_bytes() == table


def test_phase_portrait_stacked_orbits_match_single_orbit_solves(tmp_path):
    """The portrait integrates its 63 orbits as one stacked system, whose
    error norm is an RMS over all of them.  The orbits with p0 = -c (the
    rotations furthest from their single solves) and p0 = 0 (the librations
    and both separatrix points) stay within 1e-9 of one solve per orbit at
    the desk horizon."""
    summary = run_phase_portrait(
        ExperimentConfig(experiment="phase-portrait", out=str(tmp_path), t_end=6.0)
    )
    model = EllipseModel(*BENCH_DIAG)
    _, _, points = read_csv(str(tmp_path / "portrait_classification.csv"))
    _, _, samples = read_csv(str(tmp_path / "portrait_orbits.csv"))
    orbits = np.array(samples, dtype=float).reshape(len(points), -1, 4)
    times = orbits[0, :, 1]
    assert times[-1] == pytest.approx(6.0)
    checked = [row for row in points if float(row[2]) in (-summary["speed"], 0.0)]
    assert {row[3] for row in checked} == {"rotation", "libration", "separatrix"}
    for point_id, phi0, p0, *_ in checked:
        orbit = orbits[int(point_id)]
        assert np.all(orbit[:, 0] == int(point_id))
        start = ReducedState(float(phi0), float(p0), summary["speed"])
        single = reduced_orbits(model, [start], times)[0]
        assert np.abs(orbit[:, 2:] - single).max() < 1e-9


@pytest.mark.parametrize(
    "spec, diag",
    [({"kind": "quadric", "matrix": [[1, 0], [0, 4]]}, [1, 4]), ({"kind": "sphere", "dim": 2}, [1, 1])],
    ids=["matrix", "circle"],
)
def test_ellipse_experiments_write_the_bytes_of_the_diag_form(spec, diag, tmp_path):
    """Every form of a diagonal 2-D quadric builds the map of its ``diag``
    form, so the portrait and the fold-back write that form's bytes."""
    for run, experiment in [(run_phase_portrait, "phase-portrait"), (run_foldback, "foldback")]:
        written = []
        for name, constraint in [("spec", spec), ("diag", {"kind": "quadric", "diag": diag})]:
            out = tmp_path / f"{experiment}-{name}"
            run(ExperimentConfig(experiment=experiment, out=str(out), constraint=constraint, t_end=1.0))
            written.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(written[0]) == 2 and written[0] == written[1]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "quadric", "matrix": [[1, 0.5], [0.5, 4]]},
        {"kind": "quadric", "matrix": [[1, 1e-300], [1e-300, 4]]},
        {"kind": "quadric", "diag": [1, 4, 9]},
        {"kind": "sphere", "dim": 3},
        {"kind": "sliced", "dim": 3},
    ],
    ids=["dense", "off-diagonal-tiny", "3-d", "sphere-3-d", "sliced"],
)
def test_ellipse_experiments_refuse_a_map_that_is_not_a_diagonal_2d_quadric(spec, tmp_path):
    """The reduced model holds only a and b, so any other map is a config
    error, an entry off the diagonal however small included."""
    for run, experiment in [(run_phase_portrait, "phase-portrait"), (run_foldback, "foldback")]:
        config = ExperimentConfig(experiment=experiment, out=str(tmp_path), constraint=spec)
        with pytest.raises(ConfigError, match="need a diagonal 2-D quadric"):
            run(config)
    assert not any(tmp_path.iterdir())


def test_run_foldback_summary(tmp_path):
    cfg = ExperimentConfig(experiment="foldback", out=str(tmp_path), seed=0)
    summary = run_foldback(cfg)
    assert summary["classification"] == "libration"
    assert summary["tangential_sign_changes"] == 2
    lo, hi = summary["turning_points"]
    assert np.isclose(hi, np.arcsin(1.0 / np.sqrt(21.0)), atol=1e-12)
    assert np.isclose(lo, -hi, atol=1e-12)
    schema, _, rows = read_csv(str(tmp_path / "foldback_steps.csv"))
    assert schema == "foldback-steps/1" and len(rows) == 15


@pytest.mark.parametrize("delta, steps", [(0.015, 14), (0.013, 100)])
def test_run_foldback_gap_is_taken_at_the_step_times(tmp_path, delta, steps):
    """Off the flow table's 0.01 grid, each step is still compared with the
    flow at its own time, not at the nearest grid time."""
    cfg = ExperimentConfig(experiment="foldback", out=str(tmp_path), delta=delta, steps=steps)
    summary = run_foldback(cfg)
    constraint = QuadricConstraint(np.diag(BENCH_DIAG))
    initial = PhaseState(np.asarray(cfg.x0), np.asarray(cfg.v0))
    trajectory = hug_trajectory(constraint, initial, HugParams(delta, steps))
    xs, _ = reference_solve(constraint, initial, trajectory.times)
    gap = np.max(np.linalg.norm(trajectory.xs - xs, axis=1))
    assert summary["max_tracking_gap"] == pytest.approx(gap, rel=1e-12)
    _, _, rows = read_csv(str(tmp_path / "foldback_flow.csv"))
    times = np.array([float(row[0]) for row in rows])
    assert np.allclose(times, 0.01 * np.arange(times.size), rtol=0.0, atol=1e-12)


def test_run_ellipsoid_reruns_byte_identical(tmp_path):
    """Two runs at one seed write the same bytes and summaries, and the
    showcase rows read as their own trajectories.  That last check compares
    two BLAS routes, the rows stream's ``np.vecdot`` on rows of a block against
    ``hug_trajectory``'s ``ndarray.dot`` on fresh arrays: they round alike
    under the SkylakeX and Haswell OpenBLAS kernels, not under Prescott."""
    base = dict(
        experiment="ellipsoid", seed=5, dim=3, delta=0.01, steps=30, replicates=16
    )
    s1 = run_ellipsoid(ExperimentConfig(out=str(tmp_path / "a"), **base))
    s2 = run_ellipsoid(ExperimentConfig(out=str(tmp_path / "b"), **base))
    assert s1["replicates"] == 16 and s1["failed_replicates"] == 0
    assert "spearman_rank_correlation" in s1
    for name in ("ellipsoid_scatter.csv", "ellipsoid_ecdf.csv", "ellipsoid_showcase.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert s1 == s2
    # the showcase rows share the scatter's pass and read as their own trajectories
    constraint = QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3]))
    x0 = np.eye(3)[0]
    Q, _ = build_bundle(constraint, x0)
    expected = [
        _trajectory_d_max(constraint, x0, _showcase_velocity(Q[:, 0], x0, s), 0.01, 30)
        for s in SHOWCASE_NORMAL_SPEEDS
    ]
    assert np.array_equal(s1["showcase_d_max"], expected)


def test_run_ellipsoid_uses_full_quadric_matrix(tmp_path):
    """Each scatter row's d_max is the excursion of a hug trajectory on the
    configured quadric, off-diagonal entries included, from that replicate's
    velocity.  This compares two BLAS routes, the rows stream's ``np.vecdot``
    on rows of a block against ``hug_trajectory``'s ``ndarray.dot`` on fresh
    arrays: they round alike under the SkylakeX and Haswell OpenBLAS kernels,
    not under Prescott."""
    matrix = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]]
    run_ellipsoid(ExperimentConfig(
        experiment="ellipsoid", out=str(tmp_path), seed=1, steps=50, replicates=4,
        constraint={"kind": "quadric", "matrix": matrix},
    ))
    _, _, rows = read_csv(str(tmp_path / "ellipsoid_scatter.csv"))
    constraint = QuadricConstraint(np.array(matrix))
    x0 = np.eye(3)[0]
    velocities = [
        uniform_sphere(np.random.default_rng(child), 3)
        for child in np.random.SeedSequence(1).spawn(4)
    ]
    expected = [_trajectory_d_max(constraint, x0, v0, 0.01, 50) for v0 in velocities]
    assert np.array_equal([float(row[2]) for row in rows], expected)


def test_run_ellipsoid_rows_do_not_depend_on_the_replicate_count(tmp_path):
    """Replicate r's velocity is the same at any replicate count, and so are
    its v_perp and d_max, bit for bit, and the showcase: on a dense 40-D
    quadric, where row products from one matrix multiply move with the
    number of rows stacked."""
    M = np.random.default_rng(40).standard_normal((40, 40))
    matrix = (M @ M.T / 40 + 0.5 * np.eye(40)).tolist()
    scatter, showcase = [], []
    for replicates in (10, 200):
        out = tmp_path / str(replicates)
        run_ellipsoid(ExperimentConfig(
            experiment="ellipsoid", out=str(out), seed=2, steps=100, replicates=replicates,
            constraint={"kind": "quadric", "matrix": matrix},
        ))
        scatter.append((out / "ellipsoid_scatter.csv").read_bytes().splitlines())
        showcase.append((out / "ellipsoid_showcase.csv").read_bytes())
    assert scatter[0] == scatter[1][: len(scatter[0])]
    assert showcase[0] == showcase[1]


_SCATTER_CASES = {
    "preset-3-showcase": (QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3])), SHOWCASE_NORMAL_SPEEDS),
    "preset-6": (QuadricConstraint(np.diag(ELLIPSOID_DIAGS[6])), ()),
    "fenced": (fenced_ellipsoid(0.05), ()),
}


@pytest.mark.parametrize("case", _SCATTER_CASES)
def test_scatter_study_is_bitwise_the_reference(case):
    """The study takes its steps from one rows stream and keeps the running
    maximum squared, with one square root at the end; all four results must
    have the bits of ``oracles.scatter_reference``, which steps one call at a
    time and takes each step's ``np.linalg.norm``.  On the fenced map the
    rows that cross x_2 = 0.05 turn NaN mid-run and count as failed."""
    constraint, showcase_speeds = _SCATTER_CASES[case]
    x0 = np.eye(constraint.ambient_dim)[0]
    config = ExperimentConfig(experiment="ellipsoid", delta=0.02, steps=40, replicates=16)
    got = _scatter_study(constraint, x0, config, 7, showcase_speeds)
    expected = scatter_reference(constraint, x0, config, 7, showcase_speeds)
    assert got[2] == expected[2]
    for a, b in zip(got[:2] + got[3:], expected[:2] + expected[3:], strict=True):
        assert np.array_equal(a, b, equal_nan=True)
    assert len(got[3]) == len(showcase_speeds)
    if case == "fenced":
        assert 0 < got[2] < config.replicates
    else:
        assert got[2] == 0


class _FencedRows(QuadricConstraint):
    """The 3-D ellipsoid preset whose unchecked gradient of rows vanishes
    where x_2 > 0.03, one product over the rows without a Python call per
    row; the study and its reference both read this hook."""

    def _gradient(self, Y):
        G = Y * self._hessian
        G[Y[:, 1] > 0.03] = 0.0
        return G


@pytest.mark.parametrize("rows, lengths", [(2000, [2, 2, 1]), (6000, [1] * 5)])
def test_d_max_across_block_boundaries_is_bitwise_the_per_step_loop(rows, lengths):
    """Past a third and all of ``ROWS_BLOCK_FLOATS`` (R n = 6,000 and 18,000)
    five steps come in blocks of two or one step, and the study's d_max,
    reduced once per block, must have the bits of the per-step loop over
    ``np.linalg.norm``, ``oracles.d_max_reference``.  Random unit velocities
    at speed 0.5 stay below the fence; row 1 runs along e2 at speed 1 and
    turns NaN at step 4, the second step of a block of two.  Row 2 runs along
    e3 at speed 100, about 1 unit a step round the x1-x3 ellipse, so its
    distance from e1 peaks inside a block, not at the block's last step: a
    d_max that read only each block's last step would fail the blocks of
    two, though not the blocks of one step, where the two are the same."""
    constraint = _FencedRows(np.diag(ELLIPSOID_DIAGS[3]))
    x0 = np.eye(3)[0]
    V = np.random.default_rng(34).standard_normal((rows, 3))
    V *= 0.5 / np.linalg.norm(V, axis=1)[:, None]
    V[1] = [0.0, 1.0, 0.0]
    V[2] = [0.0, 0.0, 100.0]
    stream = hug_steps_rows(constraint, np.broadcast_to(x0, V.shape), V, 0.01, 5)
    assert [len(Xs) for Xs, _ in stream] == lengths
    assert np.isfinite(d_max_reference(constraint, x0, V[1:2], 0.01, 3)).all()
    got = _d_max_rows(constraint, x0, V, 0.01, 5)
    assert got.tobytes() == d_max_reference(constraint, x0, V, 0.01, 5).tobytes()
    assert np.flatnonzero(np.isnan(got)).tolist() == [1]


def test_run_ecdf_small(tmp_path):
    """Each dimension's mean fraction and its standard error, with the sample
    standard deviation (N - 1 in the denominator), are read back from its CSV."""
    cfg = ExperimentConfig(
        experiment="ecdf", out=str(tmp_path), seed=3, delta=0.01, steps=20, replicates=12
    )
    summary = run_ecdf(cfg)
    assert set(summary["dims"]) == {"3", "6"}
    for dim in (3, 6):
        schema, header, rows = read_csv(str(tmp_path / f"ecdf_n{dim}.csv"))
        assert schema == "ellipsoid-ecdf/1" and len(rows) == 12
        fractions = [float(row[0]) for row in rows]
        stats = summary["dims"][str(dim)]
        assert stats["mean_fraction"] == pytest.approx(statistics.fmean(fractions), rel=1e-12)
        stderr = statistics.stdev(fractions) / math.sqrt(len(fractions))
        assert stats["stderr"] == pytest.approx(stderr, rel=1e-12)
    assert isinstance(summary["higher_dim_mean_fraction_larger"], bool)


def test_run_sphere_tail_config(tmp_path):
    with pytest.raises(ConfigError):
        run_sphere_tail(ExperimentConfig(experiment="sphere-tail", out=str(tmp_path)))
    cfg = ExperimentConfig(experiment="sphere-tail", out=str(tmp_path), h=0.3, dim=3)
    summary = run_sphere_tail(cfg)
    assert np.isclose(summary["probability"], 0.7, atol=1e-9)
    schema, _, rows = read_csv(str(tmp_path / "sphere_tail.csv"))
    assert schema == "sphere-tail/1" and len(rows) == 1


def test_run_chain_small(tmp_path):
    """The burn-in is a tenth of a chain shorter than 10,000 iterations, and the
    second moments are the mean squares of ``chain.csv`` past it."""
    cfg = ExperimentConfig(
        experiment="chain", out=str(tmp_path), seed=1, iterations=1000
    )
    summary = run_chain(cfg)
    assert summary["iterations"] == 1000
    assert 0.0 <= summary["hug_acceptance_rate"] <= 1.0
    assert summary["target_second_moments"] == [0.5, 0.125]
    _, _, rows = read_csv(str(tmp_path / "chain.csv"))
    assert len(rows) == 1001
    assert summary["burn_in"] == 100
    samples = np.array([[float(x) for x in row[1:]] for row in rows[100:]])
    assert summary["second_moments"] == (samples**2).mean(axis=0).tolist()


def test_run_chain_target_moments_of_a_non_diagonal_quadric(tmp_path):
    """exp(-x^T A x) has covariance (2 A)^-1, so the target second moments are
    0.5 diag(A^-1): 1/3 each for A = [[2, 1], [1, 2]], not 0.5 / diag(A)."""
    cfg = ExperimentConfig(
        experiment="chain",
        out=str(tmp_path),
        iterations=50,
        constraint={"kind": "quadric", "matrix": [[2.0, 1.0], [1.0, 2.0]]},
    )
    assert np.allclose(run_chain(cfg)["target_second_moments"], [1 / 3, 1 / 3], rtol=1e-12)


def test_run_chain_rejects_non_quadric(tmp_path):
    cfg = ExperimentConfig(
        experiment="chain",
        out=str(tmp_path),
        constraint={"kind": "sliced", "dim": 3},
    )
    with pytest.raises(ConfigError):
        run_chain(cfg)
