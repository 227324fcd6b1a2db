"""The continuous-time system: field identities, invariants, and error orders."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_run
from hugint.constraints import (
    CallableConstraint,
    ConstraintMap,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from hugint.dynamics import (
    convergence_study,
    fit_order,
    phase_field,
    reference_solve,
)
from hugint.errors import DimensionError, StudyFailedError
from hugint.integrator import PhaseState, hug_trajectory, HugParams
from hugint.projectors import normal_qr
from oracles import (
    AffineConstraint,
    build_bundle,
    bundle_field,
    component_field,
    component_solve,
    dense_projectors,
    embedded_sequence,
    field_divergence,
    per_delta_errors,
    position_errors_reference,
    signed_bundle,
    step_residuals,
    velocity_derivative_grouped,
    velocity_parts,
)

BENCH = QuadricConstraint(np.diag([1.0, 4.0]))
BENCH_STATE = PhaseState([np.cos(1.0), 0.5 * np.sin(1.0)], [0.0, 1.0])
SLICED_STATE = PhaseState([0.73907151, 0.54626892, 0.39413414], [0.2, -0.4, 0.5])


def test_split_velocity_parts():
    """The field's dx/dt is the tangential part v_par of v, and v - v_par is normal."""
    rng = np.random.default_rng(41)
    c = SphereSlicedConstraint(3)
    x = rng.standard_normal(3)
    v = rng.standard_normal(3)
    N, T = dense_projectors(c, x)
    v_par = phase_field(c)(0.0, np.concatenate([x, v]))[:3]
    v_perp = v - v_par
    assert np.allclose(v_par + v_perp, v)
    assert np.abs(N @ v_par).max() < 1e-13  # tangential part
    assert np.abs(T @ v_perp).max() < 1e-13  # normal part


@pytest.mark.parametrize("kind", ["quadric", "sliced"])
def test_velocity_derivative_routes_agree(kind):
    """The reduced (matrix-free) form of dv/dt in ``phase_field`` and the
    grouped (full-matrix) form are algebraically identical and implemented
    separately."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        constraint, x, v, _, _ = random_run(kind, rng)
        a = phase_field(constraint)(0.0, np.concatenate([x, v]))[x.size:]
        g = velocity_derivative_grouped(constraint, x, v)
        assert np.abs(a - g).max() < 1e-13


FIELD_MAPS = {
    "bench-quadric": BENCH,
    "dense-quadric": QuadricConstraint(
        np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 3.0]])
    ),
    "sphere-10": SphereConstraint(10),
    "sliced-3": SphereSlicedConstraint(3),
    "sliced-10": SphereSlicedConstraint(10),
    "sliced-1000": SphereSlicedConstraint(1000),
    "affine-m3": AffineConstraint(np.random.default_rng(46).standard_normal((3, 6))),
    # not a quadric: its contraction is the base class's central difference
    "callable-jac": CallableConstraint(
        3,
        1,
        fn=lambda x: np.array([np.sin(x[0]) + x[1] ** 2 - x[2] ** 3]),
        jac=lambda x: np.array([[np.cos(x[0]), 2.0 * x[1], -3.0 * x[2] ** 2]]),
    ),
}


@pytest.mark.parametrize("name", FIELD_MAPS)
def test_phase_field_is_bitwise_the_bundle_route(name):
    """``phase_field`` splits v once through the unit gradient, or above
    codimension 1 the basis of ``normal_qr`` with the column signs as the QR
    leaves them; it must give the bits of the field through the sign-fixed
    matrix-form bundle that split v three times, and the oracle's unsigned
    J^+ the bits of the sign-fixed one.  Above codimension 1 some drawn points
    have a negative diag(R), so a flipped column is met."""
    constraint = FIELD_MAPS[name]
    n = constraint.ambient_dim
    rng = np.random.default_rng(47)
    field, reference = phase_field(constraint), bundle_field(constraint)
    flipped = 0
    for _ in range(20):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        y = np.concatenate([x, rng.standard_normal(n)])
        assert np.array_equal(field(0.0, y), reference(0.0, y))
        assert np.array_equal(build_bundle(constraint, x)[1], signed_bundle(constraint, x)[1])
        if constraint.codim > 1:
            flipped += bool((np.diag(normal_qr(constraint, x)[1]) < 0.0).any())
    assert constraint.codim == 1 or flipped > 0


class _ContractionOfShape(ConstraintMap):
    """The map ``twin`` (the benchmark quadric by default) with its Hessian
    contraction resized to ``shape``."""

    def __init__(self, shape, twin=BENCH):
        self.twin, self.shape = twin, shape
        self.ambient_dim, self.codim = twin.ambient_dim, twin.codim

    def value(self, x):
        return self.twin.value(x)

    def jacobian(self, x):
        return self.twin.jacobian(x)

    def hessian_contraction(self, x, w):
        return np.resize(self.twin.hessian_contraction(x, w), self.shape)


@pytest.mark.parametrize("shape", [(2,), (2, 2)], ids=["vector", "two-rows"])
def test_codim1_contraction_of_wrong_shape_raises(shape):
    """The codim-1 field reads row 0 of the (1, n) contraction; a contraction
    of another shape is refused, not broadcast or cut to its first row."""
    field = phase_field(_ContractionOfShape(shape))
    with pytest.raises(DimensionError, match=r"Hessian contraction of shape"):
        field(0.0, np.concatenate([BENCH_STATE.x, BENCH_STATE.v]))


@pytest.mark.parametrize("shape", [(3,), (1, 3), (4, 3)], ids=["vector", "row-0", "m+2-rows"])
def test_codim_m_contraction_of_wrong_shape_raises(shape):
    """The codim-m field needs the (m, n) contraction, here (2, 3) on the
    sliced sphere; another shape is refused before any product meets it,
    with the codim-1 branch's error, not numpy's bare matmul error."""
    sliced = SphereSlicedConstraint(3)
    y = np.array([0.73907151, 0.54626892, 0.39413414, 0.2, -0.4, 0.5])
    phase_field(sliced)(0.0, y)  # the true contraction passes at this state
    field = phase_field(_ContractionOfShape(shape, twin=sliced))
    with pytest.raises(DimensionError, match=r"Hessian contraction of shape .*, expected \(2, 3\)"):
        field(0.0, y)


@pytest.mark.parametrize("constraint", [BENCH, SphereSlicedConstraint(3)], ids=["codim1", "codim2"])
def test_state_of_wrong_shape_raises(constraint):
    """A state that is not (x, v) with both of shape (n,) is refused on either branch."""
    field, n = phase_field(constraint), constraint.ambient_dim
    for y in (np.ones(2 * n + 1), np.ones(2 * n - 1), np.ones((2 * n, 1))):
        with pytest.raises(DimensionError, match=r"expected a state of shape"):
            field(0.0, y)


def test_component_field_consistent_with_phase_field():
    """Summing the split-system derivatives reproduces the full dv/dt, and the
    position derivative is the tangential velocity."""
    rng = np.random.default_rng(43)
    c = SphereSlicedConstraint(3)
    full = phase_field(c)
    split = component_field(c)
    for _ in range(5):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(3)
        v_par, v_perp = velocity_parts(build_bundle(c, x)[0], v)
        dz = full(0.0, np.concatenate([x, v]))
        dy = split(0.0, np.concatenate([x, v_par, v_perp]))
        assert np.allclose(dy[:3], dense_projectors(c, x)[1] @ v, atol=1e-13)  # dx/dt = v_par
        assert np.allclose(dy[3:6] + dy[6:9], dz[3:], atol=1e-12)


def test_component_solve_matches_reference():
    times = np.linspace(0.0, 1.5, 7)
    flow_xs, flow_vs = reference_solve(BENCH, BENCH_STATE, times)
    xs, v_par, v_perp = component_solve(BENCH, BENCH_STATE, times)
    assert np.abs(xs - flow_xs).max() < 1e-9
    assert np.abs((v_par + v_perp) - flow_vs).max() < 1e-9


@pytest.mark.parametrize(
    "constraint,state",
    [
        (BENCH, BENCH_STATE),
        (
            SphereSlicedConstraint(3),
            PhaseState(
                [0.73907151, 0.54626892, 0.39413414], [0.2, -0.4, 0.5]
            ),
        ),
    ],
    ids=["quadric", "sliced"],
)
def test_flow_conserves_speed_and_level(constraint, state):
    times = np.linspace(0.0, 2.0, 21)
    xs, vs = reference_solve(constraint, state, times)
    speeds = np.linalg.norm(vs, axis=1)
    assert np.abs(speeds - speeds[0]).max() < 1e-10
    levels = np.array([constraint.value(x) for x in xs])
    assert np.abs(levels - levels[0]).max() < 1e-10


def test_flow_time_reversible():
    times = np.array([0.0, 1.0])
    fwd_xs, fwd_vs = reference_solve(BENCH, BENCH_STATE, times)
    back_xs, back_vs = reference_solve(BENCH, PhaseState(fwd_xs[-1], -fwd_vs[-1]), times)
    assert np.abs(back_xs[-1] - BENCH_STATE.x).max() < 1e-8
    assert np.abs(-back_vs[-1] - BENCH_STATE.v).max() < 1e-8


@pytest.mark.parametrize("kind", ["quadric", "sliced"])
def test_field_divergence_vanishes(kind):
    rng = np.random.default_rng(44)
    for _ in range(3):
        constraint, x, v, _, _ = random_run(kind, rng)
        assert abs(field_divergence(constraint, x, v)) < 1e-6


def test_embedded_sequence_alternates_normal_sign():
    """V_k must equal v_par(k delta) + (-1)^k v_perp(k delta), with the parts
    taken from the independently integrated split system."""
    delta, steps = 0.1, 6
    X, V = embedded_sequence(BENCH, BENCH_STATE, delta, steps)
    times = delta * np.arange(steps + 1)
    xs, v_par, v_perp = component_solve(BENCH, BENCH_STATE, times)
    assert np.abs(X - xs).max() < 1e-9
    signs = (-1.0) ** np.arange(steps + 1)
    assert np.abs(V - (v_par + signs[:, None] * v_perp)).max() < 1e-8


def _assert_step_residuals_second_order(constraint, initial):
    deltas = np.array([0.08, 0.04, 0.02, 0.01])
    sig_max = []
    tau_max = []
    for delta in deltas:
        steps = int(round(0.8 / delta))
        X, V = embedded_sequence(constraint, initial, delta, steps)
        sigma, tau = step_residuals(constraint, X, V, delta)
        sig_max.append(np.linalg.norm(sigma, axis=1).max())
        tau_max.append(np.linalg.norm(tau, axis=1).max())
    assert 1.7 < fit_order(deltas, np.array(sig_max)) < 2.3
    assert 1.7 < fit_order(deltas, np.array(tau_max)) < 2.3


def test_step_residuals_second_order():
    """sigma and tau shrink as O(delta^2) when the flow is plugged into the
    discrete update."""
    _assert_step_residuals_second_order(BENCH, BENCH_STATE)


def test_step_residuals_second_order_at_codim_2():
    """The same O(delta^2) residuals on the sliced sphere, where the step
    reflects through a two-dimensional normal space (criterion 07's start)."""
    initial = PhaseState(np.array([0.73907151, 0.54626892, 0.39413414]), np.array([0.2, -0.4, 0.5]))
    _assert_step_residuals_second_order(SphereSlicedConstraint(3), initial)


def test_discrete_map_tracks_flow():
    """A moderate-step trajectory stays within O(delta^2) of the flow."""
    delta, steps = 0.05, 20
    t = hug_trajectory(BENCH, BENCH_STATE, HugParams(delta, steps))
    xs, _ = reference_solve(BENCH, BENCH_STATE, t.times)
    gap = np.linalg.norm(t.xs - xs, axis=1).max()
    assert gap < 10.0 * delta**2, f"tracking gap {gap:.3e}"


def test_fit_order_recovers_synthetic_slope():
    deltas = np.array([0.1, 0.05, 0.025])
    errors = 3.0 * deltas**2.5
    assert np.isclose(fit_order(deltas, errors), 2.5, atol=1e-12)
    with pytest.raises(StudyFailedError, match="above the roundoff floor"):
        fit_order(deltas, np.full(3, 1e-15))  # everything in roundoff


def test_convergence_study_bench_orders():
    study = convergence_study(
        BENCH, BENCH_STATE, np.array([1.0 / 16, 1.0 / 32, 1.0 / 64]), horizon=0.5
    )
    assert 1.8 < study.one_step_order < 2.2
    assert 2.6 < study.two_step_order < 3.4
    assert 1.7 < study.global_order < 2.3


@pytest.mark.parametrize("horizon", [0.0, 0.01, 1.0])
@pytest.mark.parametrize(
    "constraint,state",
    [(BENCH, BENCH_STATE), (SphereSlicedConstraint(3), SLICED_STATE)],
    ids=["quadric", "sliced"],
)
def test_convergence_study_is_bitwise_the_union_grid_reference(constraint, state, horizon):
    """Stepping first and solving once at the concatenated step times gives,
    bit for bit, the errors read off one solve on the union of the grids and
    stepped by a stream; at horizon 0 every step size takes two steps, as in
    the error table, and at 0.01 the grids end at different times."""
    deltas = 1.0 / 2.0 ** np.arange(4, 9)
    study = convergence_study(constraint, state, deltas, horizon=horizon)
    steps = [max(2, int(round(horizon / delta))) for delta in deltas]
    errors = position_errors_reference(constraint, state, deltas, steps)
    assert np.array_equal(study.one_step, [errs[0] for errs in errors])
    assert np.array_equal(study.two_step, [errs[1] for errs in errors])
    assert np.array_equal(study.global_err, [errs.max() for errs in errors])


@pytest.mark.parametrize("horizon", [0.01, 1.0])
def test_convergence_study_union_grid_matches_per_delta_solves(horizon):
    """One reference solve at the step times of every step size gives the
    errors of one solve per step size; at horizon 0.01 the grids end at
    different times."""
    deltas = 1.0 / 2.0 ** np.arange(4, 9)
    study = convergence_study(BENCH, BENCH_STATE, deltas, horizon=horizon)
    one, two, glob = per_delta_errors(BENCH, BENCH_STATE, deltas, horizon)
    assert np.abs(study.one_step - one).max() < 1e-12
    assert np.abs(study.two_step - two).max() < 1e-12
    assert np.abs(study.global_err - glob).max() < 1e-12
