"""The continuous-time system: field identities, invariants, and error orders."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_run
from hugint.constraints import QuadricConstraint, SphereSlicedConstraint
from hugint.dynamics import (
    convergence_study,
    embedded_sequence,
    field_divergence,
    fit_order,
    phase_field,
    reference_solve,
    split_velocity,
    step_residuals,
    velocity_derivative,
)
from hugint.integrator import PhaseState, hug_trajectory, HugParams
from hugint.projectors import build_bundle
from oracles import component_field, component_solve, velocity_derivative_grouped

BENCH = QuadricConstraint(np.diag([1.0, 4.0]))
BENCH_STATE = PhaseState([np.cos(1.0), 0.5 * np.sin(1.0)], [0.0, 1.0])


def test_split_velocity_parts():
    rng = np.random.default_rng(41)
    c = SphereSlicedConstraint(3)
    x = rng.standard_normal(3)
    v = rng.standard_normal(3)
    b = build_bundle(c, x)
    v_par, v_perp = split_velocity(b, v)
    assert np.allclose(v_par + v_perp, v)
    assert np.abs(b.normal @ v_par).max() < 1e-13  # tangential part
    assert np.abs(b.tangent @ v_perp).max() < 1e-13  # normal part


@pytest.mark.parametrize("kind", ["quadric", "sliced"])
def test_velocity_derivative_routes_agree(kind):
    """The reduced (matrix-free) and grouped (full-matrix) forms of dv/dt are
    algebraically identical and implemented separately."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        constraint, x, v, _, _ = random_run(kind, rng)
        b = build_bundle(constraint, x)
        a = velocity_derivative(constraint, b, v)
        g = velocity_derivative_grouped(constraint, b, v)
        assert np.abs(a - g).max() < 1e-13


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
        b = build_bundle(c, x)
        v_par, v_perp = split_velocity(b, v)
        dz = full(0.0, np.concatenate([x, v]))
        dy = split(0.0, np.concatenate([x, v_par, v_perp]))
        assert np.allclose(dy[:3], b.tangent @ v, atol=1e-13)  # dx/dt = v_par
        assert np.allclose(dy[3:6] + dy[6:9], dz[3:], atol=1e-12)


def test_component_solve_matches_reference():
    times = np.linspace(0.0, 1.5, 7)
    sol = reference_solve(BENCH, BENCH_STATE, times)
    xs, v_par, v_perp = component_solve(BENCH, BENCH_STATE, times)
    assert np.abs(xs - sol.xs).max() < 1e-9
    assert np.abs((v_par + v_perp) - sol.vs).max() < 1e-9


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
    sol = reference_solve(constraint, state, times)
    speeds = np.linalg.norm(sol.vs, axis=1)
    assert np.abs(speeds - speeds[0]).max() < 1e-10
    levels = np.array([constraint.value(x) for x in sol.xs])
    assert np.abs(levels - levels[0]).max() < 1e-10


def test_flow_time_reversible():
    times = np.array([0.0, 1.0])
    fwd = reference_solve(BENCH, BENCH_STATE, times)
    back = reference_solve(BENCH, PhaseState(fwd.xs[-1], -fwd.vs[-1]), times)
    assert np.abs(back.xs[-1] - BENCH_STATE.x).max() < 1e-8
    assert np.abs(-back.vs[-1] - BENCH_STATE.v).max() < 1e-8


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


def test_step_residuals_second_order():
    """sigma and tau shrink as O(delta^2) when the flow is plugged into the
    discrete update."""
    deltas = np.array([0.08, 0.04, 0.02, 0.01])
    sig_max = []
    tau_max = []
    for delta in deltas:
        steps = int(round(0.8 / delta))
        X, V = embedded_sequence(BENCH, BENCH_STATE, delta, steps)
        sigma, tau = step_residuals(BENCH, X, V, delta)
        sig_max.append(np.linalg.norm(sigma, axis=1).max())
        tau_max.append(np.linalg.norm(tau, axis=1).max())
    assert 1.7 < fit_order(deltas, np.array(sig_max)) < 2.3
    assert 1.7 < fit_order(deltas, np.array(tau_max)) < 2.3


def test_discrete_map_tracks_flow():
    """A moderate-step trajectory stays within O(delta^2) of the flow."""
    delta, steps = 0.05, 20
    t = hug_trajectory(BENCH, BENCH_STATE, HugParams(delta, steps))
    sol = reference_solve(BENCH, BENCH_STATE, t.times)
    gap = np.linalg.norm(t.xs - sol.xs, axis=1).max()
    assert gap < 10.0 * delta**2, f"tracking gap {gap:.3e}"


def test_fit_order_recovers_synthetic_slope():
    deltas = np.array([0.1, 0.05, 0.025])
    errors = 3.0 * deltas**2.5
    assert np.isclose(fit_order(deltas, errors), 2.5, atol=1e-12)
    with pytest.raises(ValueError):
        fit_order(deltas, np.full(3, 1e-15))  # everything in roundoff


def test_convergence_study_bench_orders():
    study = convergence_study(
        BENCH, BENCH_STATE, np.array([1.0 / 16, 1.0 / 32, 1.0 / 64]), horizon=0.5
    )
    assert 1.8 < study.one_step_order < 2.2
    assert 2.6 < study.two_step_order < 3.4
    assert 1.7 < study.global_order < 2.3
