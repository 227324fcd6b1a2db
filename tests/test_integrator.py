"""The discrete step: dual-route equivalence, exact invariants, bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import MAP_KINDS, random_run
from hugint.constraints import QuadricConstraint, SphereConstraint
from hugint.errors import SingularGeometryError
from hugint.integrator import (
    HugParams,
    PhaseState,
    hug_step,
    hug_trajectory,
    level_drift_bound,
)
from oracles import eliminated_step


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        PhaseState(np.zeros((2, 1)), np.zeros((2, 1)))
    s = PhaseState([1, 0], [0, 1])  # lists are coerced to float arrays
    assert s.x.dtype == float and s.v.dtype == float


def test_hug_params_validation():
    with pytest.raises(ValueError):
        HugParams(step_size=0.0, steps=1)
    with pytest.raises(ValueError):
        HugParams(step_size=np.inf, steps=1)
    with pytest.raises(ValueError):
        HugParams(step_size=0.1, steps=-1)
    assert HugParams(step_size=0.1, steps=0).steps == 0


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_step_matches_eliminated_form(kind):
    """The two algebraic forms of the update must produce identical states."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        constraint, x0, v0, delta, _ = random_run(kind, rng)
        xa, va = hug_step(constraint, x0, v0, delta)
        xb, vb = eliminated_step(constraint, x0, v0, delta)
        assert np.abs(xa - xb).max() < 1e-13
        assert np.abs(va - vb).max() < 1e-13


def test_trajectory_bookkeeping():
    constraint = QuadricConstraint(np.diag([1.0, 4.0]))
    initial = PhaseState([np.cos(1.0), 0.5 * np.sin(1.0)], [0.0, 1.0])
    params = HugParams(step_size=0.05, steps=7)
    t = hug_trajectory(constraint, initial, params)
    assert t.times.shape == (8,) and np.allclose(t.times, 0.05 * np.arange(8))
    assert t.xs.shape == (8, 2) and t.vs.shape == (8, 2)
    assert t.midpoints.shape == (7, 2)
    assert np.allclose(t.midpoints, t.xs[:-1] + 0.025 * t.vs[:-1])
    assert t.levels.shape == (8, 1)
    assert np.allclose(t.levels[0], constraint.value(initial.x))
    assert np.allclose(t.state(3).x, t.xs[3])
    assert np.allclose(t.final.x, t.xs[-1])
    # replaying single steps reproduces the trajectory
    x, v = initial.x, initial.v
    for k in range(7):
        x, v = hug_step(constraint, x, v, 0.05)
        assert np.allclose(t.xs[k + 1], x) and np.allclose(t.vs[k + 1], v)


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_speed_and_segment_lengths_exact(kind):
    rng = np.random.default_rng(32)
    for _ in range(5):
        constraint, x0, v0, delta, steps = random_run(kind, rng)
        t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(delta, steps))
        speed0 = np.linalg.norm(v0)
        assert np.abs(t.speeds - speed0).max() < 1e-12
        half = 0.5 * delta * speed0
        first = np.linalg.norm(t.midpoints - t.xs[:-1], axis=1)
        second = np.linalg.norm(t.xs[1:] - t.midpoints, axis=1)
        assert np.abs(first - half).max() < 1e-12
        assert np.abs(second - half).max() < 1e-12


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_reversibility(kind):
    """Negating the final velocity and stepping back retraces the trajectory."""
    rng = np.random.default_rng(33)
    for _ in range(5):
        constraint, x0, v0, delta, steps = random_run(kind, rng)
        params = HugParams(delta, steps)
        forward = hug_trajectory(constraint, PhaseState(x0, v0), params)
        back = hug_trajectory(
            constraint, PhaseState(forward.final.x, -forward.final.v), params
        )
        assert np.abs(back.final.x - x0).max() < 1e-10
        assert np.abs(-back.final.v - v0).max() < 1e-10


def test_zero_steps_trajectory():
    constraint = SphereConstraint(3)
    initial = PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t = hug_trajectory(constraint, initial, HugParams(0.1, 0))
    assert t.times.shape == (1,) and t.midpoints.shape == (0, 3)
    assert np.allclose(t.level_drift, 0.0)


def test_level_drift_bound_values():
    # closed form: (delta^2 / 12) speed^2 (3 beta + gamma (K-1) delta speed)
    assert level_drift_bound(0.1, 0, 2.0, 5.0, 1.0) == 0.0
    got = level_drift_bound(0.1, 4, 2.0, 5.0, 1.0)
    expected = (0.01 / 12.0) * 4.0 * (15.0 + 1.0 * 3 * 0.1 * 2.0)
    assert np.isclose(got, expected, rtol=1e-15)


def test_sphere_level_exactly_preserved():
    """On an isotropic quadric the iterates stay on the level set to rounding."""
    rng = np.random.default_rng(34)
    constraint = QuadricConstraint(0.7 * np.eye(3))
    x0 = rng.standard_normal(3)
    v0 = rng.standard_normal(3)
    t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(0.05, 200))
    assert t.level_drift.max() < 1e-12


def test_phase_volume_preserved_fd():
    """|det| of the finite-difference Jacobian of one step is 1; the sign is
    (-1)^m because the reflection flips orientation once per constraint
    component."""
    rng = np.random.default_rng(35)
    for kind, expected_sign in [("quadric", -1.0), ("sliced", 1.0)]:
        constraint, x0, v0, delta, _ = random_run(kind, rng)
        n = x0.size
        z0 = np.concatenate([x0, v0])
        h = 1e-5
        cols = []
        for i in range(2 * n):
            e = np.zeros(2 * n)
            e[i] = h
            xp, vp = hug_step(constraint, (z0 + e)[:n], (z0 + e)[n:], delta)
            xm, vm = hug_step(constraint, (z0 - e)[:n], (z0 - e)[n:], delta)
            cols.append((np.concatenate([xp, vp]) - np.concatenate([xm, vm])) / (2 * h))
        det = np.linalg.det(np.array(cols).T)
        assert abs(abs(det) - 1.0) < 1e-6, f"{kind}: |det| = {abs(det)}"
        assert np.sign(det) == expected_sign


def test_singular_start_raises():
    constraint = SphereConstraint(2)
    with pytest.raises(SingularGeometryError):
        # the first midpoint lands exactly on the gradient zero at the origin
        hug_step(constraint, np.array([-0.05, 0.0]), np.array([1.0, 0.0]), 0.1)
