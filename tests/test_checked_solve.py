"""Reference solver: accuracy, the output-time contract, the evaluation cap and
the two-solve self-check."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hugint import dynamics
from hugint.constraints import QuadricConstraint
from hugint.dynamics import REFERENCE_TOLERANCES, checked_solve, reference_solve
from hugint.errors import ReferenceSolveError
from hugint.experiments import BENCH_DIAG, BENCH_V0, BENCH_X0
from hugint.integrator import PhaseState


def decay(t, y):
    return -y


def test_checked_solve_linear_decay():
    times = np.linspace(0.0, 2.0, 9)
    ys = checked_solve(decay, np.array([1.0]), times)
    assert np.abs(ys[:, 0] - np.exp(-times)).max() < 1e-12
    assert ys[0, 0] == 1.0  # row 0 is the initial condition


def test_checked_solve_hits_output_times_exactly():
    times = np.array([0.0, 0.3, 0.35, 1.0])
    ys = checked_solve(decay, np.array([2.0]), times)
    assert np.abs(ys[:, 0] - 2.0 * np.exp(-times)).max() < 1e-12


def test_checked_solve_takes_times_in_any_order():
    """Shuffled times give, bit for bit, the sorted solve's rows in the
    shuffled order; y0 is the state at the earliest time."""
    times = np.linspace(0.0, 2.0, 9)
    ys = checked_solve(decay, np.array([1.0, 2.0]), times)
    order = np.random.default_rng(5).permutation(times.size)
    assert not np.array_equal(order, np.arange(times.size))
    assert np.array_equal(checked_solve(decay, np.array([1.0, 2.0]), times[order]), ys[order])


def test_checked_solve_repeated_time_is_held():
    times = np.array([0.0, 0.5, 0.5, 1.0])
    ys = checked_solve(decay, np.array([1.0]), times)
    assert ys[1, 0] == ys[2, 0]


def test_checked_solve_single_time_is_initial_state():
    ys = checked_solve(decay, np.array([1.0, 2.0]), np.array([0.7]))
    assert np.array_equal(ys, [[1.0, 2.0]])


def test_checked_solve_returns_fine_solution():
    times = np.linspace(0.0, 1.0, 5)
    checked = checked_solve(decay, np.array([1.0]), times)
    rtol, atol = REFERENCE_TOLERANCES[-1]
    fine = solve_ivp(decay, (0.0, 1.0), np.array([1.0]), method="DOP853",
                     t_eval=times, rtol=rtol, atol=atol)
    assert np.array_equal(checked[1:], fine.y.T[1:])


def test_checked_solve_raises_on_solver_failure():
    # y' = y^2 from 1 blows up at t = 1
    with pytest.raises(ReferenceSolveError, match="DOP853 failed"):
        checked_solve(lambda t, y: y**2, np.array([1.0]), np.array([0.0, 2.0]))


def test_checked_solve_raises_past_its_evaluation_cap(monkeypatch):
    """A pass that needs more field evaluations than the cap is refused
    rather than left to run; the same solve passes under the real cap."""
    times = np.array([0.0, 50.0])
    checked_solve(decay, np.array([1.0]), times)
    monkeypatch.setattr(dynamics, "REFERENCE_MAX_EVALS", 50)
    with pytest.raises(ReferenceSolveError, match="passed 50 field evaluations"):
        checked_solve(decay, np.array([1.0]), times)


def test_checked_solve_empty_times_give_no_rows():
    """No output time gives no rows, from ``checked_solve`` and from
    ``reference_solve``; a non-finite y0 is refused all the same."""
    assert checked_solve(decay, np.array([1.0, 2.0]), np.array([])).shape == (0, 2)
    initial = PhaseState(BENCH_X0, BENCH_V0)
    xs, vs = reference_solve(QuadricConstraint(np.diag(BENCH_DIAG)), initial, np.array([]))
    assert xs.shape == vs.shape == (0, 2)
    with pytest.raises(ReferenceSolveError, match="not finite"):
        checked_solve(decay, np.array([np.nan, 1.0]), np.array([]))


def test_checked_solve_raises_on_non_finite_initial_state():
    with pytest.raises(ReferenceSolveError, match="not finite"):
        checked_solve(decay, np.array([np.nan, 1.0]), np.array([0.0, 1.0]))


def test_checked_solve_raises_when_tolerances_disagree():
    # a 40 rad/s spin accumulates a relative phase error at each tolerance;
    # on a circle of radius 1000 the two solves end ~3e-9 apart
    def spin(t, y):
        return np.array([-40.0 * y[1], 40.0 * y[0]])

    with pytest.raises(ReferenceSolveError, match="tolerance check failed"):
        checked_solve(spin, np.array([1000.0, 0.0]), np.array([0.0, 1.0]))
