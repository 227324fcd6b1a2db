"""The continuous-time system underneath the discrete hugging step.

The directional derivative of the normal projector N along w splits into two
one-sided parts, N'_perp(x)[w] = J^+ H(x)[w, .] T (tangent -> normal) and
N'_par(x)[w] = (N'_perp(x)[w])^T (normal -> tangent), with H(x)[w, .] the
m-by-n matrix of Hessian contractions.  The discrete map is a second-order
integrator for

    dx/dt = T(x) v
    dv/dt = ( N'_par(x)[(T - N)v] - N'_perp(x)[(T - N)v] ) v

which, writing v_par = T(x)v and v_perp = N(x)v and using the image/kernel
structure of the one-sided derivative operators, reduces to

    dv/dt = N'_par(x)[v_par - v_perp] v_perp - N'_perp(x)[v_par - v_perp] v_par.

The flow preserves phase-space volume, ||v(t)||, and f(x(t)), and is
time-reversible.  This module evaluates the field in the reduced form from
the normal basis Q and J^+ alone, splitting v once per evaluation and
applying every projector matrix-free, integrates it accurately with a
self-checked DOP853 solve, and measures the convergence orders of the
discrete map against the flow.  The proof's embedded flow sequence and its
O(delta^2) step residuals are test oracles (``tests/oracles.py``).

Each experiment makes one checked solve, capped at
:data:`REFERENCE_MAX_EVALS` field evaluations a pass.  The error table, the
convergence study and the fold-back step first and then solve once at the
steps' own times, all step sizes together; a phase portrait solves its orbits
stacked as one reduced ellipse system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Callable

import numpy as np

from .constraints import ConstraintMap
from .errors import DimensionError, ReferenceSolveError, StudyFailedError
from .integrator import HugParams, PhaseState, hug_trajectory
from .projectors import _gradient_norm2, normal_qr

#: (rtol, atol) of the coarse and the fine DOP853 solve behind every
#: reference solution; the fine one is returned.
REFERENCE_TOLERANCES = ((1e-12, 1e-14), (1e-13, 1e-15))
#: Largest gap allowed between the two solves at any output time.
REFERENCE_MAX_GAP = 1e-10
#: Most field evaluations either DOP853 pass may make before the solve is refused.
REFERENCE_MAX_EVALS = 200_000
#: Errors at or below this sit in roundoff and would corrupt an order fit.
ROUNDOFF_FLOOR = 1e-12

Field = Callable[[float, np.ndarray], np.ndarray]


def checked_solve(field: Field, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Integrate y' = field(t, y) through ``times``, in any order, with DOP853.

    y0 is the state at the earliest time.  The solve runs at both
    :data:`REFERENCE_TOLERANCES`.  If y0 is not finite, either solve reports
    failure or makes more than :data:`REFERENCE_MAX_EVALS` field evaluations,
    or the two differ by more than :data:`REFERENCE_MAX_GAP` at any output
    time, the solution is not trusted and :class:`ReferenceSolveError` is
    raised.  Returns the fine solution, of shape (len(times), len(y0)), its
    rows in the order of ``times``: the earliest time's rows are y0 itself,
    and repeated times give identical rows.
    """
    from scipy.integrate import solve_ivp  # imported here so that ``import hugint`` loads no SciPy

    times = np.asarray(times, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise ReferenceSolveError(f"initial state is not finite: {y0!r}")
    grid, index = np.unique(times, return_inverse=True)
    solves = []
    for rtol, atol in REFERENCE_TOLERANCES:
        ys = np.tile(y0, (grid.size, 1))
        if grid.size > 1:
            evals = count(1)

            def counted(t, y):
                if next(evals) > REFERENCE_MAX_EVALS:
                    raise ReferenceSolveError(f"DOP853 passed {REFERENCE_MAX_EVALS} field evaluations")
                return field(t, y)

            sol = solve_ivp(counted, (grid[0], grid[-1]), y0, method="DOP853",
                            t_eval=grid, rtol=rtol, atol=atol)
            if not sol.success:
                raise ReferenceSolveError(f"DOP853 failed at rtol={rtol:.0e}: {sol.message}")
            ys[1:] = sol.y.T[1:]
        solves.append(ys)
    coarse, fine = solves
    gap = float(np.max(np.linalg.norm(coarse - fine, axis=1), initial=0.0))  # 0 for no rows
    if not np.isfinite(gap) or gap > REFERENCE_MAX_GAP:
        raise ReferenceSolveError(
            f"tolerance check failed: max gap {gap:.3e} > {REFERENCE_MAX_GAP:.3e}"
        )
    return fine[index]


def phase_field(constraint: ConstraintMap):
    """Return field(t, y) for the flow on y = (x, v) in R^{2n}.

    Its basis comes as the step's does, the branch picked once: at codim 1
    the vectors q = g / ||g|| and J^+ = g / ||g||^2 of the gradient g, read
    through ``_gradient`` as the step reads it and checked as in
    ``unit_normal``; above it ``normal_qr``'s Q and Q R^{-T}.
    v splits once into v_perp = Q (Q^T v) and dx/dt = v_par = v - v_perp,
    dv/dt takes one Hessian contraction along w = v_par - v_perp, and T u is
    u - Q (Q^T u).  A state of the wrong shape or a contraction not of shape
    (m, n) raises :class:`~hugint.errors.DimensionError`.

    Each call returns a new array, which the solver keeps as its derivative.
    At codim 1 the hooks and ufuncs are bound once, when the field is built,
    dx/dt and dv/dt are written into the two halves of one new array, and
    ||g||^2, ||g|| and the four dots enter in turn through one reused 0-d
    array, so one field is not for two threads at once.  Every bit is that
    of the plain form, which the codim-m branch is: numpy-float operands,
    ``np.linalg.inv``, ``@`` and one ``np.concatenate``.
    """
    n = constraint.ambient_dim
    shape = (2 * n,)
    contract = constraint.hessian_contraction
    if constraint.codim == 1:
        multiply, subtract = np.multiply, np.subtract
        gradient, norm2, sqrt, divide = constraint._gradient, _gradient_norm2, math.sqrt, np.divide
        scalar = np.empty(())  # a faster operand than a Python or numpy float, with the same bits

        def field(t: float, y: np.ndarray) -> np.ndarray:
            if y.shape != shape:
                raise DimensionError(f"expected a state of shape {shape}, got {y.shape}")
            x, v = y[:n], y[n:]
            g = gradient(x)  # x has shape (n,): y's shape is checked
            ng2 = norm2(g, x)
            scalar[()] = ng2
            p = divide(g, scalar)
            scalar[()] = sqrt(ng2)
            q = divide(g, scalar)
            scalar[()] = q.dot(v)
            v_perp = multiply(q, scalar)
            out = np.empty(shape)  # new on every call: the solver keeps it
            v_par = subtract(v, v_perp, out[:n])
            S = contract(x, v_par - v_perp)
            if S.shape != (1, n):  # S[0] of an (n,) contraction would broadcast a scalar
                raise DimensionError(f"Hessian contraction of shape {S.shape}, expected (1, {n})")
            s = S[0]
            scalar[()] = p.dot(v_perp)
            u = multiply(s, scalar)
            scalar[()] = q.dot(u)
            u_par = subtract(u, multiply(q, scalar))
            scalar[()] = s.dot(v_par)
            subtract(u_par, multiply(p, scalar), out[n:])  # dv/dt
            return out

        return field

    def field(t: float, y: np.ndarray) -> np.ndarray:
        if y.shape != shape:
            raise DimensionError(f"expected a state of shape {shape}, got {y.shape}")
        x, v = y[:n], y[n:]
        Q, R = normal_qr(constraint, x)
        pseudo = Q @ np.linalg.inv(R).T  # R is m-by-m with m small
        v_perp = Q @ (Q.T @ v)
        v_par = v - v_perp
        S = contract(x, v_par - v_perp)
        if S.shape != Q.T.shape:  # (m, n); a wrong one would meet numpy's bare matmul error
            raise DimensionError(f"Hessian contraction of shape {S.shape}, expected {Q.T.shape}")
        u = S.T @ (pseudo.T @ v_perp)
        return np.concatenate([v_par, u - Q @ (Q.T @ u) - pseudo @ (S @ v_par)])

    return field


def reference_solve(
    constraint: ConstraintMap, initial: PhaseState, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the flow from ``initial`` through ``times`` with
    :func:`checked_solve`; returns (xs, vs), a row for each time."""
    n = constraint.ambient_dim
    y0 = np.concatenate([initial.x, initial.v])
    ys = checked_solve(phase_field(constraint), y0, times)
    return ys[:, :n], ys[:, n:]


@dataclass(frozen=True)
class ConvergenceStudy:
    """Errors of the discrete map against the flow across step sizes.

    one_step[i]  = ||x_1 - x(delta_i)||            (single step)
    two_step[i]  = ||x_2 - x(2 delta_i)||          (two composed steps)
    global_err[i] = max_k ||x_k - x(k delta_i)||   over k delta_i <= horizon
    """

    deltas: np.ndarray
    one_step: np.ndarray
    two_step: np.ndarray
    global_err: np.ndarray

    @property
    def one_step_order(self) -> float:
        return fit_order(self.deltas, self.one_step)

    @property
    def two_step_order(self) -> float:
        return fit_order(self.deltas, self.two_step)

    @property
    def global_order(self) -> float:
        return fit_order(self.deltas, self.global_err)


def fit_order(deltas: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(delta).

    Pairs with error at or below :data:`ROUNDOFF_FLOOR` are dropped; two must
    remain, else :class:`~hugint.errors.StudyFailedError`.
    """
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > ROUNDOFF_FLOOR
    if keep.sum() < 2:
        raise StudyFailedError("need at least two error values above the roundoff floor")
    slope, _ = np.polyfit(np.log(deltas[keep]), np.log(errors[keep]), 1)
    return float(slope)


def convergence_study(
    constraint: ConstraintMap, initial: PhaseState, deltas: np.ndarray, horizon: float = 1.0
) -> ConvergenceStudy:
    """Measure one-step, two-step, and global errors for each step size.

    Steps with k * delta <= horizon (K = round(horizon / delta), at least 2)
    enter the global error; the one- and two-step errors use the same
    trajectories, all stepped before one reference solve at their step times.
    """
    deltas = np.asarray(deltas, dtype=float)
    runs = [hug_trajectory(constraint, initial, HugParams(delta, max(2, round(horizon / delta))))
            for delta in deltas]
    xs, _ = reference_solve(constraint, initial, np.concatenate([run.times for run in runs]))
    D = np.concatenate([run.xs for run in runs]) - xs
    # row k of each run: ||x_k - x(k delta)||, with the bits of np.linalg.norm on that row alone
    errors = np.split(np.sqrt(np.vecdot(D, D)), np.cumsum([len(run.xs) for run in runs])[:-1])
    return ConvergenceStudy(
        deltas=deltas,
        one_step=np.array([errs[1] for errs in errors]),
        two_step=np.array([errs[2] for errs in errors]),
        global_err=np.array([errs[1:].max() for errs in errors]),
    )
