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
time-reversible.  This module evaluates the field in the reduced form,
applying every projector matrix-free through the basis of the normal space,
integrates it accurately with a self-checked DOP853 solve, and measures the
convergence orders of the discrete map against the flow.  The proof's
embedded flow sequence and its O(delta^2) step residuals are test oracles
(``tests/oracles.py``).

Each experiment makes one checked solve: the error table and convergence
study solve on the union of their step-size grids (:func:`position_errors`),
and a phase portrait solves its orbits stacked as one reduced ellipse system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constraints import ConstraintMap
from .errors import ReferenceSolveError
from .integrator import PhaseState, hug_steps
from .projectors import ProjectorBundle, build_bundle

#: (rtol, atol) of the coarse and the fine DOP853 solve behind every
#: reference solution; the fine one is returned.
REFERENCE_TOLERANCES = ((1e-12, 1e-14), (1e-13, 1e-15))
#: Largest gap allowed between the two solves at any output time.
REFERENCE_MAX_GAP = 1e-10

Field = Callable[[float, np.ndarray], np.ndarray]


def checked_solve(field: Field, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Integrate y' = field(t, y) through nondecreasing ``times`` with DOP853.

    The solve runs at both :data:`REFERENCE_TOLERANCES`.  If y0 is not
    finite, either solve reports failure, or the two differ by more than
    :data:`REFERENCE_MAX_GAP` at any output time, the solution is not trusted
    and :class:`ReferenceSolveError` is raised.  Returns the fine solution,
    of shape (len(times), len(y0)): row 0 is y0 itself (times[0] is the
    initial time) and repeated times give identical rows.
    """
    from scipy.integrate import solve_ivp  # imported here so that ``import hugint`` loads no SciPy

    times = np.asarray(times, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nondecreasing")
    if not np.isfinite(y0).all():
        raise ReferenceSolveError(f"initial state is not finite: {y0!r}")
    grid, index = np.unique(times, return_inverse=True)
    solves = []
    for rtol, atol in REFERENCE_TOLERANCES:
        ys = np.tile(y0, (grid.size, 1))
        if grid.size > 1:
            sol = solve_ivp(field, (grid[0], grid[-1]), y0, method="DOP853",
                            t_eval=grid, rtol=rtol, atol=atol)
            if not sol.success:
                raise ReferenceSolveError(f"DOP853 failed at rtol={rtol:.0e}: {sol.message}")
            ys[1:] = sol.y.T[1:]
        solves.append(ys)
    coarse, fine = solves
    gap = float(np.max(np.linalg.norm(coarse - fine, axis=1)))
    if not np.isfinite(gap) or gap > REFERENCE_MAX_GAP:
        raise ReferenceSolveError(
            f"tolerance check failed: max gap {gap:.3e} > {REFERENCE_MAX_GAP:.3e}"
        )
    return fine[index]


def split_velocity(bundle: ProjectorBundle, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose v into (tangential, normal) parts at bundle.x."""
    v = np.asarray(v, dtype=float)
    v_perp = bundle.basis @ (bundle.basis.T @ v)
    return v - v_perp, v_perp


def velocity_derivative(
    constraint: ConstraintMap, bundle: ProjectorBundle, v: np.ndarray
) -> np.ndarray:
    """dv/dt in the reduced form using the velocity split.

    Computes N'_par[w] v_perp - N'_perp[w] v_par for w = v_par - v_perp with
    a single Hessian contraction, applying the operators matrix-free: T v_par
    is v_par itself, and T u is the tangential part of u.
    """
    v_par, v_perp = split_velocity(bundle, v)
    S = constraint.hessian_contraction(bundle.x, v_par - v_perp)
    par_term, _ = split_velocity(bundle, S.T @ (bundle.pseudo.T @ v_perp))
    perp_term = bundle.pseudo @ (S @ v_par)
    return par_term - perp_term


def phase_field(constraint: ConstraintMap):
    """Return field(t, y) for the flow on y = (x, v) in R^{2n}."""
    n = constraint.ambient_dim

    def field(t: float, y: np.ndarray) -> np.ndarray:
        x, v = y[:n], y[n:]
        bundle = build_bundle(constraint, x)
        dx, _ = split_velocity(bundle, v)
        dv = velocity_derivative(constraint, bundle, v)
        return np.concatenate([dx, dv])

    return field


@dataclass(frozen=True)
class FlowSolution:
    """Reference solution of the phase-space flow at requested times."""

    times: np.ndarray
    xs: np.ndarray
    vs: np.ndarray


def reference_solve(constraint: ConstraintMap, initial: PhaseState, times: np.ndarray) -> FlowSolution:
    """Integrate the flow from ``initial`` through ``times`` with :func:`checked_solve`."""
    times = np.asarray(times, dtype=float)
    n = constraint.ambient_dim
    y0 = np.concatenate([initial.x, initial.v])
    ys = checked_solve(phase_field(constraint), y0, times)
    return FlowSolution(times=times, xs=ys[:, :n], vs=ys[:, n:])


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
    horizon: float

    @property
    def one_step_order(self) -> float:
        return fit_order(self.deltas, self.one_step)

    @property
    def two_step_order(self) -> float:
        return fit_order(self.deltas, self.two_step)

    @property
    def global_order(self) -> float:
        return fit_order(self.deltas, self.global_err)


def fit_order(deltas: np.ndarray, errors: np.ndarray, floor: float = 1e-12) -> float:
    """Least-squares slope of log(error) against log(delta).

    Pairs with error below ``floor`` are dropped: they sit in roundoff and
    would corrupt the fit.  Requires at least two usable pairs.
    """
    deltas = np.asarray(deltas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    if keep.sum() < 2:
        raise ValueError("need at least two error values above the roundoff floor")
    slope, _ = np.polyfit(np.log(deltas[keep]), np.log(errors[keep]), 1)
    return float(slope)


def position_errors(
    constraint: ConstraintMap, initial: PhaseState, deltas: np.ndarray, steps: list[int]
) -> list[np.ndarray]:
    """Position errors ||x_k - x(k delta)||, k = 1..K, for each step size.

    ``steps[i]`` is the step count K of ``deltas[i]``.  One reference solve
    on the union of the grids delta_i * (0, 1, ..., K_i) serves every step
    size; each one's rows are picked out of it by time.
    """
    grids = [delta * np.arange(K + 1) for delta, K in zip(deltas, steps)]
    union = np.unique(np.concatenate(grids))
    xs = reference_solve(constraint, initial, union).xs
    errors = []
    for delta, grid in zip(deltas, grids):
        reference = xs[np.searchsorted(union, grid)]
        errs = np.empty(grid.size - 1)
        stream = hug_steps(constraint, initial.x, initial.v, delta)
        for k, (x, _) in zip(range(1, grid.size), stream):
            errs[k - 1] = np.linalg.norm(x - reference[k])
        errors.append(errs)
    return errors


def convergence_study(
    constraint: ConstraintMap, initial: PhaseState, deltas: np.ndarray, horizon: float = 1.0
) -> ConvergenceStudy:
    """Measure one-step, two-step, and global errors for each step size.

    Steps with k * delta <= horizon (K = round(horizon / delta)) enter the
    global error; the one- and two-step errors use the same trajectories.
    """
    deltas = np.asarray(deltas, dtype=float)
    steps = [max(2, int(round(horizon / delta))) for delta in deltas]
    errors = position_errors(constraint, initial, deltas, steps)
    return ConvergenceStudy(
        deltas=deltas,
        one_step=np.array([errs[0] for errs in errors]),
        two_step=np.array([errs[1] for errs in errors]),
        global_err=np.array([errs.max() for errs in errors]),
        horizon=horizon,
    )
