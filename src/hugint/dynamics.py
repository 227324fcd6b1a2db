"""The continuous-time system underneath the discrete hugging step.

The discrete map is a second-order integrator for

    dx/dt = T(x) v
    dv/dt = ( N'_par(x)[(T - N)v] - N'_perp(x)[(T - N)v] ) v

which, writing v_par = T(x)v and v_perp = N(x)v and using the image/kernel
structure of the one-sided derivative operators, reduces to

    dv/dt = N'_par(x)[v_par - v_perp] v_perp - N'_perp(x)[v_par - v_perp] v_par.

The flow preserves phase-space volume, ||v(t)||, and f(x(t)), and is
time-reversible.  This module evaluates the field in the reduced form,
applying every projector matrix-free through the basis of the normal space,
integrates it accurately with a self-checked DOP853 solve, embeds flow
solutions into discrete-looking sequences via the sign-alternating velocity

    X_k = x(k delta),    V_k = v_par(k delta) + (-1)^k v_perp(k delta),

and measures the residuals and convergence orders of the discrete map
against the flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .constraints import ConstraintMap
from .errors import ReferenceSolveError
from .integrator import PhaseState, hug_step
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


def field_divergence(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, h: float = 1e-5
) -> float:
    """Central-difference divergence of the phase-space field at (x, v).

    The flow preserves volume, so this should vanish up to the O(h^2)
    finite-difference error wherever the Jacobian of the constraint has full
    rank.
    """
    field = phase_field(constraint)
    z = np.concatenate([np.asarray(x, float), np.asarray(v, float)])
    total = 0.0
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = h
        total += (field(0.0, z + e)[i] - field(0.0, z - e)[i]) / (2.0 * h)
    return float(total)


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


def embedded_sequence(
    constraint: ConstraintMap, initial: PhaseState, delta: float, steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the flow at step times and alternate the normal velocity sign.

    Returns (X, V), each of shape (steps+1, n), with X_k = x(k delta) and
    V_k = v_par(k delta) + (-1)^k v_perp(k delta).  This is the flow dressed
    up as a discrete trajectory: plugging it into the discrete update leaves
    only O(delta^2) residuals (see :func:`step_residuals`).
    """
    times = delta * np.arange(steps + 1)
    sol = reference_solve(constraint, initial, times)
    X = sol.xs.copy()
    V = np.empty_like(sol.vs)
    for k in range(steps + 1):
        bundle = build_bundle(constraint, X[k])
        v_par, v_perp = split_velocity(bundle, sol.vs[k])
        V[k] = v_par + (-1.0) ** k * v_perp
    return X, V


def step_residuals(
    constraint: ConstraintMap, X: np.ndarray, V: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals left when a sequence is plugged into the discrete update.

    For each k, with y = X_k + (delta/2) V_k:

        sigma_{k+1} = X_{k+1} - X_k - delta * T(y) V_k
        tau_{k+1}   = V_{k+1} - (I - 2 N(y)) V_k

    Returns (sigma, tau) of shape (K, n).  For the embedded flow sequence
    both are O(delta^2) uniformly on bounded time intervals.
    """
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    K = X.shape[0] - 1
    sigma = np.empty((K, X.shape[1]))
    tau = np.empty((K, X.shape[1]))
    for k in range(K):
        x_new, v_new = hug_step(constraint, X[k], V[k], delta)
        sigma[k] = X[k + 1] - x_new
        tau[k] = V[k + 1] - v_new
    return sigma, tau


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


def convergence_study(
    constraint: ConstraintMap, initial: PhaseState, deltas: np.ndarray, horizon: float = 1.0
) -> ConvergenceStudy:
    """Measure one-step, two-step, and global errors for each step size.

    Steps with k * delta <= horizon (K = round(horizon / delta)) enter the
    global error; the one- and two-step errors use the same trajectories.
    """
    deltas = np.asarray(deltas, dtype=float)
    one = np.empty(len(deltas))
    two = np.empty(len(deltas))
    glob = np.empty(len(deltas))
    for i, delta in enumerate(deltas):
        K = max(2, int(round(horizon / delta)))
        times = delta * np.arange(K + 1)
        sol = reference_solve(constraint, initial, times)
        x, v = initial.x.copy(), initial.v.copy()
        errs = np.empty(K)
        for k in range(K):
            x, v = hug_step(constraint, x, v, delta)
            errs[k] = np.linalg.norm(x - sol.xs[k + 1])
        one[i] = errs[0]
        two[i] = errs[1]
        glob[i] = errs.max()
    return ConvergenceStudy(
        deltas=deltas, one_step=one, two_step=two, global_err=glob, horizon=horizon
    )
