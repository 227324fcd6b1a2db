"""Independent routes that cross-check the library; used only by the tests.

Most reach a result the package computes another way, through the dense
n-by-n projectors that a bundle builds on request, so agreement with the
package's matrix-free code is a real check rather than a tautology.  The
rest are measurements only the tests make: a finite-difference divergence,
the per-step-size convergence loop, the integrated extreme of a libration,
the reduced derivative at a state and the equilibria of the reduced system.
"""

from __future__ import annotations

import numpy as np

from hugint.constraints import ConstraintMap
from hugint.dynamics import checked_solve, phase_field, reference_solve, split_velocity
from hugint.ellipse import EllipseModel, ReducedState, reduced_field, reduced_solve
from hugint.integrator import PhaseState, hug_step
from hugint.projectors import ProjectorBundle, build_bundle, nprime_par, nprime_perp, reflect


def eliminated_step(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One step in midpoint-eliminated form; must agree with ``hug_step``.

    Uses x' = x + delta * T(y) v and v' = (I - 2 N(y)) v with
    y = x + (delta/2) v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    bundle = build_bundle(constraint, x + 0.5 * delta * v)
    return x + delta * (bundle.tangent @ v), reflect(bundle, v)


def bundle_step(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One step that reflects through a full projector bundle at every
    codimension; must agree with ``hug_step`` bit for bit.

    ``hug_step`` reflects through the unit gradient alone at codimension 1;
    this is the route it replaced there.
    """
    v = np.asarray(v, dtype=float)
    y = x + 0.5 * delta * v
    v_new = reflect(build_bundle(constraint, y), v)
    return y + 0.5 * delta * v_new, v_new


def velocity_derivative_grouped(
    constraint: ConstraintMap, bundle: ProjectorBundle, v: np.ndarray
) -> np.ndarray:
    """dv/dt in the grouped form (N'_par[w] - N'_perp[w]) v, w = (T - N)v.

    Assembles the full operator matrices and applies them to the whole
    velocity; algebraically identical to ``velocity_derivative``.
    """
    v = np.asarray(v, dtype=float)
    w = (bundle.tangent - bundle.normal) @ v
    S = constraint.hessian_contraction(bundle.x, w)
    return (
        nprime_par(constraint, bundle, w, slice_=S)
        - nprime_perp(constraint, bundle, w, slice_=S)
    ) @ v


def component_field(constraint: ConstraintMap):
    """Return field(t, y) for the split system on y = (x, v_par, v_perp).

    dx/dt      = v_par
    dv_par/dt  = -N'_par[v_perp] v_perp - N'_perp[v_par] v_par
    dv_perp/dt =  N'_par[v_par] v_perp  + N'_perp[v_perp] v_par
    """
    n = constraint.ambient_dim

    def field(t: float, y: np.ndarray) -> np.ndarray:
        x, v_par, v_perp = y[:n], y[n : 2 * n], y[2 * n :]
        bundle = build_bundle(constraint, x)
        tangent = bundle.tangent
        S_par = constraint.hessian_contraction(x, v_par)
        S_perp = constraint.hessian_contraction(x, v_perp)

        def apply_par(S, u):
            return tangent @ (S.T @ (bundle.pseudo.T @ u))

        def apply_perp(S, u):
            return bundle.pseudo @ (S @ (tangent @ u))

        dv_par = -apply_par(S_perp, v_perp) - apply_perp(S_par, v_par)
        dv_perp = apply_par(S_par, v_perp) + apply_perp(S_perp, v_par)
        return np.concatenate([v_par, dv_par, dv_perp])

    return field


def component_solve(
    constraint: ConstraintMap, initial: PhaseState, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate the split system; returns (xs, v_par, v_perp) at the times.

    The initial velocity is split at initial.x.  Cross-checks the plain
    phase-space solve: xs must agree and v_par + v_perp must equal v.
    """
    times = np.asarray(times, dtype=float)
    n = constraint.ambient_dim
    bundle = build_bundle(constraint, initial.x)
    v_par, v_perp = split_velocity(bundle, initial.v)
    y0 = np.concatenate([initial.x, v_par, v_perp])
    ys = checked_solve(component_field(constraint), y0, times)
    return ys[:, :n], ys[:, n : 2 * n], ys[:, 2 * n :]


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


def per_delta_errors(
    constraint: ConstraintMap, initial: PhaseState, deltas: np.ndarray, horizon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(one-step, two-step, global) errors with one reference solve per step size.

    The loop ``convergence_study`` replaced by a single solve on the union
    of the grids; its errors must agree with the study's.
    """
    one, two, glob = [], [], []
    for delta in deltas:
        K = max(2, int(round(horizon / delta)))
        sol = reference_solve(constraint, initial, delta * np.arange(K + 1))
        x, v = initial.x, initial.v
        errs = np.empty(K)
        for k in range(K):
            x, v = hug_step(constraint, x, v, delta)
            errs[k] = np.linalg.norm(x - sol.xs[k + 1])
        one.append(errs[0])
        two.append(errs[1])
        glob.append(errs.max())
    return np.array(one), np.array(two), np.array(glob)


def reduced_derivative(model: EllipseModel, state: ReducedState) -> tuple[float, float]:
    """(dphi/dt, dp/dt) at a reduced state; the strip |p| <= c is enforced by
    :class:`ReducedState` itself."""
    dphi, dp = reduced_field(model, state.speed)(0.0, np.array([state.phi, state.p]))
    return float(dphi), float(dp)


def integrated_angle_extreme(
    model: EllipseModel, initial: ReducedState, t_final: float, dt: float = 1e-2
) -> float:
    """Maximum of |phi(t)| on [0, t_final] measured from an integration.

    Samples the reduced solution on a uniform grid and sharpens the sampled
    maximum with a three-point parabola fit, which recovers smooth extremes
    to far better accuracy than the grid spacing.
    """
    times = np.arange(0.0, t_final + dt, dt)
    ys = reduced_solve(model, initial, times)
    phi = np.abs(ys[:, 0])
    i = int(np.argmax(phi))
    if i == 0 or i == len(phi) - 1:
        return float(phi[i])
    y0, y1, y2 = phi[i - 1], phi[i], phi[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(y1)
    # vertex of the parabola through the three samples
    return float(y1 - 0.125 * (y2 - y0) ** 2 / denom)


def equilibria(model: EllipseModel) -> tuple[list[float], list[float]]:
    """Angles of the centers and saddles of the reduced system on [0, 2 pi).

    Equilibria sit at p = 0, sin(2 phi) = 0.  For a < b the centers are at
    phi = 0, pi (the ends of the long axis) and the saddles at pi/2, 3 pi/2;
    for a > b the roles swap.  Undefined on a circle.
    """
    if model.a == model.b:
        raise ValueError("every point with p = 0 is an equilibrium when a == b")
    axis_ends = [0.0, np.pi]
    waists = [np.pi / 2.0, 3.0 * np.pi / 2.0]
    if model.a < model.b:
        return axis_ends, waists
    return waists, axis_ends
