"""Independent routes that cross-check the library; used only by the tests.

Each one reaches a result the package computes another way, through the
dense n-by-n projectors that a bundle builds on request, so agreement with
the package's matrix-free code is a real check rather than a tautology.
"""

from __future__ import annotations

import numpy as np

from hugint.constraints import ConstraintMap
from hugint.dynamics import checked_solve, split_velocity
from hugint.integrator import PhaseState
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
