"""Analysis tools and independent routes that cross-check the library;
used only by the tests, and called by nothing in the package.

Some are the paper's analysis tools, which the proofs use and the
integrator does not: the dense derivative N' of the normal projector and its
one-sided parts (``nprime_perp``, ``nprime_par``, ``nprime``), the flow
embedded as a sign-alternating sequence (``embedded_sequence``) with the
O(delta^2) residuals it leaves in the discrete update (``step_residuals``),
power-iteration estimates of the Hessian's norm and Lipschitz constant
(``hessian_bound_estimates``), and the chart map back from reduced ellipse
coordinates (``from_reduced``).

Most of the rest reach a result the package computes another way, through
the dense n-by-n projectors that a bundle builds on request, so agreement
with the package's matrix-free code is a real check rather than a tautology.
The remainder are measurements only the tests make: a finite-difference
divergence, the per-step-size convergence loop, the integrated extreme of a
libration, the reduced derivative at a state and the equilibria of the
reduced system.

Three are earlier forms of package code that now runs another way, kept to
hold it to the same bits or bytes: the one-call step (``step_reference``)
against the step stream, a sampling chain written out move by move on it
(``chain_reference``) against ``run_chain``, and the cell-by-cell CSV writer
(``write_csv_reference``) against ``write_csv``.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence

import numpy as np

from hugint.constraints import ConstraintMap
from hugint.dynamics import checked_solve, phase_field, reference_solve, split_velocity
from hugint.ellipse import EllipseModel, ReducedState, reduced_field, reduced_solve
from hugint.errors import SingularGeometryError
from hugint.integrator import HugParams, PhaseState, hug_step
from hugint.projectors import ProjectorBundle, build_bundle, normal_qr, unit_normal


def reflect(bundle: ProjectorBundle, v: np.ndarray) -> np.ndarray:
    """Apply the normal-space reflection (I - 2N) to v."""
    v = np.asarray(v, dtype=float)
    return v - 2.0 * (bundle.basis @ (bundle.basis.T @ v))


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

    ``hug_step`` reflects through the unit gradient alone at codimension 1
    and through the QR basis of :func:`~hugint.projectors.normal_qr`, with
    no sign fix, above it; this is the route it replaced at both.
    """
    v = np.asarray(v, dtype=float)
    y = x + 0.5 * delta * v
    v_new = reflect(build_bundle(constraint, y), v)
    return y + 0.5 * delta * v_new, v_new


def step_reference(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One step as one call, recomputing h v from v; each step of
    :func:`~hugint.integrator.hug_steps` must agree with it bit for bit."""
    v = np.asarray(v, dtype=float)
    h = 0.5 * delta
    y = x + h * v
    if constraint.codim == 1:
        q = unit_normal(constraint, y)
        v_new = v - q * (2.0 * q.dot(v))
    else:
        Q, _ = normal_qr(constraint, y)
        v_new = v - 2.0 * (Q @ (Q.T @ v))
    return y + h * v_new, v_new


def chain_reference(
    target: ConstraintMap,
    initial_x: np.ndarray,
    params: HugParams,
    sigma: float,
    rng: np.random.Generator,
    iterations: int,
    walk_scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int]:
    """``run_chain`` with an isotropic velocity of scale sigma, written out
    move by move on :func:`step_reference`; returns (states, hug_accepted,
    walk_accepted, singular_rejections).  It draws as the kernels do: the
    velocity, K steps, the hug uniform, then the walk's normal and uniform.
    """
    x = np.asarray(initial_x, dtype=float)
    ell = float(target.value(x)[0])
    states, hug_accepted, walk_accepted, singular = [x], [], [], 0
    for _ in range(iterations):
        x_k, v_k = x, sigma * rng.standard_normal(x.size)
        try:
            for _ in range(params.steps):
                x_k, v_k = step_reference(target, x_k, v_k, params.step_size)
        except SingularGeometryError:
            singular += 1
            hug_accepted.append(False)
        else:
            ell_k = float(target.value(x_k)[0])
            hug_accepted.append(bool(np.log(rng.uniform()) < ell_k - ell))
            if hug_accepted[-1]:
                x, ell = x_k, ell_k
        if walk_scale is not None:
            proposal = x + walk_scale * rng.standard_normal(x.shape)
            ell_p = float(target.value(proposal)[0])
            walk_accepted.append(bool(np.log(rng.uniform()) < ell_p - ell))
            if walk_accepted[-1]:
                x, ell = proposal, ell_p
        states.append(x)
    walk = np.array(walk_accepted, dtype=bool) if walk_scale is not None else None
    return np.array(states), np.array(hug_accepted, dtype=bool), walk, singular


def format_cell_reference(value) -> str:
    """Deterministic text form for a CSV cell, decided cell by cell."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def write_csv_reference(
    path: str, schema: str, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """The CSV writer that formats every cell with :func:`format_cell_reference`
    and writes row by row; ``write_csv`` must give the same bytes."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"#schema={schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell_reference(cell) for cell in row) + "\n")


def nprime_perp(
    constraint: ConstraintMap,
    bundle: ProjectorBundle,
    w: np.ndarray,
    slice_: np.ndarray | None = None,
) -> np.ndarray:
    """Tangent-to-normal part of the derivative of N at bundle.x along w.

    Returns the n-by-n matrix J^+ H(x)[w, .] T.  It kills normal vectors and
    maps tangent vectors into the normal space; composed with itself it
    vanishes.  Pass a precomputed ``slice_`` = H(x)[w, .] to avoid reassembly.
    T is applied as P - (P Q) Q^T with P = J^+ H(x)[w, .], without forming it.
    """
    if slice_ is None:
        slice_ = constraint.hessian_contraction(bundle.x, w)
    P = bundle.pseudo @ slice_
    return P - (P @ bundle.basis) @ bundle.basis.T


def nprime_par(
    constraint: ConstraintMap,
    bundle: ProjectorBundle,
    w: np.ndarray,
    slice_: np.ndarray | None = None,
) -> np.ndarray:
    """Normal-to-tangent part of the derivative of N at bundle.x along w.

    This is the transpose of :func:`nprime_perp` for the same direction.
    """
    return nprime_perp(constraint, bundle, w, slice_=slice_).T


def nprime(
    constraint: ConstraintMap,
    bundle: ProjectorBundle,
    w: np.ndarray,
    slice_: np.ndarray | None = None,
) -> np.ndarray:
    """Full directional derivative of the normal projector N along w."""
    P = nprime_perp(constraint, bundle, w, slice_=slice_)
    return P + P.T


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


def hessian_bound_estimates(
    constraint: ConstraintMap,
    points: np.ndarray,
    n_probes: int = 8,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate (beta, gamma): a bound on ||H(x)|| over the given points and a
    Lipschitz constant for x -> H(x) between consecutive points.

    The operator norm of the bilinear map is estimated by alternating power
    iteration over unit vectors u, w from several random starts, taking each
    gradient through the contraction C(w) = H(x)[w, .]; gamma is estimated
    from difference quotients of the same contractions between consecutive
    points.  Estimates are lower bounds by construction, so callers should
    apply a safety factor.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rng = np.random.default_rng(seed)
    n = constraint.ambient_dim

    def op_norm(contract: Callable[[np.ndarray], np.ndarray]) -> float:
        best = 0.0
        for _ in range(n_probes):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            w = rng.standard_normal(n)
            w /= np.linalg.norm(w)
            for _ in range(20):
                # maximize ||H[u, w]|| over u with w fixed, then swap roles
                C = contract(w)
                y = C @ u
                if np.linalg.norm(y) == 0.0:
                    break
                grad_u = C.T @ y
                nu = np.linalg.norm(grad_u)
                if nu == 0.0:
                    break
                u = grad_u / nu
                C = contract(u)
                grad_w = C.T @ (C @ w)
                nw = np.linalg.norm(grad_w)
                if nw == 0.0:
                    break
                w = grad_w / nw
            best = max(best, float(np.linalg.norm(contract(w) @ u)))
        return best

    beta = 0.0
    for x in points:
        beta = max(beta, op_norm(lambda w, x=x: constraint.hessian_contraction(x, w)))

    gamma = 0.0
    for xa, xb in zip(points[:-1], points[1:]):
        d = float(np.linalg.norm(xb - xa))
        if d < 1e-14:
            continue
        diff = op_norm(
            lambda w, xa=xa, xb=xb: constraint.hessian_contraction(xb, w)
            - constraint.hessian_contraction(xa, w)
        )
        gamma = max(gamma, diff / d)

    return beta, gamma


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


def from_reduced(
    model: EllipseModel, state: ReducedState, normal_sign: float = 1.0
) -> PhaseState:
    """Map reduced coordinates back to a Cartesian (x, v).

    The reduced model only tracks the square of the normal speed;
    ``normal_sign`` selects the branch for the normal velocity component.
    """
    q = np.sqrt(max(state.speed**2 - state.p**2, 0.0))
    x = model.position(state.phi)
    v = state.p * model.unit_tangent(state.phi) + normal_sign * q * model.unit_normal(state.phi)
    return PhaseState(x, v)


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
