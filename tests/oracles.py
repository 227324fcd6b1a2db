"""Analysis tools and independent routes that cross-check the library;
used only by the tests, and called by nothing in the package.

Some are the paper's analysis tools, which the proofs use and the
integrator does not: the dense derivative N' of the normal projector and its
one-sided parts (``nprime_perp``, ``nprime_par``, ``nprime``), the flow
embedded as a sign-alternating sequence (``embedded_sequence``) with the
O(delta^2) residuals it leaves in the discrete update (``step_residuals``),
power-iteration estimates of the Hessian's norm and Lipschitz constant
(``hessian_bound_estimates``), the Hessian's bilinear form H(x)[u, w] built
on the contraction (``hessian_bilinear``), and the chart map back from
reduced ellipse coordinates (``from_reduced``), with the point and unit
normal of the ellipse at an angle that it builds on (``ellipse_position``,
``ellipse_normal``).

Most of the rest reach a result the package computes another way, through
the dense n-by-n projectors N and T (``dense_projectors``), so agreement
with the package's matrix-free code is a real check rather than a tautology.
The remainder are measurements and fixtures only the tests use: a
finite-difference divergence, the per-step-size convergence loop, the
integrated extreme of a libration, the reduced derivative at a state, the
equilibria of the reduced system, the reader of the files ``write_csv``
writes (``read_csv``), an isotropic Gaussian that does not declare itself
norm-invariant (``GeneralFormulaGaussian``), so that the kernel evaluates the
general acceptance formula on it, with the log-density that formula reads,
and an affine map f(x) = B x - c whose Hessian vanishes
(``AffineConstraint``), the degenerate family of the tests that run on every
kind of map.

Eleven are earlier forms of package code that now runs another way, kept to
hold it to the same bits or bytes: the checked QR factorization through
``np.linalg.qr`` with its checks on R as numpy calls
(``normal_qr_reference``) against ``normal_qr``, the one-call step
(``step_reference``) against the step stream, the one-call rows step
(``step_rows_reference``), chained, against every step and block of the
rows stream, the trajectory that recorded its times, midpoints and levels as
it stepped (``trajectory_reference``) against the ``Trajectory`` that
derives its fields when read, the position errors read off one solve on the
union of the step-size grids (``position_errors_reference``) against
``convergence_study``, the scatter study stepped one call at a time with
each step's row norms taken by ``np.linalg.norm`` (``scatter_reference``,
its distances from ``d_max_reference``) against ``_scatter_study`` and the
per-block d_max of ``_d_max_rows``, a sampling chain written out move by
move on the one-call step (``chain_reference``) against ``run_chain``, the
CSV writer that formats each cell with ``format_cell``
(``write_csv_reference``) against ``write_csv``, the pair (Q, J^+) as
(n, m) matrices at every codimension (``build_bundle``), the matrix-form
reference on which the dense projectors, N'_perp and the split system's
field build, against the vectors ``phase_field`` forms at codimension 1,
and that pair with its column signs fixed so that diag(R) > 0
(``signed_bundle``), with the flow field that split v three times through
it (``bundle_field``), against ``phase_field``.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Sequence

import numpy as np

from hugint.constraints import ConstraintMap, checked_jacobian
from hugint.dynamics import checked_solve, phase_field, reference_solve
from hugint.ellipse import EllipseModel, ReducedState, reduced_field, reduced_orbits
from hugint.errors import DimensionError, SingularGeometryError, StudyFailedError
from hugint.experiments import ExperimentConfig, _showcase_velocity, uniform_sphere
from hugint.integrator import HugParams, PhaseState, hug_steps
from hugint.output import format_cell
from hugint.projectors import GRADIENT_FLOOR, RANK_RTOL, _gradient_norm2, normal_qr, unit_normal
from hugint.sampling import IsotropicGaussian


def dense_projectors(constraint: ConstraintMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dense n-by-n projectors (N, T) = (Q Q^T, I - Q Q^T) at x, with Q
    the normal basis of ``build_bundle``."""
    Q, _ = build_bundle(constraint, x)
    N = Q @ Q.T
    return N, np.eye(Q.shape[0]) - N


def velocity_parts(Q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v_par, v_perp) = (v - Q Q^T v, Q Q^T v) for the normal basis Q."""
    v = np.asarray(v, dtype=float)
    v_perp = Q @ (Q.T @ v)
    return v - v_perp, v_perp


def reflect(Q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the normal-space reflection (I - 2N) to v, with N = Q Q^T."""
    v = np.asarray(v, dtype=float)
    return v - 2.0 * (Q @ (Q.T @ v))


def normal_qr_reference(constraint: ConstraintMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``normal_qr`` as it ran before it called numpy's QR gufuncs itself and
    read its rank test off Python floats: the factor from ``np.linalg.qr``
    and the checks on R as numpy calls.  It must return the same Q and R bit
    for bit, or raise the same error with the same message."""
    J = checked_jacobian(constraint, x, (constraint.codim, constraint.ambient_dim))
    Q, R = np.linalg.qr(J.T, mode="reduced")
    if not np.isfinite(R).all():
        raise SingularGeometryError(x, "Jacobian is not finite")
    d = np.abs(np.diag(R))
    if d.max() == 0.0 or d.min() <= RANK_RTOL * d.max():
        raise SingularGeometryError(
            x, f"Jacobian is rank deficient: diag(R) spans {d.min():.2e}..{d.max():.2e}"
        )
    return Q, R


def build_bundle(constraint: ConstraintMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normal basis Q and the pseudoinverse J^+ at x, each (n, m): the
    matrix form of the pair that ``phase_field`` forms itself.

    At codimension 1 they are g / ||g|| and g / ||g||^2, from the
    constraint's ``gradient`` under the checks of ``unit_normal``; above
    it, Q and J^+ = Q R^{-T} come from ``normal_qr``.
    """
    x = np.asarray(x, dtype=float)
    if constraint.codim == 1:
        g = constraint.gradient(x)
        ng2 = _gradient_norm2(g, x)
        return (g / math.sqrt(ng2))[:, None], (g / ng2)[:, None]
    Q, R = normal_qr(constraint, x)
    return Q, Q @ np.linalg.inv(R).T


def signed_bundle(constraint: ConstraintMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, J^+) with Q's column signs fixed so that diag(R) > 0 and
    J^+ = Q (D R)^{-T} for the signs D; ``build_bundle`` and ``phase_field``
    leave the signs as the QR factorization does and must give the same
    J^+ and field bit for bit.  At codimension 1 it is ``build_bundle``."""
    if constraint.codim == 1:
        return build_bundle(constraint, x)
    Q, R = normal_qr_reference(constraint, np.asarray(x, dtype=float))
    signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    q = Q * signs
    return q, q @ np.linalg.inv(signs[:, None] * R).T


def bundle_field(constraint: ConstraintMap):
    """field(t, y) through :func:`signed_bundle`, splitting v three times:
    once for dx/dt, once for dv/dt and once for the tangential part of the
    N'_par term; ``phase_field`` must agree with it bit for bit."""
    n = constraint.ambient_dim

    def field(t: float, y: np.ndarray) -> np.ndarray:
        x, v = y[:n], y[n:]
        Q, pseudo = signed_bundle(constraint, x)
        dx, _ = velocity_parts(Q, v)
        v_par, v_perp = velocity_parts(Q, v)
        S = constraint.hessian_contraction(x, v_par - v_perp)
        par_term, _ = velocity_parts(Q, S.T @ (pseudo.T @ v_perp))
        perp_term = pseudo @ (S @ v_par)
        return np.concatenate([dx, par_term - perp_term])

    return field


def eliminated_step(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One step in midpoint-eliminated form; must agree with one step of ``hug_steps``.

    Uses x' = x + delta * T(y) v and v' = (I - 2 N(y)) v with
    y = x + (delta/2) v.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    Q, _ = build_bundle(constraint, x + 0.5 * delta * v)
    return x + delta * ((np.eye(x.size) - Q @ Q.T) @ v), reflect(Q, v)


def bundle_step(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One step that reflects through the (n, m) basis of :func:`signed_bundle`
    at every codimension; must agree with one step of ``hug_steps`` bit for bit.

    ``hug_steps`` reflects through the unit gradient alone at codimension 1
    and through the QR basis of :func:`~hugint.projectors.normal_qr`, with
    no sign fix, above it; this is the route it replaced at both.
    """
    v = np.asarray(v, dtype=float)
    y = x + 0.5 * delta * v
    v_new = reflect(signed_bundle(constraint, y)[0], v)
    return y + 0.5 * delta * v_new, v_new


def step_reference(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One step as one call, recomputing h v from v and taking its basis
    above codimension 1 from :func:`normal_qr_reference`; each step of
    :func:`~hugint.integrator.hug_steps` must agree with it bit for bit."""
    v = np.asarray(v, dtype=float)
    h = 0.5 * delta
    y = x + h * v
    if constraint.codim == 1:
        q = unit_normal(constraint, y)
        v_new = v - q * (2.0 * q.dot(v))
    else:
        Q, _ = normal_qr_reference(constraint, y)
        v_new = v - 2.0 * (Q @ (Q.T @ v))
    return y + h * v_new, v_new


def trajectory_reference(
    constraint: ConstraintMap, initial: PhaseState, params: HugParams
) -> dict[str, np.ndarray]:
    """A trajectory recorded eagerly, one ``value`` call per step as it is
    taken: every field of :func:`~hugint.integrator.hug_trajectory`'s
    ``Trajectory``, stored or derived, must agree with it bit for bit."""
    K = params.steps
    n = initial.x.shape[0]
    xs = np.empty((K + 1, n))
    vs = np.empty((K + 1, n))
    levels = np.empty((K + 1, constraint.codim))
    xs[0], vs[0] = initial.x, initial.v
    levels[0] = constraint.value(initial.x)
    delta = params.step_size
    stream = hug_steps(constraint, initial.x, initial.v, delta)
    for k, (x, v) in zip(range(1, K + 1), stream):
        xs[k], vs[k] = x, v
        levels[k] = constraint.value(x)
    return {
        "times": delta * np.arange(K + 1),
        "xs": xs,
        "vs": vs,
        "midpoints": xs[:-1] + 0.5 * delta * vs[:-1],
        "speeds": np.linalg.norm(vs, axis=1),
        "level_drift": np.linalg.norm(levels - levels[0], axis=1),
    }


def position_errors_reference(
    constraint: ConstraintMap, initial: PhaseState, deltas: np.ndarray, steps: list[int]
) -> list[np.ndarray]:
    """Position errors ||x_k - x(k delta)||, k = 1..K, for each step size.

    ``steps[i]`` is the step count K of ``deltas[i]``.  One reference solve
    on the union of the grids delta_i * (0, 1, ..., K_i) serves every step
    size; each one's rows are picked out of it by time.  Grids too large to
    allocate raise :class:`MemoryError` before the solve.
    :func:`~hugint.dynamics.convergence_study`'s errors must agree with these
    bit for bit.
    """
    try:
        grids = [delta * np.arange(K + 1) for delta, K in zip(deltas, steps)]
    except ValueError as exc:  # a grid beyond numpy's index range fits in no memory
        raise MemoryError(str(exc)) from exc
    union = np.unique(np.concatenate(grids))
    xs, _ = reference_solve(constraint, initial, union)
    errors = []
    for delta, grid in zip(deltas, grids):
        reference = xs[np.searchsorted(union, grid)]
        errs = np.empty(grid.size - 1)
        stream = hug_steps(constraint, initial.x, initial.v, delta)
        for k, (x, _) in zip(range(1, grid.size), stream):
            errs[k - 1] = np.linalg.norm(x - reference[k])
        errors.append(errs)
    return errors


def step_rows_reference(
    constraint: ConstraintMap, X: np.ndarray, V: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One rows step as one call, recomputing h V from V and masking the
    singular rows on every step; each step of
    :func:`~hugint.integrator.hug_steps_rows` must agree with it bit for bit,
    NaN rows included."""
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if constraint.codim != 1 or X.shape != V.shape or X.shape[1:] != (constraint.ambient_dim,):
        raise DimensionError(
            f"hug_steps_rows needs a codimension-1 map and (R, {constraint.ambient_dim}) "
            f"rows, got codim {constraint.codim} and shapes {X.shape} and {V.shape}"
        )
    h = 0.5 * delta
    Y = X + h * V
    with np.errstate(over="ignore"):  # an overflowing gradient is a NaN row, as below
        G = constraint._gradient(Y)
        gg = np.vecdot(G, G)
    gg[~(np.isfinite(gg) & (gg > GRADIENT_FLOOR))] = np.nan
    Q = G / np.sqrt(gg)[:, None]
    V_new = V - Q * (2.0 * np.vecdot(Q, V))[:, None]
    return Y + h * V_new, V_new


def d_max_reference(
    constraint: ConstraintMap, x0: np.ndarray, V: np.ndarray, delta: float, steps: int
) -> np.ndarray:
    """max_k ||x_k - x0|| over ``steps`` chained :func:`step_rows_reference`
    steps from x0 with each row of V, the running maximum kept over
    ``np.linalg.norm`` of each step's rows; ``experiments._d_max_rows``,
    which reduces once per block of the rows stream, must give the same bytes."""
    X = np.broadcast_to(x0, V.shape)
    d_max = np.zeros(len(V))
    for _ in range(steps):
        X, V = step_rows_reference(constraint, X, V, delta)
        d_max = np.maximum(d_max, np.linalg.norm(X - x0, axis=1))
    return d_max


def scatter_reference(
    constraint: ConstraintMap,
    x0: np.ndarray,
    config: ExperimentConfig,
    seed: int,
    showcase_speeds: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """``experiments._scatter_study`` with its distances from
    :func:`d_max_reference`; the study must return the same four results
    bit for bit."""
    V0 = np.array([
        uniform_sphere(np.random.default_rng(child), x0.size)
        for child in np.random.SeedSequence(seed).spawn(config.replicates)
    ])
    q = unit_normal(constraint, x0)
    v_perp = np.abs(np.vecdot(V0, q))
    showcase = [_showcase_velocity(q, x0, s) for s in showcase_speeds]
    V = np.array([*V0, *showcase])
    d_all = d_max_reference(constraint, x0, V, config.delta, config.steps)
    d_max, d_showcase = d_all[: len(V0)], d_all[len(V0):]
    failed = int(np.sum(~np.isfinite(d_max)))
    if failed == d_max.size:
        raise StudyFailedError(f"all {failed} replicates hit singular or non-finite geometry")
    return v_perp, d_max, failed, d_showcase


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


class AffineConstraint(ConstraintMap):
    """f(x) = B x - c for a full-rank m-by-n matrix B.

    Level sets are affine subspaces; the Hessian vanishes identically, so the
    tangent/normal projectors are constant.  Useful as a degenerate test case.
    """

    def __init__(self, B: np.ndarray, c: np.ndarray | None = None):
        B = np.atleast_2d(np.asarray(B, dtype=float))
        m, n = B.shape
        if m >= n:
            raise DimensionError(f"need m < n, got B of shape {B.shape}")
        if np.linalg.matrix_rank(B) < m:
            raise ValueError("B must have full row rank")
        self.B = B
        self.c = np.zeros(m) if c is None else np.asarray(c, dtype=float)
        if self.c.shape != (m,):
            raise DimensionError(f"c must have shape ({m},), got {self.c.shape}")
        self.ambient_dim = n
        self.codim = m

    def value(self, x: np.ndarray) -> np.ndarray:
        x = self.check_point(x)
        return self.B @ x - self.c

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        self.check_point(x)
        return self.B.copy()

    def hessian_contraction(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        self.check_point(x)
        return np.zeros((self.codim, self.ambient_dim))


class GeneralFormulaGaussian(IsotropicGaussian):
    """N(0, sigma^2 I) on which ``hug_kernel`` evaluates the general formula,
    with the log-density that formula reads."""

    norm_invariant = False

    def log_density(self, v: np.ndarray, x: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(
            -0.5 * (v @ v) / self.sigma**2
            - self.dim * np.log(self.sigma)
            - 0.5 * self.dim * np.log(2.0 * np.pi)
        )


def write_csv_reference(
    path: str, schema: str, header: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """The CSV writer that formats every cell with ``format_cell`` and writes
    row by row; ``write_csv``, which writes a Python float's ``repr`` itself,
    must give the same bytes."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"#schema={schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(cell) for cell in row) + "\n")


def read_csv(path: str) -> tuple[str, list[str], list[list[str]]]:
    """Read a file written by ``write_csv``; returns (schema, header, rows)."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith("#schema="):
            raise ValueError(f"{path} has no #schema= line")
        schema = first[len("#schema=") :]
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return schema, header, rows


def nprime_perp(
    constraint: ConstraintMap,
    x: np.ndarray,
    w: np.ndarray,
    slice_: np.ndarray | None = None,
) -> np.ndarray:
    """Tangent-to-normal part of the derivative of N at x along w.

    Returns the n-by-n matrix J^+ H(x)[w, .] T.  It kills normal vectors and
    maps tangent vectors into the normal space; composed with itself it
    vanishes.  Pass a precomputed ``slice_`` = H(x)[w, .] to avoid reassembly.
    T is applied as P - (P Q) Q^T with P = J^+ H(x)[w, .], without forming it.
    """
    Q, pseudo = build_bundle(constraint, x)
    if slice_ is None:
        slice_ = constraint.hessian_contraction(x, w)
    P = pseudo @ slice_
    return P - (P @ Q) @ Q.T


def nprime_par(
    constraint: ConstraintMap,
    x: np.ndarray,
    w: np.ndarray,
    slice_: np.ndarray | None = None,
) -> np.ndarray:
    """Normal-to-tangent part of the derivative of N at x along w.

    This is the transpose of :func:`nprime_perp` for the same direction.
    """
    return nprime_perp(constraint, x, w, slice_=slice_).T


def nprime(
    constraint: ConstraintMap,
    x: np.ndarray,
    w: np.ndarray,
    slice_: np.ndarray | None = None,
) -> np.ndarray:
    """Full directional derivative of the normal projector N along w."""
    P = nprime_perp(constraint, x, w, slice_=slice_)
    return P + P.T


def velocity_derivative_grouped(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """dv/dt in the grouped form (N'_par[w] - N'_perp[w]) v, w = (T - N)v.

    Assembles the full operator matrices and applies them to the whole
    velocity; algebraically identical to the dv/dt of ``phase_field``.
    """
    v = np.asarray(v, dtype=float)
    normal, tangent = dense_projectors(constraint, x)
    w = (tangent - normal) @ v
    S = constraint.hessian_contraction(x, w)
    return (
        nprime_par(constraint, x, w, slice_=S)
        - nprime_perp(constraint, x, w, slice_=S)
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
        Q, pseudo = build_bundle(constraint, x)
        tangent = np.eye(n) - Q @ Q.T
        S_par = constraint.hessian_contraction(x, v_par)
        S_perp = constraint.hessian_contraction(x, v_perp)

        def apply_par(S, u):
            return tangent @ (S.T @ (pseudo.T @ u))

        def apply_perp(S, u):
            return pseudo @ (S @ (tangent @ u))

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
    v_par, v_perp = velocity_parts(build_bundle(constraint, initial.x)[0], initial.v)
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
    xs, vs = reference_solve(constraint, initial, times)
    X = xs.copy()
    V = np.empty_like(vs)
    for k in range(steps + 1):
        v_par, v_perp = velocity_parts(build_bundle(constraint, X[k])[0], vs[k])
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
        x_new, v_new = next(hug_steps(constraint, X[k], V[k], delta))
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


def hessian_bilinear(
    constraint: ConstraintMap, x: np.ndarray, u: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """H(x)[u, w] with shape (m,), per-component u^T Hess(f_i) w, from the
    constraint's one second-derivative primitive, ``hessian_contraction``."""
    return constraint.hessian_contraction(x, w) @ np.asarray(u, dtype=float)


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

    The loop ``convergence_study`` replaced by a single solve at the step
    times of every step size; its errors must agree with the study's.
    """
    one, two, glob = [], [], []
    for delta in deltas:
        K = max(2, int(round(horizon / delta)))
        xs, _ = reference_solve(constraint, initial, delta * np.arange(K + 1))
        x, v = initial.x, initial.v
        errs = np.empty(K)
        for k in range(K):
            x, v = next(hug_steps(constraint, x, v, delta))
            errs[k] = np.linalg.norm(x - xs[k + 1])
        one.append(errs[0])
        two.append(errs[1])
        glob.append(errs.max())
    return np.array(one), np.array(two), np.array(glob)


def ellipse_position(model: EllipseModel, phi: float) -> np.ndarray:
    """x(phi) = [cos(phi)/sqrt(a), sin(phi)/sqrt(b)] on the ellipse."""
    return np.array([np.cos(phi) / np.sqrt(model.a), np.sin(phi) / np.sqrt(model.b)])


def ellipse_normal(model: EllipseModel, phi: float) -> np.ndarray:
    """n(phi) = mu^{-1/2} [sqrt(a) cos(phi), sqrt(b) sin(phi)], the outward unit normal."""
    mu = model.mu(phi)
    return np.array(
        [np.sqrt(model.a) * np.cos(phi), np.sqrt(model.b) * np.sin(phi)]
    ) / np.sqrt(mu)


def from_reduced(
    model: EllipseModel, state: ReducedState, normal_sign: float = 1.0
) -> PhaseState:
    """Map reduced coordinates back to a Cartesian (x, v).

    The reduced model only tracks the square of the normal speed;
    ``normal_sign`` selects the branch for the normal velocity component.
    """
    q = np.sqrt(max(state.speed**2 - state.p**2, 0.0))
    x = ellipse_position(model, state.phi)
    v = state.p * model.unit_tangent(state.phi) + normal_sign * q * ellipse_normal(model, state.phi)
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
    ys = reduced_orbits(model, [initial], times)[0]
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
