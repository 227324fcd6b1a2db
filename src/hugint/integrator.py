"""The hugging step: a reflection-based integrator that tracks a level set.

One step of size delta from (x, v):

1. drift half a step:      y = x + (delta/2) v
2. reflect the velocity:   v' = (I - 2 N(y)) v
3. drift the other half:   x' = y + (delta/2) v'

The reflection happens in the normal space of the level set through the
midpoint y, so the step preserves ||v|| exactly and keeps x' close to the
level set of x without any projection or root-finding.  Eliminating the
midpoint gives the algebraically equivalent update

    x' = x + delta * T(y) v,    v' = (I - 2 N(y)) v.

The reflection needs only an orthonormal basis Q of the normal space,
N(y) v = Q (Q^T v), so beyond the constraint's own Jacobian a step costs
O(n m) for n ambient dimensions and m constraints and builds no projector
bundle.  At codimension 1 the basis is the unit gradient q, from the
constraint's ``gradient``, and v' = v - 2 (q . v) q.  Above it Q is the thin
QR basis of J^T with no sign fix: flipping a column of Q negates (Q^T v)_j
exactly and the product with Q undoes that exactly, so v' has the bundle's bits.

:func:`hug_steps` is the step, written once as a stream that yields
(x_k, v_k) for k = 1, 2, ...: it converts v and picks the codimension branch
once, and carries h v_k from the end of step k, x_k = y + h v_k, to the start
of step k + 1, y = x_k + h v_k.  :func:`hug_step` is its first step.
:func:`hug_trajectory` takes K steps from the stream and records positions,
velocities, midpoints and levels for analysis; the Metropolis kernel in
:mod:`hugint.sampling` takes K too but keeps only the final state.
:func:`hug_step_rows` is the same codim-1 step on each row of a stack of
states, with each row's bits those of :func:`hug_step` however many rows
share the stack; the replicated studies step their replicates with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .constraints import ConstraintMap
from .errors import DimensionError
from .projectors import GRADIENT_FLOOR, normal_qr, unit_normal


@dataclass(frozen=True)
class PhaseState:
    """A position/velocity pair."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape or self.x.ndim != 1:
            raise ValueError(
                f"x and v must be 1-d arrays of equal shape, got {self.x.shape} and {self.v.shape}"
            )


@dataclass(frozen=True)
class HugParams:
    """Step size and step count for a trajectory.

    ``steps == 0`` is allowed and yields a trajectory holding only the
    initial state.
    """

    step_size: float
    steps: int

    def __post_init__(self):
        if not (self.step_size > 0.0 and np.isfinite(self.step_size)):
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")


@dataclass(frozen=True)
class Trajectory:
    """A discrete trajectory with per-step diagnostics.

    Attributes
    ----------
    times:
        Step times k * delta, shape (K+1,).
    xs, vs:
        Positions and velocities, shape (K+1, n).
    midpoints:
        Halfway points x_k + (delta/2) v_k, shape (K, n).
    levels:
        Constraint values f(x_k), shape (K+1, m).
    params:
        The parameters the trajectory was generated with.
    """

    times: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    midpoints: np.ndarray
    levels: np.ndarray
    params: HugParams

    @property
    def speeds(self) -> np.ndarray:
        """||v_k|| for each step, shape (K+1,)."""
        return np.linalg.norm(self.vs, axis=1)

    @property
    def level_drift(self) -> np.ndarray:
        """||f(x_k) - f(x_0)|| for each step, shape (K+1,)."""
        return np.linalg.norm(self.levels - self.levels[0], axis=1)

    def state(self, k: int) -> PhaseState:
        return PhaseState(self.xs[k], self.vs[k])

    @property
    def final(self) -> PhaseState:
        return self.state(len(self.times) - 1)


def hug_steps(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Steps of size delta from (x, v): yields (x_k, v_k) for k = 1, 2, ...

    Take K steps with ``zip(range(K), stream)`` or ``islice(stream, K)``:
    either stops before asking for step K + 1, which may raise.  Each
    midpoint is validated as it is reached, by :func:`unit_normal` at
    codimension 1 and by :func:`normal_qr` above it, so a singular midpoint
    at step j raises :class:`~hugint.errors.SingularGeometryError` out of the
    j-th ``next``.  Step k has the bits of k chained one-step calls.
    """
    v = np.asarray(v, dtype=float)
    h = 0.5 * delta
    hv = h * v
    if constraint.codim == 1:
        while True:
            y = x + hv
            q = unit_normal(constraint, y)
            v = v - q * (2.0 * q.dot(v))
            hv = h * v
            x = y + hv
            yield x, v
    while True:
        y = x + hv
        Q, _ = normal_qr(constraint, y)
        v = v - 2.0 * (Q @ (Q.T @ v))
        hv = h * v
        x = y + hv
        yield x, v


def hug_step(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (x, v) by one step of size delta; returns (x', v').

    The first step of :func:`hug_steps`; the replicated studies step with
    its rows form, :func:`hug_step_rows`.
    """
    return next(hug_steps(constraint, x, v, delta))


def hug_step_rows(
    constraint: ConstraintMap, X: np.ndarray, V: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hug_step` on each row of X and V, shape (R, n), at codimension 1.

    Each row's result has the bits of :func:`hug_step` on that row alone:
    the gradients come from the constraint's ``gradient_rows`` and the row
    dots from ``np.vecdot``, neither of which mixes rows.  A row whose
    gradient is not finite or vanishes, where :func:`hug_step` would raise
    :class:`~hugint.errors.SingularGeometryError`, turns NaN without a
    warning and stays NaN; the other rows carry on.
    """
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if constraint.codim != 1 or X.shape != V.shape or X.shape[1:] != (constraint.ambient_dim,):
        raise DimensionError(
            f"hug_step_rows needs a codimension-1 map and (R, {constraint.ambient_dim}) "
            f"rows, got codim {constraint.codim} and shapes {X.shape} and {V.shape}"
        )
    h = 0.5 * delta
    Y = X + h * V
    with np.errstate(over="ignore"):  # an overflowing gradient is a NaN row, as below
        G = constraint.gradient_rows(Y)
        gg = np.vecdot(G, G)
    gg[~(np.isfinite(gg) & (gg > GRADIENT_FLOOR))] = np.nan
    Q = G / np.sqrt(gg)[:, None]
    V_new = V - Q * (2.0 * np.vecdot(Q, V))[:, None]
    return Y + h * V_new, V_new


def hug_trajectory(
    constraint: ConstraintMap, initial: PhaseState, params: HugParams
) -> Trajectory:
    """Run ``params.steps`` steps from ``initial`` and record diagnostics."""
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
    return Trajectory(
        times=delta * np.arange(K + 1),
        xs=xs,
        vs=vs,
        midpoints=xs[:-1] + 0.5 * delta * vs[:-1],
        levels=levels,
        params=params,
    )


def level_drift_bound(
    delta: float, steps: int, speed: float, beta: float, gamma: float
) -> float:
    """A priori bound on ||f(x_K) - f(x_0)|| for a trajectory of K steps.

    Requires a bound beta on the Hessian operator norm of the constraint over
    the region visited and a Lipschitz constant gamma for the Hessian there:

        (delta^2 / 12) * speed^2 * (3 beta + gamma (K - 1) delta * speed)

    For steps == 0 the drift is identically zero and so is the bound.
    """
    if steps == 0:
        return 0.0
    return (delta**2 / 12.0) * speed**2 * (3.0 * beta + gamma * (steps - 1) * delta * speed)
