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
O(n m) for n ambient dimensions and m constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintMap
from .projectors import build_bundle, reflect


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


def hug_step(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (x, v) by one step of size delta; returns (x', v')."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    y = x + 0.5 * delta * v
    v_new = reflect(build_bundle(constraint, y), v)
    return y + 0.5 * delta * v_new, v_new


def hug_trajectory(
    constraint: ConstraintMap, initial: PhaseState, params: HugParams
) -> Trajectory:
    """Run ``params.steps`` steps from ``initial`` and record diagnostics."""
    K = params.steps
    n = initial.x.shape[0]
    xs = np.empty((K + 1, n))
    vs = np.empty((K + 1, n))
    midpoints = np.empty((K, n))
    levels = np.empty((K + 1, constraint.codim))
    xs[0], vs[0] = initial.x, initial.v
    levels[0] = constraint.value(initial.x)
    delta = params.step_size
    for k in range(K):
        midpoints[k] = xs[k] + 0.5 * delta * vs[k]
        vs[k + 1] = reflect(build_bundle(constraint, midpoints[k]), vs[k])
        xs[k + 1] = midpoints[k] + 0.5 * delta * vs[k + 1]
        levels[k + 1] = constraint.value(xs[k + 1])
    times = delta * np.arange(K + 1)
    return Trajectory(
        times=times, xs=xs, vs=vs, midpoints=midpoints, levels=levels, params=params
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
