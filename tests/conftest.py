"""Shared helpers: representative constraint maps and random run configurations."""

from __future__ import annotations

import numpy as np

from hugint.constraints import (
    CallableConstraint,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from oracles import AffineConstraint

#: The four constraint map families: the package's three and the oracles' affine map.
MAP_KINDS = ("sphere", "quadric", "affine", "sliced")


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M @ M.T + 0.5 * np.eye(n)


def make_map(kind: str, rng: np.random.Generator):
    """One randomly parameterized instance of a built-in constraint map."""
    if kind == "sphere":
        return SphereConstraint(int(rng.integers(2, 5)))
    if kind == "quadric":
        return QuadricConstraint(random_spd(rng, int(rng.integers(2, 5))))
    if kind == "affine":
        m = int(rng.integers(1, 3))
        n = m + int(rng.integers(1, 3))
        while True:
            B = rng.standard_normal((m, n))
            if np.linalg.matrix_rank(B) == m:
                return AffineConstraint(B, rng.standard_normal(m))
    if kind == "sliced":
        return SphereSlicedConstraint(int(rng.integers(3, 5)))
    raise ValueError(f"unknown map kind {kind!r}")


def random_run(kind: str, rng: np.random.Generator):
    """(constraint, x0, v0, delta, steps) drawn safely away from singular geometry.

    ||x0|| is kept near 1 so gradient-vanishing points (the origin, for the
    quadric family) stay out of reach of the short trajectories used in tests.
    """
    constraint = make_map(kind, rng)
    n = constraint.ambient_dim
    x0 = rng.standard_normal(n)
    x0 *= rng.uniform(0.7, 1.3) / np.linalg.norm(x0)
    v0 = rng.standard_normal(n)
    v0 *= rng.uniform(0.5, 1.5) / np.linalg.norm(v0)
    delta = float(rng.uniform(0.02, 0.1))
    steps = int(rng.integers(5, 26))
    return constraint, x0, v0, delta, steps


def fenced_ellipsoid(fence: float) -> CallableConstraint:
    """The 3-D ellipsoid preset f(x) = -x^T diag(1, 4, 3) x as a callable map
    whose gradient vanishes where x_2 > fence, so that a trajectory crossing
    the fence turns singular mid-run."""
    d = np.array([1.0, 4.0, 3.0])

    def jac(x):
        return np.zeros((1, 3)) if x[1] > fence else (-2.0 * d * x)[None, :]

    return CallableConstraint(3, 1, fn=lambda x: np.array([-((d * x) @ x)]), jac=jac)
