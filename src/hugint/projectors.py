"""Normal-space geometry of a level set: the normal basis and projector bundles.

For a constraint map f with full-rank Jacobian J(x), the normal space of the
level set through x is the row space of J.  With the Moore-Penrose
pseudoinverse J^+ = J^T (J J^T)^{-1}, the orthogonal projector onto the
normal space is N = J^+ J and the tangential projector is T = I - N.

The hug step reflects through an orthonormal basis Q of the normal space
alone, from :func:`unit_normal` at codimension 1 and above it from
:func:`normal_qr`, the checked thin QR factorization J^T = Q R.  A bundle
serves the flow field: it stores x, Q and J^+ (n-by-m each), from
:func:`normal_qr` with the column signs fixed so that diag(R) > 0 and
J^+ = Q R^{-T}, or at codimension 1 from the ``gradient`` g, as
Q = g / ||g|| (the vector of :func:`unit_normal`) and J^+ = g / ||g||^2.
The projectors N = Q Q^T and T = I - Q Q^T are applied matrix-free, as
v -> Q (Q^T v) and v -> v - Q (Q^T v), at O(n m) cost; the dense n-by-n
matrices are formed only on request, for analysis.  The dense derivative
of N and the reflection through a bundle are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintMap, checked_jacobian
from .errors import SingularGeometryError

#: Relative tolerance on the diagonal of R for declaring J rank deficient.
RANK_RTOL = 1e-10

#: Floor on ||grad f||^2 below which a single constraint's gradient counts as vanishing.
GRADIENT_FLOOR = float(np.sqrt(np.finfo(float).tiny))


@dataclass(frozen=True)
class ProjectorBundle:
    """Normal-space data shared by integrator steps and field evaluations at one point.

    Attributes
    ----------
    x:
        Base point, shape (n,).
    basis:
        Orthonormal basis Q of the normal space, shape (n, m).
    pseudo:
        Pseudoinverse J^+ = J^T (J J^T)^{-1}, shape (n, m).
    """

    x: np.ndarray
    basis: np.ndarray
    pseudo: np.ndarray

    @property
    def normal(self) -> np.ndarray:
        """Dense projector N = Q Q^T onto the normal space, built on each access."""
        return self.basis @ self.basis.T

    @property
    def tangent(self) -> np.ndarray:
        """Dense projector T = I - Q Q^T onto the tangent space, built on each access."""
        return np.eye(self.x.size) - self.basis @ self.basis.T


def _gradient_norm2(g: np.ndarray, x: np.ndarray) -> float:
    """g . g for a single gradient g, else :class:`SingularGeometryError`."""
    ng2 = float(np.vdot(g, g))  # the bits of g @ g; overflows to inf without a warning
    if not math.isfinite(ng2):
        raise SingularGeometryError(x, "gradient is not finite")
    if ng2 <= GRADIENT_FLOOR:
        raise SingularGeometryError(x, "gradient vanishes")
    return ng2


def unit_normal(constraint: ConstraintMap, x: np.ndarray) -> np.ndarray:
    """Unit gradient g / ||g||, shape (n,), of a codimension-1 constraint at x,
    with g from the constraint's ``gradient``: by construction the m = 1
    basis of :func:`build_bundle`, which makes the same calls."""
    g = constraint.gradient(x)
    return g / math.sqrt(_gradient_norm2(g, x))


def normal_qr(constraint: ConstraintMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked thin QR J^T = Q R of the (m, n) Jacobian at x, with Q's column
    signs as the factorization leaves them; raises as :func:`build_bundle` does."""
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


def build_bundle(constraint: ConstraintMap, x: np.ndarray) -> ProjectorBundle:
    """Assemble the bundle of x, Q and J^+ at x for the flow field; stores O(n m) numbers.

    At codimension 1, Q and J^+ come from the constraint's ``gradient`` under
    the checks of :func:`unit_normal`; above it, from :func:`normal_qr`, with
    the signs fixed so that diag(R) > 0.  The point is validated once, by
    ``gradient`` or ``jacobian``.

    Raises
    ------
    DimensionError
        If x, the gradient or the Jacobian has the wrong shape.
    SingularGeometryError
        If the gradient vanishes, the Jacobian is rank deficient, or either is not finite.
    """
    x = np.asarray(x, dtype=float)
    if constraint.codim == 1:
        # Single constraint: the QR factorization collapses to a normalization.
        g = constraint.gradient(x)
        ng2 = _gradient_norm2(g, x)
        q = (g / math.sqrt(ng2))[:, None]
        pseudo = (g / ng2)[:, None]
    else:
        Q, R = normal_qr(constraint, x)
        # Fix the sign ambiguity so diag(R) > 0 and the factors are unique.
        signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
        q = Q * signs
        pseudo = q @ np.linalg.inv(signs[:, None] * R).T  # R is m-by-m with m small

    return ProjectorBundle(x=x, basis=q, pseudo=pseudo)
