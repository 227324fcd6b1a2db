"""Normal-space geometry of a level set and the derivative of its projector.

For a constraint map f with full-rank Jacobian J(x), the normal space of the
level set through x is the row space of J.  With the Moore-Penrose
pseudoinverse J^+ = J^T (J J^T)^{-1}, the orthogonal projector onto the
normal space is N = J^+ J and the tangential projector is T = I - N.

Everything here is built from one thin QR factorization J^T = Q R per point,
and a bundle stores only its two n-by-m factors: the orthonormal basis Q of
the normal space and J^+ = Q R^{-T}.  The projectors N = Q Q^T and
T = I - Q Q^T are applied matrix-free, as v -> Q (Q^T v) and
v -> v - Q (Q^T v), at O(n m) cost; the dense n-by-n matrices are
formed only on request, for analysis.  The directional derivative of
N along a vector w splits into two one-sided parts,

    N'_perp(x)[w] = J^+ H(x)[w, .] T        (maps tangent -> normal)
    N'_par(x)[w]  = (N'_perp(x)[w])^T       (maps normal -> tangent)

whose sum is the full derivative; H(x)[w, .] is the m-by-n matrix of Hessian
contractions.  These operators drive the continuous-time dynamics that the
discrete integrator shadows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintMap
from .errors import SingularGeometryError

#: Relative tolerance on the diagonal of R for declaring J rank deficient.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ProjectorBundle:
    """Normal-space data shared by integrator steps and field evaluations at one point.

    Attributes
    ----------
    x:
        Base point, shape (n,).
    jac:
        Constraint Jacobian J(x), shape (m, n).
    basis:
        Orthonormal basis Q of the normal space, shape (n, m).
    pseudo:
        Pseudoinverse J^+ = J^T (J J^T)^{-1}, shape (n, m).
    """

    x: np.ndarray
    jac: np.ndarray
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


def build_bundle(constraint: ConstraintMap, x: np.ndarray) -> ProjectorBundle:
    """Factor the Jacobian at x and assemble the bundle; stores O(n m) numbers.

    Raises
    ------
    SingularGeometryError
        If the Jacobian is (numerically) rank deficient at x.
    """
    x = constraint.check_point(x)
    J = np.atleast_2d(np.asarray(constraint.jacobian(x), dtype=float))
    m = J.shape[0]

    if m == 1:
        # Single constraint: the QR factorization collapses to a normalization.
        g = J[0]
        ng2 = float(g @ g)
        if not np.isfinite(ng2) or ng2 <= np.sqrt(np.finfo(float).tiny):
            raise SingularGeometryError(x, "gradient vanishes")
        q = (g / np.sqrt(ng2))[:, None]
        pseudo = (g / ng2)[:, None]
    else:
        Q, R = np.linalg.qr(J.T, mode="reduced")
        # Fix the sign ambiguity so diag(R) > 0 and the factors are unique.
        signs = np.where(np.diag(R) < 0.0, -1.0, 1.0)
        Q = Q * signs
        R = signs[:, None] * R
        if not np.isfinite(R).all():
            raise SingularGeometryError(x, "Jacobian is not finite")
        d = np.abs(np.diag(R))
        if d.max() == 0.0 or d.min() <= RANK_RTOL * d.max():
            raise SingularGeometryError(x, f"diag(R) spans {d.min():.2e}..{d.max():.2e}")
        q = Q
        pseudo = Q @ np.linalg.inv(R).T  # R is m-by-m with m small

    return ProjectorBundle(x=x, jac=J, basis=q, pseudo=pseudo)


def reflect(bundle: ProjectorBundle, v: np.ndarray) -> np.ndarray:
    """Apply the normal-space reflection (I - 2N) to v."""
    v = np.asarray(v, dtype=float)
    return v - 2.0 * (bundle.basis @ (bundle.basis.T @ v))


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
    if slice_ is None:
        slice_ = constraint.hessian_contraction(bundle.x, w)
    P = nprime_perp(constraint, bundle, w, slice_=slice_)
    return P + P.T
