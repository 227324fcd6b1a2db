"""Constraint maps whose level sets the integrator moves on.

A constraint map is a smooth ``f: R^n -> R^m`` (m < n) whose regular level
sets are embedded manifolds of dimension ``n - m``.  The integrator only ever
queries four things: the value ``f(x)``, the Jacobian ``J(x)`` (rows are
gradients of the components), the gradient ``grad f(x)`` of a codimension-1
map (row 0 of ``J(x)``, which the codim-1 step reflects through), and the
Hessian contraction ``H(x)[w, .]``, the m-by-n matrix whose row i is
``w^T Hess(f_i)``, the one second-derivative primitive.  The gradient also
has a private unchecked form, ``_gradient``, the one hook both step streams
read: at a point whose shape the caller has checked already, a midpoint of
the step, and at each row of a stack of such points, for the rows step,
each row with the bits of ``gradient`` at that point.
Subclasses may supply analytic derivatives, as the quadrics do (in O(n) for
a diagonal A, the sphere's among them); the base class falls back to central
finite differences, accurate enough for exploratory work, not for tight
tolerances.  The bilinear form ``H(x)[u, w]`` built on the contraction and
estimates of a map's Hessian norm along a path are test oracles
(``tests/oracles.py``); a quadric knows its exact bound.  The dots that must
overflow to inf without a warning, as ``@`` and ``ndarray.dot`` do not, call
``np.vdot``'s C function ``_vdot`` directly: the same bits, without the
``__array_function__`` dispatch that is about a third of a 2-vector's ``np.vdot``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError

_vdot = np.vdot._implementation  # numpy's C vdot, the builtin np.vdot dispatches to


def _fd_step(x: np.ndarray) -> float:
    return 1e-5 * max(1.0, float(np.linalg.norm(x)))


def checked_jacobian(constraint: ConstraintMap, x: np.ndarray, shape: tuple) -> np.ndarray:
    """J(x) as a float array of the given shape (m, n), else :class:`DimensionError`."""
    J = constraint.jacobian(x)  # every constraint map checks the shape of x here
    if type(J) is not np.ndarray or J.dtype != np.float64 or J.ndim != 2:
        J = np.atleast_2d(np.asarray(J, dtype=float))
    if J.shape != shape or x.shape != shape[1:]:
        raise DimensionError(
            f"Jacobian of shape {J.shape} at a point of shape {x.shape}, expected {shape}"
        )
    return J


class ConstraintMap:
    """Base class for constraint maps f: R^n -> R^m.

    Attributes
    ----------
    ambient_dim:
        Dimension n of the ambient space.
    codim:
        Number m of constraint components (the codimension of a regular
        level set).
    """

    ambient_dim: int
    codim: int

    def value(self, x: np.ndarray) -> np.ndarray:
        """Return f(x) with shape (m,)."""
        raise NotImplementedError

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Return the m-by-n Jacobian at x; rows are component gradients.

        The default implementation uses central finite differences of
        :meth:`value`.
        """
        x = self.check_point(x)
        h = _fd_step(x)
        J = np.empty((self.codim, self.ambient_dim))
        for j in range(self.ambient_dim):
            e = np.zeros(self.ambient_dim)
            e[j] = h
            J[:, j] = (self.value(x + e) - self.value(x - e)) / (2.0 * h)
        return J

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Return grad f(x) with shape (n,) for a codimension-1 map.

        The default is row 0 of :meth:`jacobian`.  A Jacobian that is not
        of shape (1, n), as for a map with m > 1 components, or a point of
        the wrong shape raises :class:`DimensionError`.
        """
        x = np.asarray(x, dtype=float)
        return checked_jacobian(self, x, (1, self.ambient_dim))[0]

    def _gradient(self, y: np.ndarray) -> np.ndarray:
        """:meth:`gradient` at a float point y of shape (n,), or at each row
        of float rows y of shape (R, n), that the caller has checked already:
        both codimension-1 streams read their midpoints through it, so that a
        stream checks its start once, not every step.  Each row has the bits
        of :meth:`gradient` at that row alone.  The rows stream passes NaN rows,
        and a failed row's unmasked values until its block of steps ends.

        The default calls :meth:`gradient`, checks and all, on a point and on
        each row.  A map may override it with its bare closed form; a quadric
        binds its own only where its class overrides neither this hook nor
        :meth:`gradient`, so both streams call a subclass's own ``gradient``.
        """
        if y.ndim == 1:
            return self.gradient(y)
        return np.array([self.gradient(x) for x in y]).reshape(len(y), self.ambient_dim)

    def hessian_contraction(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Return the m-by-n matrix H(x)[w, .]: entry (i, j) is w^T Hess(f_i) e_j.

        The default is one central difference of :meth:`jacobian` along w;
        subclasses override it with a closed form where available because it
        sits in the inner loop of field evaluations.
        """
        x = self.check_point(x)
        w = self.check_point(w)
        h = _fd_step(x)
        return (self.jacobian(x + h * w) - self.jacobian(x - h * w)) / (2.0 * h)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        """Validate shape and return x as a float array."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise DimensionError(
                f"expected point of shape ({self.ambient_dim},), got {x.shape}"
            )
        return x


class QuadricConstraint(ConstraintMap):
    """f(x) = -x^T A x for finite, symmetric, positive definite A (codimension 1).

    Level sets f = -c (c > 0) are ellipsoids.  All derivatives are analytic:
    grad f = -2 A x and the Hessian is the constant matrix -2 A, formed once.
    A diagonal A is kept as its diagonal d, and every map is elementwise, O(n),
    with the bits of the dense products (whose extra terms are exact zeros)
    but for a zero's sign: -2 d x reads -0.0 at a +0.0 coordinate, gemv +0.0.
    A form too large for a float reads f = -inf, without a warning, as long as
    A x itself stays finite.  At a point with an inf coordinate the dense
    products meet 0 * inf and read NaN where the elementwise ones read inf;
    neither warns, so the gradient is not finite and f is not either.
    """

    def __init__(self, A: np.ndarray):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        if not np.allclose(A, A.T):
            raise ValueError("A must be symmetric")
        d = np.diagonal(A)
        diagonal = np.count_nonzero(A) == np.count_nonzero(d)  # no non-zero off the diagonal
        eigenvalues = d if diagonal else np.linalg.eigvalsh(A)
        if np.any(eigenvalues <= 0.0):
            raise ValueError("A must be positive definite")
        self.A = A
        self._keep(d if diagonal else A, eigenvalues.max())

    def _keep(self, form: np.ndarray, top_eigenvalue: float) -> None:
        """Keep A, or the diagonal d of a diagonal A, and the products that apply it."""
        self.ambient_dim, self.codim = len(form), 1
        self._form, self._hessian = form, -2.0 * form
        diagonal = form.ndim == 1
        quiet = np.errstate(invalid="ignore")  # a dense 0 * inf is a NaN, not a warning
        self._product = np.multiply if diagonal else quiet(np.ndarray.dot)
        self._rows = np.multiply if diagonal else quiet(np.matvec)
        self._norm_bound = 2.0 * float(top_eigenvalue)
        cls = type(self)  # a subclass's own ``gradient`` reaches both streams by the default hook
        if cls.gradient is QuadricConstraint.gradient and cls._gradient is ConstraintMap._gradient:
            self._gradient = functools.partial(self._rows, self._hessian)  # a point or row by row

    def value(self, x: np.ndarray) -> np.ndarray:
        x = self.check_point(x)
        # the bits of -x @ A @ x; unlike ``@``, vdot overflows without a warning
        return np.array([-_vdot(self._product(x, self._form), x)])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        # not ``self._gradient``, which in a subclass may call ``gradient``
        return self._rows(self._hessian, self.check_point(x))

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.gradient(x)[None, :]

    def hessian_contraction(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        self.check_point(x)
        return self._rows(self._hessian, self.check_point(w))[None, :]

    def hessian_norm_bound(self) -> float:
        """Exact operator norm of the (constant) Hessian: 2 * lambda_max(A)."""
        return self._norm_bound


class SphereConstraint(QuadricConstraint):
    """f(x) = -x^T x; level set f = -r^2 is the sphere of radius r.

    The quadric with A = I, kept as its diagonal d = 1, so every map is the
    diagonal quadric's closed form.  The matrix ``A`` is built only when read.
    """

    def __init__(self, ambient_dim: int):
        if ambient_dim < 1:
            raise ValueError(f"ambient_dim must be >= 1, got {ambient_dim}")
        self._keep(np.ones(ambient_dim), 1.0)

    @functools.cached_property
    def A(self) -> np.ndarray:
        return np.eye(self.ambient_dim)


class SphereSlicedConstraint(ConstraintMap):
    """Codimension-2 map on R^n (n >= 3): a sphere sliced by a wavy sheet.

    f_1(x) = -x^T x
    f_2(x) = sin(x_1) + x_2^2 - x_3

    Both components have simple analytic derivatives, and the intersection of
    their regular level sets is an (n-2)-manifold.  Used to exercise the
    m > 1 code paths.
    """

    def __init__(self, ambient_dim: int):
        if ambient_dim < 3:
            raise DimensionError("need ambient_dim >= 3")
        self.ambient_dim = ambient_dim
        self.codim = 2

    def value(self, x: np.ndarray) -> np.ndarray:
        x = self.check_point(x)
        return np.array([-_vdot(x, x), np.sin(x[0]) + x[1] ** 2 - x[2]])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        x = self.check_point(x)
        J = np.zeros((2, self.ambient_dim))
        np.multiply(x, -2.0, out=J[0])  # the bits of -2.0 * x, without a temporary
        J[1, 0] = np.cos(x[0])
        J[1, 1] = 2.0 * x[1]
        J[1, 2] = -1.0
        return J

    def hessian_contraction(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = self.check_point(x)
        w = self.check_point(w)
        M = np.zeros((2, self.ambient_dim))
        M[0] = -2.0 * w
        M[1, 0] = -np.sin(x[0]) * w[0]
        M[1, 1] = 2.0 * w[1]
        return M


@dataclass
class CallableConstraint(ConstraintMap):
    """Wrap plain callables as a constraint map.

    Only ``fn`` is required; without ``jac`` the Jacobian falls back to the
    finite-difference default of :class:`ConstraintMap`.  The Hessian
    contraction is always one central difference of the Jacobian.
    """

    ambient_dim: int
    codim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not 1 <= self.codim < self.ambient_dim:
            raise DimensionError(f"need 1 <= codim < {self.ambient_dim}, got {self.codim}")

    def value(self, x: np.ndarray) -> np.ndarray:
        x = self.check_point(x)
        v = np.atleast_1d(np.asarray(self.fn(x), dtype=float))
        if v.shape != (self.codim,):
            raise DimensionError(f"fn returned shape {v.shape}, expected ({self.codim},)")
        return v

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.jac is None:
            return super().jacobian(x)
        x = self.check_point(x)
        return np.atleast_2d(np.asarray(self.jac(x), dtype=float))

