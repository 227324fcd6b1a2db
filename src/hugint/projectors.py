"""Normal-space geometry of a level set: the orthonormal normal basis.

For a constraint map f with full-rank Jacobian J(x), the normal space of the
level set through x is the row space of J.  With the Moore-Penrose
pseudoinverse J^+ = J^T (J J^T)^{-1}, the orthogonal projector onto the
normal space is N = J^+ J and the tangential projector is T = I - N.

Everything here works through an orthonormal basis Q of the normal space:
:func:`unit_normal` at codimension 1 and above it :func:`normal_qr`, the
checked thin QR factorization J^T = Q R with the column signs as it leaves
them.  The factor calls the two LAPACK gufuncs that ``np.linalg.qr`` calls
(``numpy.linalg._umath_linalg.qr_r_raw`` and ``qr_reduced``) directly: for
an n-by-m matrix with m small most of ``np.linalg.qr``'s time is its Python
wrapper, and the gufuncs give the same Q and R bit for bit; g . g at
codimension 1 calls numpy's C ``vdot`` (``constraints._vdot``) for the same
reason.  The hug step reflects through Q alone; the flow field takes the
same Q and forms J^+.
N = Q Q^T and T = I - Q Q^T are applied matrix-free, at O(n m) cost; the
dense projectors, the derivative of N, the reflection through a basis and
the pair (Q, J^+) as (n, m) matrices are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .constraints import ConstraintMap, _vdot, checked_jacobian
from .errors import SingularGeometryError

#: Relative tolerance on the diagonal of R for declaring J rank deficient.
RANK_RTOL = 1e-10

#: Floor on ||grad f||^2 below which a single constraint's gradient counts as vanishing.
GRADIENT_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def _gradient_norm2(g: np.ndarray, x: np.ndarray) -> float:
    """g . g for a single gradient g, else :class:`SingularGeometryError`."""
    ng2 = float(_vdot(g, g))  # the bits of g @ g; overflows to inf without a warning
    if not math.isfinite(ng2):
        raise SingularGeometryError(x, "gradient is not finite")
    if ng2 <= GRADIENT_FLOOR:
        raise SingularGeometryError(x, "gradient vanishes")
    return ng2


def unit_normal(constraint: ConstraintMap, x: np.ndarray) -> np.ndarray:
    """Unit gradient g / ||g||, shape (n,), of a codimension-1 constraint at x,
    with g from the constraint's ``gradient``: the codimension-1 normal
    that the step reflects through and the flow field splits v with."""
    g = constraint.gradient(x)
    return g / math.sqrt(_gradient_norm2(g, x))


def _raise_qr_error(err, flag):
    """numpy's report of an illegal argument to LAPACK's QR, as ``np.linalg.qr`` raises it."""
    raise LinAlgError("Incorrect argument found while performing QR factorization")


@np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _householder_qr(a: np.ndarray) -> np.ndarray:
    """The reduced Q of the float (n, m) array ``a``, under ``np.linalg.qr``'s
    error state; leaves R in the top m rows of ``a``, on and above the diagonal."""
    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
    return _umath_linalg.qr_reduced(a, tau, signature="dd->d")


@functools.cache
def _below_diagonal(shape: tuple[int, int]) -> np.ndarray:
    """The read-only mask of the entries below the diagonal of a matrix of
    this shape: the entries that ``np.triu`` zeroes."""
    mask = np.tri(*shape, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def normal_qr(constraint: ConstraintMap, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked thin QR J^T = Q R of the (m, n) Jacobian at x, with Q's column
    signs as the factorization leaves them.

    Q and R are ``np.linalg.qr(J.T, mode="reduced")`` bit for bit: the same
    two gufuncs on the same order-preserving copy of J^T, under the same
    error state, with R the top m rows below whose diagonal +0.0 is written,
    as ``np.triu`` writes it.  Only numpy's wrapper around them is skipped,
    which on a 3-by-2 matrix is more than half of its time.
    """
    J = checked_jacobian(constraint, x, (constraint.codim, constraint.ambient_dim))
    # a copy, as np.linalg.qr makes: the factor overwrites it, and J may be
    # the constraint's caller's own array
    a = J.T.copy(order="K")
    Q = _householder_qr(a)
    top = a[: a.shape[1]]  # (m, m), or (n, m) for a Jacobian with more rows than columns
    R = np.where(_below_diagonal(top.shape), 0.0, top)
    # one numpy call over the m^2 entries: a loop over them as Python floats
    # is cheaper at m = 2 but dearer from about m = 12
    if not np.isfinite(R).all():
        raise SingularGeometryError(x, "Jacobian is not finite")
    # the rank test reads m floats: on Python floats it skips numpy's
    # per-call cost, which at m = 2 is most of the test's time
    d = [abs(r) for r in R.diagonal().tolist()]
    low, top = min(d), max(d)
    if low <= RANK_RTOL * top:
        raise SingularGeometryError(
            x, f"Jacobian is rank deficient: diag(R) spans {low:.2e}..{top:.2e}"
        )
    return Q, R
