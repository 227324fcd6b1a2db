"""Fixed reference loops that the worker times next to every operation.

On a shared host the speed of numpy-heavy code can swing by a factor of
about two for seconds at a time, and code of different kinds slows by
different factors: a pure-Python integer loop hardly at all, small-array
numpy code the most, large-array code in between.  So each workload divides
every operation's time by the time of a reference loop of the same kind,
measured just before and just after it.  The loops are the benchmark's own
code and never call ``hugint``, so a faster program lowers the ratio.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

_A = np.diag([1.0, 4.0, 2.0])
_X0 = np.array([0.8, 0.3, 0.2])
_V0 = np.array([0.1, 0.9, -0.3])


def small() -> np.ndarray:
    """About 1 ms of small-array numpy calls, in the mix of a hug step at n = 3."""
    x, v = _X0.copy(), _V0.copy()
    for _ in range(20):
        g = -2.0 * _A @ x
        n = g / np.linalg.norm(g)
        projector = np.eye(3) - np.outer(n, n)
        q, _ = np.linalg.qr(g[:, None])
        v = projector @ v - (n @ v) * n + 1e-3 * q[:, 0]
        x = x + 0.01 * v
        x = x / np.sqrt(x @ _A @ x)
        s = np.linalg.solve(_A + np.eye(3), x)
        x = np.concatenate([x[:2], [abs(x[2])]]) + 1e-6 * s.max()
    return x


_N = 1000
_U = np.linspace(-1.0, 1.0, _N) / np.sqrt(_N)
_W = np.cos(np.arange(_N)) / np.sqrt(_N)


def dense() -> np.ndarray:
    """About 10 ms of dense work at n = 1000: a reflection step written out
    with fresh n x n projectors at codim 1, and one at codim 2.

    At most three n x n arrays are alive at once, as in a step of the
    program, which also keeps its constraint's n x n matrix, so the loop
    does not raise the workload's peak memory.
    """
    y = _U + 0.025 * _W
    eye = np.eye(_N)
    q = -2.0 * eye @ y
    q /= np.sqrt(q @ q)
    normal = np.outer(q, q)
    tangent = eye - normal
    level = -(y @ tangent @ y)
    v = _W - 2.0 * q * (q @ _W)
    row = tangent[0].copy()
    del eye, normal, tangent
    jac = np.vstack([-2.0 * y, np.cos(y[0]) * _U + _W])
    basis, r = np.linalg.qr(jac.T)
    pseudo = basis @ scipy.linalg.solve_triangular(r, np.eye(2), trans="T")
    eye = np.eye(_N)
    normal = basis @ basis.T
    tangent = eye - normal
    v = v - 2.0 * (basis @ (basis.T @ v))
    return v + level * pseudo[:, 0] + row + tangent[0]
