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
O(n m) for n ambient dimensions and m constraints and needs no pseudoinverse.
At codimension 1 the basis is the unit gradient q, from the constraint's
``gradient``, and v' = v - 2 (q . v) q.  Above it Q is the thin QR basis of
J^T with no sign fix: flipping a column of Q negates (Q^T v)_j exactly and
the product with Q undoes that exactly, so v' has the bits of a sign-fixed Q.

:func:`hug_steps` is the step, written once as a stream that yields
(x_k, v_k) for k = 1, 2, ...: it checks x and v and picks the codimension
branch once, reads each codim-1 midpoint's gradient through the
constraint's unchecked ``_gradient`` hook, and carries h v_k from the end
of step k, x_k = y + h v_k, to the start of step k + 1, y = x_k + h v_k.
:func:`hug_trajectory` takes K steps from the stream and records only the
positions and velocities; the :class:`Trajectory` it returns derives step
times, midpoints, speeds and level drift from them when read, and keeps the
constraint to evaluate the drift with.  The Metropolis kernel in
:mod:`hugint.sampling` takes K too but keeps only the final state.
:func:`hug_steps_rows` is the same codim-1 stream on each row of a stack
of states, reading the same hook on the stack, with each row's bits those
of :func:`hug_steps` however many rows share the stack; the replicated
studies step their replicates with it.  It takes the step count and yields
the steps in blocks of shape (b, R, n), as many as :data:`ROWS_BLOCK_FLOATS`
allows, each stepped under one numpy error state of its own and screened
once, after its last step: a row whose g . g fails at a step is NaN from
that step on, and the Python cost of both is paid once per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .constraints import ConstraintMap
from .errors import DimensionError
from .projectors import GRADIENT_FLOOR, _gradient_norm2, normal_qr


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
    """A discrete trajectory: the states it stepped through, with its
    diagnostics derived from them when read.

    Stored: ``xs`` and ``vs``, positions and velocities of shape (K+1, n);
    ``params``, the parameters it was generated with; and ``constraint``, the
    map it was stepped on.  Derived on every read: ``times``, ``midpoints``,
    ``speeds`` and ``level_drift``.
    """

    xs: np.ndarray
    vs: np.ndarray
    params: HugParams
    constraint: ConstraintMap

    @property
    def times(self) -> np.ndarray:
        """Step times k * delta, shape (K+1,)."""
        return self.params.step_size * np.arange(len(self.xs))

    @property
    def midpoints(self) -> np.ndarray:
        """Halfway points x_k + (delta/2) v_k, shape (K, n)."""
        return self.xs[:-1] + 0.5 * self.params.step_size * self.vs[:-1]

    @property
    def speeds(self) -> np.ndarray:
        """||v_k|| for each step, shape (K+1,)."""
        return np.linalg.norm(self.vs, axis=1)

    @property
    def level_drift(self) -> np.ndarray:
        """||f(x_k) - f(x_0)|| for each step, shape (K+1,), one ``value`` call per state."""
        levels = np.empty((len(self.xs), self.constraint.codim))
        for k, x in enumerate(self.xs):
            levels[k] = self.constraint.value(x)
        return np.linalg.norm(levels - levels[0], axis=1)

    @property
    def final(self) -> PhaseState:
        return PhaseState(self.xs[-1], self.vs[-1])


def hug_steps(
    constraint: ConstraintMap, x: np.ndarray, v: np.ndarray, delta: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Steps of size delta from (x, v): yields (x_k, v_k) for k = 1, 2, ...

    Take K steps with ``zip(range(K), stream)`` or ``islice(stream, K)``:
    either stops before asking for step K + 1, which may raise.  The start
    is checked once, at the first ``next``: x and v not of shape (n,) raise
    :class:`~hugint.errors.DimensionError`.  Each midpoint is validated as
    it is reached, at codimension 1 by ``unit_normal``'s test of g . g on
    the gradient from the constraint's unchecked ``_gradient``, and by
    :func:`normal_qr` above it, so a singular midpoint at step j raises
    :class:`~hugint.errors.SingularGeometryError` out of the j-th ``next``.
    One step is ``next(hug_steps(...))``, and step k has the bits of k such
    steps chained.
    """
    x = constraint.check_point(x)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise DimensionError(f"expected a velocity of shape {x.shape}, got {v.shape}")
    h = np.array(0.5 * delta)  # a 0-d array: h v skips converting a Python float each step
    hv = np.multiply(h, v)
    if constraint.codim == 1:
        gradient = constraint._gradient  # the midpoints have the start's shape
        norm2, sqrt, multiply, divide = _gradient_norm2, math.sqrt, np.multiply, np.divide
        s = np.empty(())  # the step's two scalars, 0-d like h: faster operands than floats
        while True:
            y = x + hv
            g = gradient(y)
            s[()] = sqrt(norm2(g, y))
            q = divide(g, s)  # unit_normal's q, bit for bit
            s[()] = 2.0 * q.dot(v)
            v = v - multiply(q, s)
            hv = multiply(h, v)
            x = y + hv
            yield x, v
    while True:
        y = x + hv
        Q, _ = normal_qr(constraint, y)
        v = v - 2.0 * (Q @ (Q.T @ v))
        hv = np.multiply(h, v)
        x = y + hv
        yield x, v


#: A block of :func:`hug_steps_rows` holds at most this many floats of
#: positions (and as many of velocities), unless one step's rows are more:
#: 128 KiB, which keeps a block's arrays in cache.  A few hundred steps of
#: the replicated studies' R = 14 rows fit one block; at 2**16 the paper-size
#: study (R = 10,004 rows, n = 3, blocks of two steps) stepped about 7%
#: slower than at 2**14 (one step a block), on a 2-vCPU Xeon with 2 MiB of
#: L2 per core.
ROWS_BLOCK_FLOATS = 2**14


def hug_steps_rows(
    constraint: ConstraintMap, X: np.ndarray, V: np.ndarray, delta: float, steps: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``steps`` steps of :func:`hug_steps` on each row of X and V, shape (R, n), at
    codimension 1, in blocks: yields (Xs, Vs) of shape (b, R, n), Xs[j] the
    rows after step j + 1 of the block, the block lengths b adding up to ``steps``.

    Each row's result has the bits of :func:`hug_steps` on that row alone:
    the gradients come from the constraint's ``_gradient`` hook and the row
    dots from ``np.vecdot``, neither of which mixes rows.  A row whose
    gradient is not finite or vanishes at step j, where :func:`hug_steps`
    would raise :class:`~hugint.errors.SingularGeometryError`, is NaN from
    step j on; the others carry on.  X and V are converted and checked once,
    and h V_k is carried from step to step.  A block holds as many steps as
    :data:`ROWS_BLOCK_FLOATS` allows, one at least; its steps keep g . g and
    run unmasked, under one ``np.errstate`` ignoring overflow, invalid and
    divide, and it is screened once, after its last step.  The error state
    ends before the yield, so no warning escapes and the consumer keeps its
    own.  The next block starts from this one's last rows, read-only.
    """
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    if constraint.codim != 1 or X.shape != V.shape or X.shape[1:] != (constraint.ambient_dim,):
        raise DimensionError(
            f"hug_steps_rows needs a codimension-1 map and (R, {constraint.ambient_dim}) "
            f"rows, got codim {constraint.codim} and shapes {X.shape} and {V.shape}"
        )
    block = max(1, ROWS_BLOCK_FLOATS // max(1, X.size))
    h, two, gradient = np.array(0.5 * delta), np.array(2.0), constraint._gradient
    add, subtract, multiply, divide, sqrt, vecdot = (
        np.add, np.subtract, np.multiply, np.divide, np.sqrt, np.vecdot)
    HV = h * V
    # Few, large allocations keep glibc from returning heap pages and faulting
    # them back in on every step: the midpoints and unit normals are rewritten
    # in place, and a block's positions and velocities are one array.  At
    # R = 10,004 rows a 2,000-step study read 13k page faults at each of five
    # heap layouts, against up to 98k with fresh arrays each step.
    Y, Q = np.empty((2, *X.shape))
    s = np.empty(len(X))  # each row's sqrt(g . g), then its 2 q . v
    S = s[:, None]  # s as a column, so that a step makes no view
    for start in range(0, steps, block):
        Xs, Vs = np.empty((2, min(block, steps - start), *X.shape))
        GG = np.empty(Xs.shape[:2])  # each step's row dots g . g
        # a ``with`` spanning the yield would set the consumer's error state too
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # 0/0 in a failed row
            for gg, X_next, V_next in zip(GG, Xs, Vs):
                add(X, HV, out=Y)
                G = gradient(Y)
                sqrt(vecdot(G, G, out=gg), out=s)
                # V - Q (2 Q.V), written into the step's own arrays and the block
                divide(G, S, out=Q)
                multiply(two, vecdot(Q, V, out=s), out=s)
                multiply(Q, S, out=Q)
                V = subtract(V, Q, out=V_next)
                multiply(h, V, out=HV)
                X = add(Y, HV, out=X_next)
            if not (GRADIENT_FLOOR < np.minimum.reduce(GG, None, initial=np.inf)  # NaN fails
                    and np.maximum.reduce(GG, None, initial=0.0) < np.inf):
                failed = np.logical_or.accumulate(~(np.isfinite(GG) & (GG > GRADIENT_FLOOR)))
                Xs[failed] = Vs[failed] = np.nan  # a NaN x makes every later midpoint NaN
        Xs.flags.writeable = Vs.flags.writeable = False
        yield Xs, Vs


def hug_trajectory(
    constraint: ConstraintMap, initial: PhaseState, params: HugParams
) -> Trajectory:
    """Run ``params.steps`` steps from ``initial`` and record the states; the
    diagnostics are derived from them when read (see :class:`Trajectory`).
    The records are allocated first, so numpy refuses ones too large before any step."""
    K = params.steps
    n = initial.x.shape[0]
    xs = np.empty((K + 1, n))
    vs = np.empty((K + 1, n))
    xs[0], vs[0] = initial.x, initial.v
    stream = hug_steps(constraint, initial.x, initial.v, params.step_size)
    for k, (x, v) in zip(range(1, K + 1), stream):
        xs[k], vs[k] = x, v
    return Trajectory(xs=xs, vs=vs, params=params, constraint=constraint)


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
