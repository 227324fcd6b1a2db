"""Hypothesis property tests of the step on every constraint family.

The exact invariants of criterion 03 (speed, half-segment lengths,
reversibility) are drawn here over starts, velocities and step sizes for the
sphere, a non-diagonal quadric, an affine map, the sliced sphere and a
``CallableConstraint`` whose Jacobian is a finite difference.  They sit next
to criterion 03, not in its place.  Every test is derandomized and capped,
so a run is reproducible and short.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hugint.constraints import (
    AffineConstraint,
    CallableConstraint,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from hugint.errors import SingularGeometryError
from hugint.integrator import hug_step, hug_step_rows, hug_steps
from oracles import bundle_step, step_reference

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

_A = np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 3.0]])

FAMILIES = {
    "sphere": SphereConstraint(4),
    "quadric": QuadricConstraint(_A),
    "affine": AffineConstraint(
        np.array([[1.0, -0.5, 0.2, 0.0], [0.3, 1.0, 0.0, -0.7]]), np.array([0.1, -0.2])
    ),
    "sliced": SphereSlicedConstraint(4),
    # no jac: the Jacobian is the base class's central finite difference
    "callable-fd": CallableConstraint(
        3, 1, fn=lambda x: np.array([-(x @ _A @ x) - 0.3 * np.sin(x[0])])
    ),
}

_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def runs(draw, constraint):
    """(x, v, delta) with ||x|| in [0.6, 1.5], ||v|| in [0.3, 3] and
    delta ||v|| at most 0.3, so the step stays clear of the origin, where
    the quadric gradients vanish."""
    n = constraint.ambient_dim
    x = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    assume(np.linalg.norm(x) > 0.1 and np.linalg.norm(v) > 0.1)
    x *= draw(st.floats(0.6, 1.5)) / np.linalg.norm(x)
    v *= draw(st.floats(0.3, 3.0)) / np.linalg.norm(v)
    delta = draw(st.floats(1e-3, 0.1))
    if constraint.codim > 1:
        # keep the two gradients at the midpoint well apart (rank loss is
        # a SingularGeometryError, tested elsewhere)
        s = np.linalg.svd(constraint.jacobian(x + 0.5 * delta * v), compute_uv=False)
        assume(s[-1] > 1e-3 * s[0])
    return x, v, delta


def _draw(kind, data):
    constraint = FAMILIES[kind]
    return (constraint, *data.draw(runs(constraint)))


@pytest.mark.parametrize("kind", FAMILIES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_step_preserves_speed(kind, data):
    constraint, x, v, delta = _draw(kind, data)
    _, v_new = hug_step(constraint, x, v, delta)
    speed = np.linalg.norm(v)
    assert abs(np.linalg.norm(v_new) - speed) <= 1e-13 * speed


@pytest.mark.parametrize("kind", FAMILIES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_each_half_segment_has_length_half_delta_speed(kind, data):
    constraint, x, v, delta = _draw(kind, data)
    x_new, _ = hug_step(constraint, x, v, delta)
    y = x + 0.5 * delta * v
    half = 0.5 * delta * np.linalg.norm(v)
    tol = 1e-13 * (1.0 + np.linalg.norm(x))
    assert abs(np.linalg.norm(y - x) - half) <= tol
    assert abs(np.linalg.norm(x_new - y) - half) <= tol


@pytest.mark.parametrize("kind", FAMILIES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_stepping_back_from_the_flipped_velocity_returns(kind, data):
    constraint, x, v, delta = _draw(kind, data)
    x_new, v_new = hug_step(constraint, x, v, delta)
    x_back, v_back = hug_step(constraint, x_new, -v_new, delta)
    scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(v)
    assert np.abs(x_back - x).max() <= 1e-10 * scale
    assert np.abs(v_back + v).max() <= 1e-10 * scale


@functools.lru_cache(maxsize=None)
def _codim1_map(kind: str, n: int):
    if kind == "sphere":
        return SphereConstraint(n)
    M = np.random.default_rng(n).standard_normal((n, n))
    A = M @ M.T / n + 0.5 * np.eye(n)
    if kind == "quadric":
        return QuadricConstraint(A)
    return CallableConstraint(n, 1, fn=lambda x: np.array([-(x @ A @ x)]), jac=lambda x: -2.0 * A @ x)


@pytest.mark.parametrize("n", [2, 3, 10, 1000])
@pytest.mark.parametrize("kind", ["sphere", "quadric", "callable"])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_codim1_step_is_bitwise_the_bundle_step(kind, n, seed):
    """At codimension 1 ``hug_step`` reflects through the unit gradient and
    builds no bundle; five steps must match the bundle route bit for bit.
    So must the rows route, ``hug_step_rows``: each row of a stack of the
    drawn (x, v) and three more, and the drawn row alone as a one-row stack,
    whatever else shares the stack."""
    constraint = _codim1_map(kind, n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    delta = rng.uniform(0.01, 0.2) / np.linalg.norm(v)
    xa, va = xb, vb = x, v
    # three more unit starts at the drawn speed, so every step stays as short
    X, V = rng.standard_normal((2, 3, n))
    X = np.vstack([x, X / np.linalg.norm(X, axis=1)[:, None]])
    V = np.vstack([v, V * (np.linalg.norm(v) / np.linalg.norm(V, axis=1)[:, None])])
    singles = list(zip(X, V))
    X1, V1 = X[:1], V[:1]
    for _ in range(5):
        xa, va = hug_step(constraint, xa, va, delta)
        xb, vb = bundle_step(constraint, xb, vb, delta)
        assert np.array_equal(xa, xb) and np.array_equal(va, vb)
        singles = [hug_step(constraint, xr, vr, delta) for xr, vr in singles]
        X, V = hug_step_rows(constraint, X, V, delta)
        X1, V1 = hug_step_rows(constraint, X1, V1, delta)
        assert np.array_equal(X, [xr for xr, _ in singles])
        assert np.array_equal(V, [vr for _, vr in singles])
        assert np.array_equal(X1[0], xa) and np.array_equal(V1[0], va)


@pytest.mark.parametrize("n", [3, 10, 1000])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_codim_m_step_is_bitwise_the_bundle_step(n, seed):
    """Above codimension 1 ``hug_step`` reflects through the thin QR basis
    Q as the factorization leaves it, while the bundle fixes the sign of
    each column so that diag(R) > 0; five steps must still match the bundle
    route bit for bit.  Flipping column j of Q negates every term of
    (Q^T v)_j exactly, so the sum is negated exactly (IEEE negation is exact
    and round-to-nearest is symmetric), and the second product Q (Q^T v)
    multiplies the flipped column by the flipped coefficient, which cancels
    the flip exactly.  On the sliced sphere most midpoints have a flipped
    column."""
    constraint = SphereSlicedConstraint(n)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    delta = rng.uniform(0.01, 0.2) / np.linalg.norm(v)
    xa, va = xb, vb = x, v
    for _ in range(5):
        xa, va = hug_step(constraint, xa, va, delta)
        xb, vb = bundle_step(constraint, xb, vb, delta)
        assert np.array_equal(xa, xb) and np.array_equal(va, vb)


STREAM_MAPS = {
    "diagonal-quadric": QuadricConstraint(np.diag([2.0, 1.0, 3.0])),
    "dense-quadric": QuadricConstraint(_A),
    "sphere": SphereConstraint(4),
    "sliced-3": SphereSlicedConstraint(3),
    "sliced-10": SphereSlicedConstraint(10),
    "sliced-1000": SphereSlicedConstraint(1000),
}


@pytest.mark.parametrize("kind", STREAM_MAPS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 12))
def test_stream_is_bitwise_the_reference_step(kind, seed, steps):
    """``hug_steps`` carries h v_k from one step to the next instead of
    recomputing it; each of K steps must still have the bits of the one-call
    step, ``oracles.step_reference``, chained K times.  The yielded pairs are
    kept until the end, so a stream that reused its arrays would fail too."""
    constraint = STREAM_MAPS[kind]
    n = constraint.ambient_dim
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    v = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
    delta = rng.uniform(0.01, 0.2) / np.linalg.norm(v)
    expected = []
    xr, vr = x, v
    try:
        for _ in range(steps):
            xr, vr = step_reference(constraint, xr, vr, delta)
            expected.append((xr, vr))
    except SingularGeometryError:  # rank loss on the sliced sphere; rare
        with pytest.raises(SingularGeometryError):
            list(zip(range(steps), hug_steps(constraint, x, v, delta)))
    got = [pair for _, pair in zip(range(len(expected)), hug_steps(constraint, x, v, delta))]
    assert len(got) == len(expected)
    for (xs, vs), (xr, vr) in zip(got, expected):
        assert np.array_equal(xs, xr) and np.array_equal(vs, vr)


def _sheared_map(codim: int, j: int) -> CallableConstraint:
    """f(x) = (x_2, ..., x_{m+1}) on R^3, whose Jacobian turns singular
    (a zero gradient, or two equal rows) where x_1 > j - 1."""

    def jac(x):
        rows = np.eye(3)[1 : codim + 1]
        if x[0] > j - 1:
            rows = np.zeros((1, 3)) if codim == 1 else np.eye(3)[[1, 1]]
        return rows

    return CallableConstraint(3, codim, fn=lambda x: x[1 : codim + 1], jac=jac)


@pytest.mark.parametrize("codim", [1, 2])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(j=st.integers(1, 12))
def test_stream_raises_at_the_step_of_the_singular_midpoint(codim, j):
    """From x = 0 with v = e_1 and delta = 1 every normal is orthogonal to v,
    so v never turns and the k-th midpoint is (k - 1/2) e_1.  The first
    singular midpoint is step j's: the stream yields j - 1 steps, then
    raises out of the j-th ``next``."""
    stream = hug_steps(_sheared_map(codim, j), np.zeros(3), np.eye(3)[0], 1.0)
    for k in range(1, j):
        x, v = next(stream)
        assert np.array_equal(x, [k, 0.0, 0.0]) and np.array_equal(v, [1.0, 0.0, 0.0])
    with pytest.raises(SingularGeometryError):
        next(stream)
