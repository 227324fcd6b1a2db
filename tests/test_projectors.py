"""The normal basis and pseudoinverse, and the directional derivative of the normal projector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import MAP_KINDS, make_map
from hugint.constraints import (
    CallableConstraint,
    ConstraintMap,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from hugint.errors import DimensionError, SingularGeometryError
from hugint.dynamics import phase_field
from hugint.integrator import hug_steps, hug_steps_rows
from hugint.projectors import GRADIENT_FLOOR, normal_qr, unit_normal
from oracles import (
    build_bundle,
    dense_projectors,
    normal_qr_reference,
    nprime,
    nprime_par,
    nprime_perp,
    reflect,
)


def random_point(constraint, rng):
    x = rng.standard_normal(constraint.ambient_dim)
    return x / np.linalg.norm(x)


def field_at(constraint, x):
    """The flow field at (x, 0), which checks the geometry at x as the step does."""
    return phase_field(constraint)(0.0, np.concatenate([x, np.zeros_like(x)]))


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_bundle_projector_algebra(kind):
    """The matrix-form oracle ``build_bundle`` and the dense projectors built
    on it, which the field and N' checks take as their reference."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        c = make_map(kind, rng)
        x = random_point(c, rng)
        Q, pseudo = build_bundle(c, x)
        N, T = dense_projectors(c, x)
        n = c.ambient_dim
        eye = np.eye(n)
        assert np.allclose(N + T, eye, atol=1e-13)
        assert np.allclose(N @ N, N, atol=1e-13)
        assert np.allclose(T @ T, T, atol=1e-13)
        assert np.allclose(N, N.T, atol=1e-14)
        assert np.allclose(N @ T, 0.0, atol=1e-13)
        # basis is an orthonormal frame of the normal space
        assert np.allclose(Q.T @ Q, np.eye(c.codim), atol=1e-13)
        assert np.allclose(Q @ Q.T, N, atol=1e-13)
        # J rows lie in the normal space, the pseudoinverse inverts them
        assert np.allclose(c.jacobian(x) @ T, 0.0, atol=1e-11)
        assert np.allclose(c.jacobian(x) @ pseudo, np.eye(c.codim), atol=1e-11)


@pytest.mark.parametrize("make", [SphereConstraint, SphereSlicedConstraint],
                         ids=["sphere", "sliced"])
def test_bundle_stores_o_of_n_m_numbers(make):
    """The oracle ``build_bundle`` returns Q and J^+ only, each (n, m): at
    n = 2000 that is well under 1 MB, where two dense n-by-n projectors would
    take 64 MB.  The dense projectors are built from the same Q."""
    c = make(2000)
    x = np.full(2000, 1.0 / np.sqrt(2000.0))
    Q, pseudo = build_bundle(c, x)
    assert Q.shape == pseudo.shape == (2000, c.codim)
    assert Q.nbytes + pseudo.nbytes < 1_000_000

    small = make(5)
    x = np.full(5, 1.0 / np.sqrt(5.0))
    Q, _ = build_bundle(small, x)
    N, T = dense_projectors(small, x)
    assert np.array_equal(N, Q @ Q.T)
    assert np.array_equal(T, np.eye(5) - Q @ Q.T)


def test_codim1_path_matches_explicit_qr():
    """The oracle's m = 1 shortcut must produce the same bundle as a hand-rolled QR."""
    rng = np.random.default_rng(22)
    q = QuadricConstraint(np.array([[2.0, 0.3], [0.3, 1.0]]))
    for _ in range(5):
        x = random_point(q, rng)
        basis, pseudo = build_bundle(q, x)
        J = q.jacobian(x)
        Q, R = np.linalg.qr(J.T)
        sign = -1.0 if R[0, 0] < 0 else 1.0
        Q, R = Q * sign, R * sign
        assert np.allclose(basis, Q, atol=1e-13)
        assert np.allclose(pseudo, Q / R[0, 0], atol=1e-13)
        assert np.allclose(dense_projectors(q, x)[0], Q @ Q.T, atol=1e-13)


def test_singular_gradient_raises_with_point():
    q = SphereConstraint(2)
    with pytest.raises(SingularGeometryError, match="gradient vanishes") as info:
        field_at(q, np.zeros(2))
    assert np.allclose(info.value.x, 0.0)


@pytest.mark.parametrize("constraint", [SphereConstraint(3), SphereSlicedConstraint(3)],
                         ids=["codim1", "codim2"])
def test_non_finite_point_raises_with_point(constraint):
    with pytest.raises(SingularGeometryError) as info:
        field_at(constraint, np.array([np.nan, 0.5, 0.5]))
    assert np.isnan(info.value.x[0])


#: 2^-256: a gradient (FLOOR_ENTRY, FLOOR_ENTRY) has g . g = 2^-511, GRADIENT_FLOOR itself.
FLOOR_ENTRY = 2.0**-256

_BAD_GEOMETRY = {
    "zero-gradient": (
        SphereConstraint(2), np.zeros(2), SingularGeometryError, "gradient vanishes"
    ),
    # the floor is a vanishing gradient: the test is g . g <= GRADIENT_FLOOR
    "gradient-at-the-floor": (
        CallableConstraint(2, 1, fn=lambda x: x[:1], jac=lambda x: [[FLOOR_ENTRY, FLOOR_ENTRY]]),
        np.ones(2),
        SingularGeometryError,
        "gradient vanishes",
    ),
    "non-finite-point": (
        SphereConstraint(3), np.array([np.nan, 0.5, 0.5]), SingularGeometryError,
        "gradient is not finite",
    ),
    "infinite-gradient": (
        SphereConstraint(3), np.array([np.inf, 0.5, 0.5]), SingularGeometryError,
        "gradient is not finite",
    ),
    "jacobian-too-long": (
        CallableConstraint(3, 1, fn=lambda x: x[:1], jac=lambda x: np.ones(4)),
        np.ones(3),
        DimensionError,
        r"Jacobian of shape \(1, 4\)",
    ),
    "jacobian-two-rows": (
        CallableConstraint(3, 1, fn=lambda x: x[:1], jac=lambda x: np.ones((2, 3))),
        np.ones(3),
        DimensionError,
        r"Jacobian of shape \(2, 3\)",
    ),
    # the field checks the state (x, v), the others the point
    "point-wrong-shape": (
        SphereConstraint(3), np.ones(2), DimensionError, "expected (a state|point) of shape"
    ),
}


@pytest.mark.parametrize("case", _BAD_GEOMETRY)
def test_unit_normal_raises_as_build_bundle_does(case):
    """The codim-1 step takes its normal from ``unit_normal`` and the flow
    field checks its gradient as ``build_bundle`` did, so every geometry
    check must raise the same error, with the same message, through the
    field, ``unit_normal`` and ``hug_steps``; a shape error already in
    ``gradient``."""
    constraint, x, error, match = _BAD_GEOMETRY[case]
    with pytest.raises(error, match=match):
        field_at(constraint, x)
    with pytest.raises(error, match=match):
        unit_normal(constraint, x)
    with pytest.raises(error, match=match):
        next(hug_steps(constraint, x, np.zeros_like(x), 0.1))  # the midpoint is x itself
    if error is DimensionError:
        with pytest.raises(error):
            constraint.gradient(x)


def test_a_gradient_just_above_the_floor_steps_in_every_route():
    """g . g = GRADIENT_FLOOR vanishes (``_BAD_GEOMETRY``), and g . g = 5 * 2^-512,
    just above it, is a regular gradient through the field, ``unit_normal``
    and ``hug_steps``.  In ``hug_steps_rows`` a row at the floor turns NaN
    while a regular row beside it steps with the bits of ``hug_steps``."""
    assert FLOOR_ENTRY**2 + FLOOR_ENTRY**2 == GRADIENT_FLOOR
    above = CallableConstraint(
        2, 1, fn=lambda x: x[:1], jac=lambda x: [[FLOOR_ENTRY, 2.0 * FLOOR_ENTRY]]
    )
    x = np.ones(2)
    assert np.isfinite(field_at(above, x)).all()
    assert np.allclose(unit_normal(above, x), np.array([1.0, 2.0]) / np.sqrt(5.0), rtol=1e-15)
    x1, v1 = next(hug_steps(above, x, np.zeros(2), 0.1))
    assert np.array_equal(x1, x) and np.array_equal(v1, np.zeros(2))
    # grad f = FLOOR_ENTRY x: g . g is the floor at (1, 1) and 5 * 2^-512 at (1, 2)
    radial = CallableConstraint(
        2, 1, fn=lambda x: [0.5 * FLOOR_ENTRY * x @ x], jac=lambda x: [FLOOR_ENTRY * x]
    )
    X, V = np.array([[1.0, 1.0], [1.0, 2.0]]), np.array([[0.0, 0.0], [0.6, -0.8]])
    with pytest.raises(SingularGeometryError, match="gradient vanishes"):
        next(hug_steps(radial, X[0], V[0], 0.1))
    [(Xs, Vs)] = hug_steps_rows(radial, X, V, 0.1, 1)
    assert np.isnan(Xs[0, 0]).all() and np.isnan(Vs[0, 0]).all()
    x1, v1 = next(hug_steps(radial, X[1], V[1], 0.1))
    assert Xs[0, 1].tobytes() == x1.tobytes() and Vs[0, 1].tobytes() == v1.tobytes()
    assert not np.array_equal(x1, X[1])


_BAD_CODIM2 = {
    "non-finite-point": (
        SphereSlicedConstraint(3), np.array([np.nan, 0.5, 0.5]), SingularGeometryError,
        "Jacobian is not finite",
    ),
    # the second gradient (cos x_0, 2 x_1, -1) is fine, the first (-2x) vanishes
    "origin": (SphereSlicedConstraint(3), np.zeros(3), SingularGeometryError, "rank deficient"),
    "jacobian-wrong-shape": (
        CallableConstraint(3, 2, fn=lambda x: x[:2], jac=lambda x: np.ones((3, 3))),
        np.ones(3),
        DimensionError,
        "Jacobian of shape",
    ),
    # R = 0: the test that diag(R) is not all zero, before the relative one
    "jacobian-zero": (
        CallableConstraint(3, 2, fn=lambda x: x[:2], jac=lambda x: np.zeros((2, 3))),
        np.ones(3),
        SingularGeometryError,
        r"rank deficient: diag\(R\) spans 0\.00e\+00\.\.0\.00e\+00",
    ),
    "jacobian-parallel-rows": (
        CallableConstraint(
            3, 2, fn=lambda x: x[:2], jac=lambda x: [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]
        ),
        np.ones(3),
        SingularGeometryError,
        "rank deficient",
    ),
    "jacobian-inf": (
        CallableConstraint(
            3, 2, fn=lambda x: x[:2], jac=lambda x: [[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]]
        ),
        np.ones(3),
        SingularGeometryError,
        "Jacobian is not finite",
    ),
}


@pytest.mark.parametrize("case", _BAD_CODIM2)
def test_codim_m_step_raises_as_build_bundle_does(case):
    """Above codimension 1 the step and the flow field both take their basis
    from ``normal_qr``, as ``build_bundle`` did, so every geometry check must
    raise the same error class with the same message through ``hug_steps``
    as through the field."""
    constraint, x, error, match = _BAD_CODIM2[case]
    with pytest.raises(error, match=match) as field_info:
        field_at(constraint, x)
    with pytest.raises(error, match=match) as step_info:
        next(hug_steps(constraint, x, np.zeros_like(x), 0.1))  # the midpoint is x itself
    assert str(step_info.value) == str(field_info.value)


def _qr_outcome(factor, constraint, x):
    """The bytes of Q and R from ``factor``, or the class and message it raised."""
    try:
        Q, R = factor(constraint, x)
    except Exception as exc:
        return type(exc), str(exc)
    return Q.shape, Q.tobytes(), R.shape, R.tobytes()


# Gaussian entries from a drawn seed, so that most draws are regular
# Jacobians, scaled to tiny or huge; the seed's generator then makes the last
# row nearly parallel to the first in one example in four, and sets one entry
# to the drawn special value (subnormal, zero, huge or not finite) in another
# one in four; hypothesis's own choices would repeat one failure in many
_scales = st.sampled_from([1.0, 1e-300, 1e-160, 1e160, 1e300])
_eps = st.sampled_from([0.0, 1e-13, 1e-10, 1e-7])
_specials = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e300, 5e-324])


@pytest.mark.parametrize("m", [1, 2, 3, 12])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(extra=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), scale=_scales, eps=_eps,
       factor=st.floats(-2.0, 2.0), value=_specials)
@example(extra=1, seed=0, scale=0.0, eps=0.0, factor=0.0, value=0.0)  # rank deficient: J = 0
@example(extra=1, seed=0, scale=np.inf, eps=0.0, factor=0.0, value=0.0)  # not finite
def test_normal_qr_matches_its_numpy_checks(m, extra, seed, scale, eps, factor, value):
    """``normal_qr`` calls numpy's QR gufuncs itself and reads its rank test
    off Python floats; it returns ``np.linalg.qr``'s Q and R bit for bit, or
    raises the reference's error with the same message, on Jacobians with
    non-finite, zero, huge, tiny and near-parallel rows."""
    n = m + extra
    rng = np.random.default_rng(seed)
    J = scale * rng.standard_normal((m, n))
    parallel, special = rng.random(2) < 0.25
    if m > 1 and parallel:
        with np.errstate(all="ignore"):
            J[-1] = factor * J[0] + eps * J[-1]
    if special:
        J[rng.integers(m), rng.integers(n)] = value
    constraint = CallableConstraint(n, m, fn=lambda x: x[:m], jac=lambda x: J)
    x = np.ones(n)
    assert _qr_outcome(normal_qr, constraint, x) == _qr_outcome(normal_qr_reference, constraint, x)


@pytest.mark.parametrize("m", [1, 2, 3, 12])
@pytest.mark.parametrize("n", ["m+1", 1000])
def test_normal_qr_is_numpy_qr_on_regular_jacobians(m, n):
    """On Gaussian Jacobians, which are regular, ``normal_qr`` returns
    ``np.linalg.qr``'s Q and R bit for bit and leaves the Jacobian that the
    constraint hands out as it was."""
    n = m + 1 if n == "m+1" else n
    rng = np.random.default_rng(1000 * m + n)
    for _ in range(5):
        J = rng.standard_normal((m, n))
        J_before = J.copy()
        constraint = CallableConstraint(n, m, fn=lambda x: x[:m], jac=lambda x: J)
        Q, R = normal_qr(constraint, np.ones(n))
        Q_ref, R_ref = np.linalg.qr(J_before.T, mode="reduced")
        assert (Q.shape, R.shape) == ((n, m), (m, m))
        assert Q.tobytes() == Q_ref.tobytes() and R.tobytes() == R_ref.tobytes()
        assert np.array_equal(J, J_before)


def test_unit_normal_is_the_codim1_bundle_basis():
    rng = np.random.default_rng(29)
    q = QuadricConstraint(np.array([[2.0, 0.3], [0.3, 1.0]]))
    for _ in range(5):
        x = random_point(q, rng)
        assert np.array_equal(unit_normal(q, x), build_bundle(q, x)[0][:, 0])
    with pytest.raises(DimensionError):
        unit_normal(SphereSlicedConstraint(3), np.ones(3))  # two gradients, no single normal
    with pytest.raises(DimensionError):
        SphereSlicedConstraint(3).gradient(np.ones(3))


class _ListJacobian(ConstraintMap):
    """The map ``twin`` with its Jacobian returned as nested lists."""

    def __init__(self, twin):
        self.twin, self.ambient_dim, self.codim = twin, twin.ambient_dim, twin.codim

    def value(self, x):
        return self.twin.value(x)

    def jacobian(self, x):
        return self.twin.jacobian(x).tolist()


def test_list_jacobian_reads_as_its_array_twin():
    """``checked_jacobian`` converts a Jacobian that is not a float array:
    the codim-2 factor and the default codim-1 ``gradient`` match the array
    twin's bit for bit."""
    rng = np.random.default_rng(30)
    sliced = SphereSlicedConstraint(4)
    x = random_point(sliced, rng)
    listed, twin = normal_qr(_ListJacobian(sliced), x), normal_qr(sliced, x)
    assert np.array_equal(listed[0], twin[0])
    assert np.array_equal(listed[1], twin[1])
    q = QuadricConstraint(np.array([[2.0, 0.3], [0.3, 1.0]]))
    x = random_point(q, rng)
    assert np.array_equal(_ListJacobian(q).gradient(x), q.gradient(x))


def test_rank_deficient_jacobian_raises():
    # two proportional components make J rank 1 everywhere
    c = CallableConstraint(
        ambient_dim=3,
        codim=2,
        fn=lambda x: np.array([x @ x, 2.0 * (x @ x)]),
        jac=lambda x: np.vstack([2.0 * x, 4.0 * x]),
    )
    with pytest.raises(SingularGeometryError, match="rank deficient"):
        field_at(c, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_reflect_involution_and_isometry(kind):
    rng = np.random.default_rng(23)
    for _ in range(5):
        c = make_map(kind, rng)
        x = random_point(c, rng)
        Q, _ = build_bundle(c, x)
        N, T = dense_projectors(c, x)
        v = rng.standard_normal(c.ambient_dim)
        rv = reflect(Q, v)
        assert np.isclose(np.linalg.norm(rv), np.linalg.norm(v), atol=1e-13)
        assert np.allclose(reflect(Q, rv), v, atol=1e-13)
        # tangential part fixed, normal part negated
        assert np.allclose(T @ rv, T @ v, atol=1e-13)
        assert np.allclose(N @ rv, -(N @ v), atol=1e-13)


@pytest.mark.parametrize("kind", ["quadric", "sliced"])
def test_nprime_image_kernel_nilpotency_transpose(kind):
    rng = np.random.default_rng(24)
    for _ in range(5):
        c = make_map(kind, rng)
        x = random_point(c, rng)
        N, T = dense_projectors(c, x)
        w = rng.standard_normal(c.ambient_dim)
        P = nprime_perp(c, x, w)
        scale = max(1.0, np.abs(P).max())
        # image inside the normal space: T P = 0
        assert np.abs(T @ P).max() < 1e-12 * scale
        # kernel contains the normal space: P N = 0
        assert np.abs(P @ N).max() < 1e-12 * scale
        # nilpotent of order two
        assert np.abs(P @ P).max() < 1e-12 * scale**2
        # the tangential part is the transpose
        assert np.allclose(nprime_par(c, x, w), P.T)
        assert np.allclose(nprime(c, x, w), P + P.T)


def test_nprime_linear_in_direction():
    rng = np.random.default_rng(25)
    c = make_map("sliced", rng)
    x = random_point(c, rng)
    w1, w2 = rng.standard_normal((2, c.ambient_dim))
    combo = nprime_perp(c, x, 2.0 * w1 - 3.0 * w2)
    parts = 2.0 * nprime_perp(c, x, w1) - 3.0 * nprime_perp(c, x, w2)
    assert np.allclose(combo, parts, atol=1e-13)


def test_nprime_precomputed_slice_matches():
    rng = np.random.default_rng(26)
    c = make_map("quadric", rng)
    x = random_point(c, rng)
    w = rng.standard_normal(c.ambient_dim)
    S = c.hessian_contraction(x, w)
    assert np.allclose(nprime_perp(c, x, w, slice_=S), nprime_perp(c, x, w))


@pytest.mark.parametrize("kind", ["quadric", "sliced"])
def test_nprime_matches_projector_finite_differences(kind):
    """nprime must be the derivative of x -> N(x): central differences of the
    projector converge to it at second order in the step."""
    rng = np.random.default_rng(27)
    c = make_map(kind, rng)
    x = random_point(c, rng)
    w = rng.standard_normal(c.ambient_dim)
    analytic = nprime(c, x, w)
    hs = np.array([4e-3, 2e-3, 1e-3])
    errs = []
    for h in hs:
        Np, _ = dense_projectors(c, x + h * w)
        Nm, _ = dense_projectors(c, x - h * w)
        errs.append(np.abs((Np - Nm) / (2.0 * h) - analytic).max())
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 < slope < 2.3, f"FD convergence slope {slope:.3f}, errors {errs}"


def test_bivariate_quadric_closed_form():
    """For f = -a x1^2 - b x2^2 the tangent-to-normal derivative part has the
    rank-one closed form

        N'_perp(x)[w] = a b (w2 x1 - w1 x2) / (a^2 x1^2 + b^2 x2^2)^2
                        * [a x1, b x2]^T [-b x2, a x1].
    """
    rng = np.random.default_rng(28)
    a, b = 1.0, 4.0
    q = QuadricConstraint(np.diag([a, b]))
    for _ in range(10):
        x = rng.standard_normal(2)
        w = rng.standard_normal(2)
        denom = (a**2 * x[0] ** 2 + b**2 * x[1] ** 2) ** 2
        closed = (
            a * b * (w[1] * x[0] - w[0] * x[1]) / denom
            * np.outer([a * x[0], b * x[1]], [-b * x[1], a * x[0]])
        )
        general = nprime_perp(q, x, w)
        assert np.abs(closed - general).max() < 1e-12
