"""Projector bundles and the directional derivative of the normal projector."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import MAP_KINDS, make_map
from hugint.constraints import (
    CallableConstraint,
    ConstraintMap,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from hugint.errors import DimensionError, SingularGeometryError
from hugint.integrator import hug_step
from hugint.projectors import (
    build_bundle,
    nprime,
    nprime_par,
    nprime_perp,
    reflect,
    unit_normal,
)


def random_point(constraint, rng):
    x = rng.standard_normal(constraint.ambient_dim)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_bundle_projector_algebra(kind):
    rng = np.random.default_rng(21)
    for _ in range(10):
        c = make_map(kind, rng)
        b = build_bundle(c, random_point(c, rng))
        n = c.ambient_dim
        eye = np.eye(n)
        assert np.allclose(b.normal + b.tangent, eye, atol=1e-13)
        assert np.allclose(b.normal @ b.normal, b.normal, atol=1e-13)
        assert np.allclose(b.tangent @ b.tangent, b.tangent, atol=1e-13)
        assert np.allclose(b.normal, b.normal.T, atol=1e-14)
        assert np.allclose(b.normal @ b.tangent, 0.0, atol=1e-13)
        # basis is an orthonormal frame of the normal space
        assert np.allclose(b.basis.T @ b.basis, np.eye(c.codim), atol=1e-13)
        assert np.allclose(b.basis @ b.basis.T, b.normal, atol=1e-13)
        # J rows lie in the normal space, the pseudoinverse inverts them
        assert np.allclose(c.jacobian(b.x) @ b.tangent, 0.0, atol=1e-11)
        assert np.allclose(c.jacobian(b.x) @ b.pseudo, np.eye(c.codim), atol=1e-11)


@pytest.mark.parametrize("make", [SphereConstraint, SphereSlicedConstraint],
                         ids=["sphere", "sliced"])
def test_bundle_stores_o_of_n_m_numbers(make):
    """A bundle stores x, Q and J^+ only: at n = 2000 that is well under
    1 MB, where two dense n-by-n projectors would take 64 MB.  The dense
    projectors are still there on request."""
    c = make(2000)
    x = np.full(2000, 1.0 / np.sqrt(2000.0))
    b = build_bundle(c, x)
    stored = {f.name: getattr(b, f.name) for f in dataclasses.fields(b)}
    assert set(stored) == {"x", "basis", "pseudo"}
    assert sum(value.nbytes for value in stored.values()) < 1_000_000

    small = make(5)
    b = build_bundle(small, np.full(5, 1.0 / np.sqrt(5.0)))
    Q = b.basis
    assert np.array_equal(b.normal, Q @ Q.T)
    assert np.array_equal(b.tangent, np.eye(5) - Q @ Q.T)


def test_codim1_path_matches_explicit_qr():
    """The m = 1 shortcut must produce the same bundle as a hand-rolled QR."""
    rng = np.random.default_rng(22)
    q = QuadricConstraint(np.array([[2.0, 0.3], [0.3, 1.0]]))
    for _ in range(5):
        x = random_point(q, rng)
        b = build_bundle(q, x)
        J = q.jacobian(x)
        Q, R = np.linalg.qr(J.T)
        sign = -1.0 if R[0, 0] < 0 else 1.0
        Q, R = Q * sign, R * sign
        assert np.allclose(b.basis, Q, atol=1e-13)
        assert np.allclose(b.pseudo, Q / R[0, 0], atol=1e-13)
        assert np.allclose(b.normal, Q @ Q.T, atol=1e-13)


def test_singular_gradient_raises_with_point():
    q = SphereConstraint(2)
    with pytest.raises(SingularGeometryError, match="gradient vanishes") as info:
        build_bundle(q, np.zeros(2))
    assert np.allclose(info.value.x, 0.0)


@pytest.mark.parametrize("constraint", [SphereConstraint(3), SphereSlicedConstraint(3)],
                         ids=["codim1", "codim2"])
def test_non_finite_point_raises_with_point(constraint):
    with pytest.raises(SingularGeometryError) as info:
        build_bundle(constraint, np.array([np.nan, 0.5, 0.5]))
    assert np.isnan(info.value.x[0])


_BAD_GEOMETRY = {
    "zero-gradient": (SphereConstraint(2), np.zeros(2), SingularGeometryError),
    "non-finite-point": (SphereConstraint(3), np.array([np.nan, 0.5, 0.5]), SingularGeometryError),
    "infinite-gradient": (SphereConstraint(3), np.array([np.inf, 0.5, 0.5]), SingularGeometryError),
    "jacobian-too-long": (
        CallableConstraint(3, 1, fn=lambda x: x[:1], jac=lambda x: np.ones(4)),
        np.ones(3),
        DimensionError,
    ),
    "jacobian-two-rows": (
        CallableConstraint(3, 1, fn=lambda x: x[:1], jac=lambda x: np.ones((2, 3))),
        np.ones(3),
        DimensionError,
    ),
    "point-wrong-shape": (SphereConstraint(3), np.ones(2), DimensionError),
}


@pytest.mark.parametrize("case", _BAD_GEOMETRY)
def test_unit_normal_raises_as_build_bundle_does(case):
    """The codim-1 step takes its normal from ``unit_normal`` and builds no
    bundle, so every geometry check must raise the same error class on both
    routes and through ``hug_step``; a shape error already in ``gradient``."""
    constraint, x, error = _BAD_GEOMETRY[case]
    with pytest.raises(error):
        build_bundle(constraint, x)
    with pytest.raises(error):
        unit_normal(constraint, x)
    with pytest.raises(error):
        hug_step(constraint, x, np.zeros_like(x), 0.1)  # the midpoint is x itself
    if error is DimensionError:
        with pytest.raises(error):
            constraint.gradient(x)


def test_unit_normal_is_the_codim1_bundle_basis():
    rng = np.random.default_rng(29)
    q = QuadricConstraint(np.array([[2.0, 0.3], [0.3, 1.0]]))
    for _ in range(5):
        x = random_point(q, rng)
        assert np.array_equal(unit_normal(q, x), build_bundle(q, x).basis[:, 0])
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
    the codim-2 bundle and the default codim-1 ``gradient`` match the array
    twin's bit for bit."""
    rng = np.random.default_rng(30)
    sliced = SphereSlicedConstraint(4)
    x = random_point(sliced, rng)
    listed, twin = build_bundle(_ListJacobian(sliced), x), build_bundle(sliced, x)
    assert np.array_equal(listed.basis, twin.basis)
    assert np.array_equal(listed.pseudo, twin.pseudo)
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
        build_bundle(c, np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_reflect_involution_and_isometry(kind):
    rng = np.random.default_rng(23)
    for _ in range(5):
        c = make_map(kind, rng)
        b = build_bundle(c, random_point(c, rng))
        v = rng.standard_normal(c.ambient_dim)
        rv = reflect(b, v)
        assert np.isclose(np.linalg.norm(rv), np.linalg.norm(v), atol=1e-13)
        assert np.allclose(reflect(b, rv), v, atol=1e-13)
        # tangential part fixed, normal part negated
        assert np.allclose(b.tangent @ rv, b.tangent @ v, atol=1e-13)
        assert np.allclose(b.normal @ rv, -(b.normal @ v), atol=1e-13)


@pytest.mark.parametrize("kind", ["quadric", "sliced"])
def test_nprime_image_kernel_nilpotency_transpose(kind):
    rng = np.random.default_rng(24)
    for _ in range(5):
        c = make_map(kind, rng)
        x = random_point(c, rng)
        b = build_bundle(c, x)
        w = rng.standard_normal(c.ambient_dim)
        P = nprime_perp(c, b, w)
        scale = max(1.0, np.abs(P).max())
        # image inside the normal space: T P = 0
        assert np.abs(b.tangent @ P).max() < 1e-12 * scale
        # kernel contains the normal space: P N = 0
        assert np.abs(P @ b.normal).max() < 1e-12 * scale
        # nilpotent of order two
        assert np.abs(P @ P).max() < 1e-12 * scale**2
        # the tangential part is the transpose
        assert np.allclose(nprime_par(c, b, w), P.T)
        assert np.allclose(nprime(c, b, w), P + P.T)


def test_nprime_linear_in_direction():
    rng = np.random.default_rng(25)
    c = make_map("sliced", rng)
    x = random_point(c, rng)
    b = build_bundle(c, x)
    w1, w2 = rng.standard_normal((2, c.ambient_dim))
    combo = nprime_perp(c, b, 2.0 * w1 - 3.0 * w2)
    parts = 2.0 * nprime_perp(c, b, w1) - 3.0 * nprime_perp(c, b, w2)
    assert np.allclose(combo, parts, atol=1e-13)


def test_nprime_precomputed_slice_matches():
    rng = np.random.default_rng(26)
    c = make_map("quadric", rng)
    x = random_point(c, rng)
    b = build_bundle(c, x)
    w = rng.standard_normal(c.ambient_dim)
    S = c.hessian_contraction(x, w)
    assert np.allclose(nprime_perp(c, b, w, slice_=S), nprime_perp(c, b, w))


@pytest.mark.parametrize("kind", ["quadric", "sliced"])
def test_nprime_matches_projector_finite_differences(kind):
    """nprime must be the derivative of x -> N(x): central differences of the
    projector converge to it at second order in the step."""
    rng = np.random.default_rng(27)
    c = make_map(kind, rng)
    x = random_point(c, rng)
    w = rng.standard_normal(c.ambient_dim)
    analytic = nprime(c, build_bundle(c, x), w)
    hs = np.array([4e-3, 2e-3, 1e-3])
    errs = []
    for h in hs:
        Np = build_bundle(c, x + h * w).normal
        Nm = build_bundle(c, x - h * w).normal
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
        general = nprime_perp(q, build_bundle(q, x), w)
        assert np.abs(closed - general).max() < 1e-12
