"""Constraint maps: analytic derivatives against finite differences, validation."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from hugint import constraints
from hugint.cli import main
from hugint.constraints import (
    CallableConstraint,
    ConstraintMap,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from hugint.errors import DimensionError, SingularGeometryError
from hugint.integrator import hug_steps
from hugint.projectors import unit_normal
from oracles import AffineConstraint, hessian_bilinear, hessian_bound_estimates


def fd_only(constraint: ConstraintMap) -> CallableConstraint:
    """Wrap just the value of a map so every derivative uses the FD defaults."""
    return CallableConstraint(
        ambient_dim=constraint.ambient_dim, codim=constraint.codim, fn=constraint.value
    )


def test_quadric_value_and_shapes():
    A = np.diag([1.0, 4.0])
    q = QuadricConstraint(A)
    x = np.array([0.3, -0.2])
    assert q.ambient_dim == 2 and q.codim == 1 and q.ambient_dim - q.codim == 1
    assert np.allclose(q.value(x), [-(0.3**2 + 4 * 0.2**2)])
    assert q.jacobian(x).shape == (1, 2)
    assert q.hessian_contraction(x, np.array([1.0, 0.0])).shape == (1, 2)


def test_quadric_rejects_bad_matrix():
    with pytest.raises(DimensionError):
        QuadricConstraint(np.ones((2, 3)))
    with pytest.raises(ValueError):
        QuadricConstraint(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        QuadricConstraint(np.diag([1.0, -2.0]))  # not positive definite


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_quadric_rejects_a_matrix_that_is_not_finite(entry):
    """A non-finite entry, on or off the diagonal, is named as such, before
    the symmetry test that a NaN would fail and the definiteness test that
    an inf on the diagonal would pass."""
    for A in (np.diag([entry, 4.0]), np.diag([1.0, entry]), np.array([[1.0, entry], [entry, 4.0]])):
        with pytest.raises(ValueError, match="A must be finite"):
            QuadricConstraint(A)


def test_sphere_is_identity_quadric():
    s = SphereConstraint(3)
    assert np.allclose(s.A, np.eye(3))
    x = np.array([0.1, -0.5, 2.0])
    assert np.isclose(s.value(x)[0], -(x @ x))


@pytest.mark.parametrize("n", [2, 3, 6, 10, 1000])
def test_closed_form_sphere_matches_dense_quadric_bitwise(n):
    """Every diagonal quadric, the sphere and ``QuadricConstraint(np.diag(d))``
    alike, has the bits of the dense formulas over A in all five maps: the
    dense products only add exact zeros.  Only a zero's sign differs: -2 d * x
    reads -0.0 at a +0.0 coordinate, where a gemv reads +0.0.  The sphere
    builds no A for any of its maps."""
    rng = np.random.default_rng(n)
    d = rng.uniform(0.25, 4.0, n)
    sphere = SphereConstraint(n)
    for quadric, A in ((sphere, np.eye(n)), (QuadricConstraint(np.diag(d)), np.diag(d))):
        H = -2.0 * A
        for _ in range(5):
            x, w = rng.standard_normal((2, n))
            X = rng.standard_normal((7, n))
            for v in (x, w, X.T):
                v[0] = 0.0
                v[rng.random(v.shape) < 0.25] = 0.0
            gradient, rows = quadric.gradient(x), quadric._gradient(X)
            contraction = quadric.hessian_contraction(x, w)
            assert np.array_equal(quadric.value(x), [-np.vdot(x.dot(A), x)])
            assert np.array_equal(gradient, H.dot(x))
            assert np.array_equal(quadric.jacobian(x), gradient[None, :])
            assert np.array_equal(rows, np.matvec(H, X))
            assert np.array_equal(contraction, (H @ w)[None, :])
            # -2 d < 0 flips every sign, a zero's too
            for got, arg in ((gradient, x), (rows, X), (contraction[0], w)):
                assert np.array_equal(np.signbit(got), ~np.signbit(arg))
        assert quadric.hessian_norm_bound() == 2.0 * np.linalg.eigvalsh(A)[-1]
    assert "A" not in sphere.__dict__
    assert sphere.hessian_norm_bound() == 2.0
    assert np.array_equal(sphere.A, np.eye(n))
    assert isinstance(sphere, QuadricConstraint)


@pytest.mark.parametrize(
    "A",
    [np.diag([1.0, 4.0, 2.0]), np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])],
    ids=["diagonal", "dense"],
)
def test_infinite_coordinate_reads_as_a_gradient_that_is_not_finite(A):
    """A gemv turns an inf coordinate into NaN entries (0 * inf), the closed
    form into finite entries around one inf; both give g.g = inf, which the
    unit normal reports as a gradient that is not finite."""
    quadric = QuadricConstraint(A)
    with np.errstate(invalid="ignore"):  # numpy's gemv warns of the 0 * inf
        with pytest.raises(SingularGeometryError, match="gradient is not finite"):
            unit_normal(quadric, np.array([np.inf, 0.5, 0.5]))


def test_dense_quadric_at_an_infinite_coordinate_raises_without_a_warning():
    """At x = (inf, 1, 0) the dense gemv meets 0 * inf; like the diagonal
    form, the gradient is not finite, the value is not finite either, and
    neither path warns, inside the step or out of it."""
    A = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]])
    x = np.array([np.inf, 1.0, 0.0])
    for quadric in (QuadricConstraint(A), QuadricConstraint(np.diag(np.diag(A)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for normal in (
                lambda: unit_normal(quadric, x),
                lambda: next(hug_steps(quadric, x, np.zeros(3), 0.1)),  # the midpoint is x
            ):
                with pytest.raises(SingularGeometryError, match="gradient is not finite"):
                    normal()
            assert not np.isfinite(quadric.value(x)).any()
            assert not np.isfinite(quadric._gradient(x[None])).all()


def test_quadric_derivatives_match_the_formula_bitwise():
    """The gradient -2 A x and the contraction -2 A w, with -2 A formed once
    at construction, give the bits of the formula evaluated per call.  The
    ``gradient`` of every codim-1 map, closed form or not, is row 0 of its
    ``jacobian`` bit for bit, on contiguous and strided points."""
    A = np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 3.0]])
    quadric = QuadricConstraint(A)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x, w = rng.standard_normal((2, 3))
        assert np.array_equal(quadric.jacobian(x), (-2.0 * A @ x)[None, :])
        assert np.array_equal(quadric.hessian_contraction(x, w), (-2.0 * A @ w)[None, :])
    for n in (2, 3, 1000):
        B = rng.standard_normal((n, n))
        A = B @ B.T / n + np.eye(n)
        dense = QuadricConstraint(A)
        maps = [
            SphereConstraint(n),
            dense,
            CallableConstraint(n, 1, fn=dense.value, jac=dense.jacobian),
            fd_only(SphereConstraint(n)),
        ]
        X = rng.standard_normal((n, 2))
        for x in (X[:, 0], np.ascontiguousarray(X[:, 1])):
            assert np.array_equal(dense.gradient(x), -2.0 * A @ x)
            for constraint in maps:
                g = constraint.gradient(x)
                assert g.shape == (n,)
                assert np.array_equal(g, constraint.jacobian(x)[0])


def test_quadratic_form_keeps_its_bits_and_overflows_to_minus_inf():
    """A finite value has the bits of -x @ A @ x, on contiguous and strided
    points alike; a form too large for a float reads -inf without a warning
    (``RuntimeWarning`` fails the suite)."""
    A = np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 3.0]])
    quadric = QuadricConstraint(A)
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = rng.standard_normal((3, 2))
        for x in (X[:, 0], np.ascontiguousarray(X[:, 1])):
            assert np.array_equal(quadric.value(x), np.array([-x @ A @ x]))
    huge = np.array([1e300, 1e300, 0.0])
    assert quadric.value(huge)[0] == -np.inf
    assert SphereConstraint(3).value(huge)[0] == -np.inf


def test_chain_on_sphere_target_reads_its_identity_matrix(tmp_path, capsys):
    """``chain`` takes the target moments 0.5 diag(A^-1) from the lazily built A."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"constraint": {"kind": "sphere", "dim": 2}}))
    argv = ["chain", "--iterations", "50", "--config", str(config_file), "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["target_second_moments"] == [0.5, 0.5]


@pytest.mark.parametrize("dim", [0, -1])
def test_sphere_refuses_a_dimension_below_one(dim, tmp_path, capsys):
    """``SphereConstraint`` refuses ambient_dim < 1, and a config file's
    sphere of that dim is a configuration error, exit 2 before any file."""
    with pytest.raises(ValueError, match=f"ambient_dim must be >= 1, got {dim}"):
        SphereConstraint(dim)
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"constraint": {"kind": "sphere", "dim": dim}}))
    out = tmp_path / "out"
    assert main(["ellipsoid", "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: bad constraint spec: ambient_dim must be >= 1, got {dim}" in err
    assert "Traceback" not in err and not out.exists()


def test_affine_validation_and_zero_hessian():
    B = np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]])
    c = np.array([0.5, -1.0])
    a = AffineConstraint(B, c)
    x = np.array([1.0, 0.0, 2.0])
    assert np.allclose(a.value(x), B @ x - c)
    assert np.allclose(a.jacobian(x), B)
    assert np.allclose(hessian_bilinear(a, x, x, x), 0.0)
    assert np.allclose(a.hessian_contraction(x, x), 0.0)
    with pytest.raises(DimensionError):
        AffineConstraint(np.ones((3, 3)))  # not m < n
    with pytest.raises(ValueError):
        AffineConstraint(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))  # rank deficient


def test_sliced_needs_three_dims():
    with pytest.raises(DimensionError):
        SphereSlicedConstraint(2)


@pytest.mark.parametrize(
    "constraint",
    [
        QuadricConstraint(np.array([[2.0, 0.5], [0.5, 1.0]])),
        SphereSlicedConstraint(3),
        SphereSlicedConstraint(4),
    ],
    ids=["quadric", "sliced3", "sliced4"],
)
def test_analytic_jacobian_matches_fd(constraint):
    rng = np.random.default_rng(11)
    proxy = fd_only(constraint)
    for _ in range(5):
        x = rng.standard_normal(constraint.ambient_dim)
        gap = np.abs(constraint.jacobian(x) - proxy.jacobian(x)).max()
        assert gap < 1e-8, f"jacobian mismatch {gap:.2e} at {x}"


@pytest.mark.parametrize(
    "constraint",
    [
        QuadricConstraint(np.array([[2.0, 0.5], [0.5, 1.0]])),
        SphereSlicedConstraint(3),
        SphereConstraint(4),
        AffineConstraint(np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]])),
    ],
    ids=["quadric", "sliced", "sphere", "affine"],
)
def test_analytic_hessian_matches_fd(constraint):
    """Differencing the analytic Jacobian once recovers the analytic Hessian
    tightly; the value-only fallback differences twice and carries ~1e-5 of
    rounding noise, so it only gets a loose check."""
    rng = np.random.default_rng(12)
    single_fd = CallableConstraint(
        ambient_dim=constraint.ambient_dim,
        codim=constraint.codim,
        fn=constraint.value,
        jac=constraint.jacobian,
    )
    nested_fd = fd_only(constraint)
    for _ in range(5):
        x = rng.standard_normal(constraint.ambient_dim)
        u = rng.standard_normal(constraint.ambient_dim)
        u /= np.linalg.norm(u)
        w = rng.standard_normal(constraint.ambient_dim)
        w /= np.linalg.norm(w)
        exact = hessian_bilinear(constraint, x, u, w)
        tight = np.abs(exact - hessian_bilinear(single_fd, x, u, w)).max()
        loose = np.abs(exact - hessian_bilinear(nested_fd, x, u, w)).max()
        assert tight < 1e-7, f"hessian mismatch {tight:.2e} at {x}"
        assert loose < 2e-4, f"nested-FD hessian mismatch {loose:.2e} at {x}"


@pytest.mark.parametrize(
    "constraint",
    [
        QuadricConstraint(np.array([[2.0, 0.5], [0.5, 1.0]])),
        AffineConstraint(np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]])),
        SphereSlicedConstraint(3),
    ],
    ids=["quadric", "affine", "sliced"],
)
def test_contraction_consistent_with_bilinear(constraint):
    """The contraction H(x)[w, .] is linear in w, so hessian_bilinear built on
    it is a bilinear form: H[u, a w1 + b w2] == a H[u, w1] + b H[u, w2]."""
    rng = np.random.default_rng(13)
    n = constraint.ambient_dim
    for _ in range(5):
        x, u, w1, w2 = rng.standard_normal((4, n))
        a, b = rng.standard_normal(2)
        combined = constraint.hessian_contraction(x, a * w1 + b * w2)
        separate = a * constraint.hessian_contraction(x, w1) + b * constraint.hessian_contraction(
            x, w2
        )
        assert np.abs(combined - separate).max() < 1e-12
        gap = hessian_bilinear(constraint, x, u, a * w1 + b * w2) - (
            a * hessian_bilinear(constraint, x, u, w1) + b * hessian_bilinear(constraint, x, u, w2)
        )
        assert np.abs(gap).max() < 1e-12


def test_hessian_bilinear_symmetric_in_slots():
    c = SphereSlicedConstraint(3)
    rng = np.random.default_rng(14)
    x, u, w = rng.standard_normal((3, 3))
    assert np.abs(hessian_bilinear(c, x, u, w) - hessian_bilinear(c, x, w, u)).max() < 1e-12


@pytest.mark.parametrize(
    "constraint",
    [
        QuadricConstraint(np.array([[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 1.5]])),
        SphereConstraint(4),
        AffineConstraint(np.array([[1.0, 2.0, -1.0], [0.0, 1.0, 1.0]])),
        SphereSlicedConstraint(4),
    ],
    ids=["quadric", "sphere", "affine", "sliced"],
)
def test_hessian_bilinear_is_symmetric(constraint):
    """H(x)[u, w] == H(x)[w, u]: each component's Hessian is symmetric, so a
    contraction that reads a row where it should read a column breaks this."""
    rng = np.random.default_rng(13)
    n = constraint.ambient_dim
    for _ in range(5):
        x, u, w = rng.standard_normal((3, n))
        gap = np.abs(hessian_bilinear(constraint, x, u, w) - hessian_bilinear(constraint, x, w, u))
        assert gap.max() < 1e-12


def test_fd_contraction_makes_two_jacobian_calls():
    """The default contraction is one central difference of the Jacobian
    along w, whatever the dimension."""
    calls = []

    def jac(x):
        calls.append(x)
        return np.array([2.0 * x])

    c = CallableConstraint(ambient_dim=10, codim=1, fn=lambda x: np.array([x @ x]), jac=jac)
    rng = np.random.default_rng(16)
    x, w = rng.standard_normal((2, 10))
    M = c.hessian_contraction(x, w)
    assert len(calls) == 2
    assert M.shape == (1, 10)
    assert np.allclose(M, 2.0 * w[None, :], atol=1e-8)


def test_sphere_bilinear_builds_no_dense_matrix():
    """The sphere's bilinear form comes from its O(n) contraction, so the
    lazily built A = I is never formed."""
    sphere = SphereConstraint(1000)
    rng = np.random.default_rng(17)
    x, u, w = rng.standard_normal((3, 1000))
    assert np.array_equal(hessian_bilinear(sphere, x, u, w), [-2.0 * w @ u])
    assert "A" not in sphere.__dict__


def test_callable_constraint_fd_fallbacks():
    fn = lambda x: np.array([np.sin(x[0]) + x[1] ** 2])
    c = CallableConstraint(ambient_dim=2, codim=1, fn=fn)
    x = np.array([0.4, -0.3])
    assert np.allclose(c.jacobian(x), [[np.cos(0.4), -0.6]], atol=1e-8)
    # second derivatives: diag(-sin(x1), 2)
    got = hessian_bilinear(c, x, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.isclose(got[0], -np.sin(0.4), atol=1e-5)


def test_callable_constraint_shape_check():
    c = CallableConstraint(ambient_dim=3, codim=2, fn=lambda x: np.array([x[0]]))
    with pytest.raises(DimensionError):
        c.value(np.zeros(3))


@pytest.mark.parametrize("ambient_dim,codim", [(2, 3), (2, 2), (3, 0), (3, -1)])
def test_callable_constraint_refuses_a_codim_outside_one_to_n(ambient_dim, codim):
    """A level set of R^n needs 1 <= m < n components: at m >= n the thin QR
    of the (m, n) Jacobian is no basis, and m = 0 has no normal space."""
    with pytest.raises(DimensionError, match="need 1 <= codim <"):
        CallableConstraint(ambient_dim, codim, fn=lambda x: x[:codim])


def test_check_point_shape():
    q = SphereConstraint(3)
    with pytest.raises(DimensionError):
        q.value(np.zeros(4))
    with pytest.raises(DimensionError):
        q.value(np.zeros((3, 1)))


@pytest.mark.parametrize("shape", [(), (1,), (4,), (2, 3)], ids=str)
@pytest.mark.parametrize(
    "constraint",
    [SphereConstraint(3), QuadricConstraint(np.array([[2, 0.5, 0], [0.5, 1, 0.2], [0, 0.2, 3]])),
     SphereSlicedConstraint(3), CallableConstraint(3, 1, fn=lambda x: np.array([-(x @ x)]))],
    ids=["sphere", "dense-quadric", "sliced", "callable"],
)
def test_hessian_contraction_refuses_a_w_not_of_shape_n(constraint, shape):
    """w is checked as the point x is: a scalar or a (1,) w would broadcast
    into a wrong result, and the sliced sphere would raise an IndexError."""
    with pytest.raises(DimensionError, match=r"expected point of shape \(3,\)"):
        constraint.hessian_contraction(np.eye(3)[0], np.ones(shape))


def test_sliced_value_overflows_to_minus_inf_with_the_bits_of_its_dot():
    """f_1 = -x.x reads -inf without a warning past a float, as the quadric's
    form does, and at a finite x has the bits of -x @ x."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SphereSlicedConstraint(3).value(np.array([1e200, 0.0, 0.0]))[0] == -np.inf
    rng = np.random.default_rng(21)
    for n in rng.integers(3, 1001, size=200):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
        assert SphereSlicedConstraint(int(n)).value(x)[0] == -x @ x


@pytest.mark.parametrize("n", [1, 2, 3, 6, 50, 1000])
def test_vdot_is_numpys_c_vdot_bit_for_bit(n):
    """The dots that overflow without a warning (the quadric's form, the sliced
    sphere's -x . x and the codim-1 step's g . g) call numpy's C ``vdot``, the
    builtin that ``np.vdot`` dispatches to, and read ``np.vdot``'s bits at
    every scale 10^k, k in [-150, 150]; at [1e200, 3] it reads inf and does
    not warn."""
    assert constraints._vdot is np.vdot._implementation
    rng = np.random.default_rng(n)
    for k in range(-150, 151, 5):
        a, b = rng.standard_normal((2, n)) * 10.0**k
        for x, y in ((a, b), (a, a), (b, a[::-1])):
            assert constraints._vdot(x, y).tobytes() == np.vdot(x, y).tobytes()
    huge = np.array([1e200, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert constraints._vdot(huge, huge) == np.inf


def test_hessian_bounds_quadric_exact():
    """For f = -x^T A x the Hessian is the constant -2A: the operator-norm
    bound is 2 lambda_max(A) and the Lipschitz constant is zero."""
    q = QuadricConstraint(np.diag([1.0, 4.0]))
    points = np.array([[1.0, 0.0], [0.8, 0.3], [0.5, 0.43]])
    beta, gamma = hessian_bound_estimates(q, points, n_probes=6, seed=3)
    assert np.isclose(beta, q.hessian_norm_bound(), rtol=1e-6)
    assert gamma == 0.0


def test_hessian_bounds_sliced_positive():
    c = SphereSlicedConstraint(3)
    rng = np.random.default_rng(15)
    points = rng.standard_normal((4, 3))
    beta, gamma = hessian_bound_estimates(c, points, n_probes=6, seed=4)
    # the -x.x component alone contributes operator norm 2
    assert beta >= 2.0 - 1e-9
    assert gamma >= 0.0
