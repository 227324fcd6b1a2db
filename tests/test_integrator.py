"""The discrete step: dual-route equivalence, exact invariants, bookkeeping."""

from __future__ import annotations

import warnings
from itertools import islice

import numpy as np
import pytest

from conftest import MAP_KINDS, fenced_ellipsoid, random_run
from hugint import integrator
from hugint.constraints import QuadricConstraint, SphereConstraint, SphereSlicedConstraint
from hugint.errors import DimensionError, SingularGeometryError
from hugint.experiments import BENCH_DIAG, BENCH_V0, BENCH_X0, ELLIPSOID_DIAGS
from hugint.integrator import (
    HugParams,
    PhaseState,
    hug_steps,
    hug_steps_rows,
    hug_trajectory,
    level_drift_bound,
)
from oracles import eliminated_step, step_rows_reference, trajectory_reference


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        PhaseState(np.zeros((2, 1)), np.zeros((2, 1)))
    s = PhaseState([1, 0], [0, 1])  # lists are coerced to float arrays
    assert s.x.dtype == float and s.v.dtype == float


def test_hug_params_validation():
    with pytest.raises(ValueError):
        HugParams(step_size=0.0, steps=1)
    with pytest.raises(ValueError):
        HugParams(step_size=np.inf, steps=1)
    with pytest.raises(ValueError):
        HugParams(step_size=0.1, steps=-1)
    assert HugParams(step_size=0.1, steps=0).steps == 0


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_step_matches_eliminated_form(kind):
    """The two algebraic forms of the update must produce identical states."""
    rng = np.random.default_rng(31)
    for _ in range(5):
        constraint, x0, v0, delta, _ = random_run(kind, rng)
        xa, va = next(hug_steps(constraint, x0, v0, delta))
        xb, vb = eliminated_step(constraint, x0, v0, delta)
        assert np.abs(xa - xb).max() < 1e-13
        assert np.abs(va - vb).max() < 1e-13


def test_trajectory_bookkeeping():
    constraint = QuadricConstraint(np.diag([1.0, 4.0]))
    initial = PhaseState([np.cos(1.0), 0.5 * np.sin(1.0)], [0.0, 1.0])
    params = HugParams(step_size=0.05, steps=7)
    t = hug_trajectory(constraint, initial, params)
    assert t.times.shape == (8,) and np.allclose(t.times, 0.05 * np.arange(8))
    assert t.xs.shape == (8, 2) and t.vs.shape == (8, 2)
    assert t.midpoints.shape == (7, 2)
    assert np.allclose(t.midpoints, t.xs[:-1] + 0.025 * t.vs[:-1])
    assert t.level_drift.shape == (8,) and t.level_drift[0] == 0.0
    assert np.allclose(t.final.x, t.xs[-1])
    # replaying single steps reproduces the trajectory
    x, v = initial.x, initial.v
    for k in range(7):
        x, v = next(hug_steps(constraint, x, v, 0.05))
        assert np.allclose(t.xs[k + 1], x) and np.allclose(t.vs[k + 1], v)


TRAJECTORY_CASES = ("sphere1000", "sliced1000", "quadric", "callable")


def _trajectory_case(kind: str):
    """(constraint, initial, params): 20 steps on the sphere and the sliced
    sphere at n = 1000, as in perfbench ``highdim``, 40 on the 2-D benchmark
    quadric, and 40 on the 3-D ellipsoid preset as a ``CallableConstraint``."""
    if kind in ("sphere1000", "sliced1000"):
        constraint = SphereConstraint(1000) if kind == "sphere1000" else SphereSlicedConstraint(1000)
        x0, v0 = np.random.default_rng(24).standard_normal((2, 1000))
        start = PhaseState(x0 / np.linalg.norm(x0), v0 / np.linalg.norm(v0))
        return constraint, start, HugParams(0.05, 20)
    if kind == "quadric":
        constraint = QuadricConstraint(np.diag(BENCH_DIAG))
        return constraint, PhaseState(BENCH_X0, BENCH_V0), HugParams(0.05, 40)
    start = PhaseState([1.0, 0.0, 0.0], [0.0, 0.6, -0.8])
    return fenced_ellipsoid(np.inf), start, HugParams(0.05, 40)


@pytest.mark.parametrize("kind", TRAJECTORY_CASES)
def test_trajectory_fields_are_bitwise_the_eager_recorder(kind):
    """Stored and derived fields alike have the bits of the trajectory that
    recorded times, midpoints and levels as it stepped.  The callable case
    compares two BLAS routes: its level drift takes ``x @ A @ x`` on rows of
    the record against the stream's fresh arrays, which round alike under the
    SkylakeX and Haswell OpenBLAS kernels, not under Prescott, whose dot
    rounds by its operands' alignment."""
    constraint, initial, params = _trajectory_case(kind)
    t = hug_trajectory(constraint, initial, params)
    expected = trajectory_reference(constraint, initial, params)
    for name, array in expected.items():
        assert np.array_equal(getattr(t, name), array), name
    assert np.array_equal(t.final.x, expected["xs"][-1])


@pytest.mark.parametrize("kind", TRAJECTORY_CASES)
def test_trajectory_evaluates_the_constraint_only_for_level_drift(kind):
    """``hug_trajectory`` makes no ``value`` call, nor does reading any field
    but the level drift; each read of ``level_drift`` makes one call per
    state, and every read has the same bits."""
    constraint, initial, params = _trajectory_case(kind)
    value, calls = constraint.value, []

    def counting_value(x):
        calls.append(x)
        return value(x)

    constraint.value = counting_value
    t = hug_trajectory(constraint, initial, params)
    for name in ("times", "midpoints", "speeds", "final"):
        getattr(t, name)
    assert calls == []
    drift = t.level_drift
    assert len(calls) == params.steps + 1 and drift.shape == (params.steps + 1,)
    assert np.array_equal(t.level_drift, drift)
    assert len(calls) == 2 * (params.steps + 1)


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_speed_and_segment_lengths_exact(kind):
    rng = np.random.default_rng(32)
    for _ in range(5):
        constraint, x0, v0, delta, steps = random_run(kind, rng)
        t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(delta, steps))
        speed0 = np.linalg.norm(v0)
        assert np.abs(t.speeds - speed0).max() < 1e-12
        half = 0.5 * delta * speed0
        first = np.linalg.norm(t.midpoints - t.xs[:-1], axis=1)
        second = np.linalg.norm(t.xs[1:] - t.midpoints, axis=1)
        assert np.abs(first - half).max() < 1e-12
        assert np.abs(second - half).max() < 1e-12


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_reversibility(kind):
    """Negating the final velocity and stepping back retraces the trajectory."""
    rng = np.random.default_rng(33)
    for _ in range(5):
        constraint, x0, v0, delta, steps = random_run(kind, rng)
        params = HugParams(delta, steps)
        forward = hug_trajectory(constraint, PhaseState(x0, v0), params)
        back = hug_trajectory(
            constraint, PhaseState(forward.final.x, -forward.final.v), params
        )
        assert np.abs(back.final.x - x0).max() < 1e-10
        assert np.abs(-back.final.v - v0).max() < 1e-10


def test_zero_steps_trajectory():
    constraint = SphereConstraint(3)
    initial = PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t = hug_trajectory(constraint, initial, HugParams(0.1, 0))
    assert t.times.shape == (1,) and t.midpoints.shape == (0, 3)
    assert np.allclose(t.level_drift, 0.0)


def test_level_drift_bound_values():
    # closed form: (delta^2 / 12) speed^2 (3 beta + gamma (K-1) delta speed)
    assert level_drift_bound(0.1, 0, 2.0, 5.0, 1.0) == 0.0
    got = level_drift_bound(0.1, 4, 2.0, 5.0, 1.0)
    expected = (0.01 / 12.0) * 4.0 * (15.0 + 1.0 * 3 * 0.1 * 2.0)
    assert np.isclose(got, expected, rtol=1e-15)


def test_sphere_level_exactly_preserved():
    """On an isotropic quadric the iterates stay on the level set to rounding."""
    rng = np.random.default_rng(34)
    constraint = QuadricConstraint(0.7 * np.eye(3))
    x0 = rng.standard_normal(3)
    v0 = rng.standard_normal(3)
    t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(0.05, 200))
    assert t.level_drift.max() < 1e-12


def test_phase_volume_preserved_fd():
    """|det| of the finite-difference Jacobian of one step is 1; the sign is
    (-1)^m because the reflection flips orientation once per constraint
    component."""
    rng = np.random.default_rng(35)
    for kind, expected_sign in [("quadric", -1.0), ("sliced", 1.0)]:
        constraint, x0, v0, delta, _ = random_run(kind, rng)
        n = x0.size
        z0 = np.concatenate([x0, v0])
        h = 1e-5
        cols = []
        for i in range(2 * n):
            e = np.zeros(2 * n)
            e[i] = h
            xp, vp = next(hug_steps(constraint, (z0 + e)[:n], (z0 + e)[n:], delta))
            xm, vm = next(hug_steps(constraint, (z0 - e)[:n], (z0 - e)[n:], delta))
            cols.append((np.concatenate([xp, vp]) - np.concatenate([xm, vm])) / (2 * h))
        det = np.linalg.det(np.array(cols).T)
        assert abs(abs(det) - 1.0) < 1e-6, f"{kind}: |det| = {abs(det)}"
        assert np.sign(det) == expected_sign


def test_singular_start_raises():
    constraint = SphereConstraint(2)
    with pytest.raises(SingularGeometryError):
        # the first midpoint lands exactly on the gradient zero at the origin
        next(hug_steps(constraint, np.array([-0.05, 0.0]), np.array([1.0, 0.0]), 0.1))


#: Starts of the wrong shape on the 3-D maps: a column x and a 1-vector v
#: broadcast against the right shapes, and an (n + 1,) pair does not.
_BAD_STARTS = {
    "x-column": lambda x, v: (x[:, None], v),
    "x-long": lambda x, v: (np.append(x, 0.0), v),
    "v-short": lambda x, v: (x, v[:1]),
    "xv-long": lambda x, v: (np.append(x, 0.0), np.append(v, 0.0)),
}


@pytest.mark.parametrize("bad", _BAD_STARTS)
@pytest.mark.parametrize("kind", ["quadric", "callable", "sliced"])
def test_stream_checks_its_start_at_the_first_next(kind, bad):
    """A start x or v not of shape (n,) raises ``DimensionError`` at the first
    ``next``, at codimension 1, where a quadric reads its midpoints' gradients
    without a point check, and at codimension 2."""
    constraint, x, v = {
        "quadric": (QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3])), np.eye(3)[0], np.ones(3)),
        "callable": (fenced_ellipsoid(np.inf), np.eye(3)[0], np.ones(3)),
        "sliced": (SphereSlicedConstraint(3), np.array([0.73907151, 0.54626892, 0.39413414]),
                   np.array([0.2, -0.4, 0.5])),
    }[kind]
    stream = hug_steps(constraint, *_BAD_STARTS[bad](x, v), 0.1)
    with pytest.raises(DimensionError, match="shape"):
        next(stream)


class _FencedGradient(QuadricConstraint):
    """The 3-D ellipsoid preset whose public ``gradient`` reads ``beyond`` in
    every entry where x_2 > 0.2; overriding ``gradient`` alone must put the
    override on every step of both streams."""

    def __init__(self, beyond):
        super().__init__(np.diag(ELLIPSOID_DIAGS[3]))
        self.beyond = beyond

    def gradient(self, x):
        g = super().gradient(x)
        return np.full_like(g, self.beyond) if x[1] > 0.2 else g


@pytest.mark.parametrize(
    "beyond, message",
    [(0.0, "gradient vanishes"), (np.inf, "gradient is not finite"),
     (np.nan, "gradient is not finite")],
    ids=["vanishes", "inf", "nan"],
)
def test_singular_gradient_at_a_later_step_raises_from_that_next(beyond, message):
    """The start is checked once, and each midpoint's gradient still is:
    the midpoint of step 3 is the first past the fence, so steps 1 and 2
    have the plain quadric's bits and the third ``next`` raises
    ``SingularGeometryError`` with ``unit_normal``'s message, at that midpoint.
    The rows stream reads the same override: on that one row, steps 1 and 2
    have the same bits and the row is NaN from step 3 on."""
    x, v, delta = np.eye(3)[0], np.array([0.0, 1.0, 0.5]), 0.1
    plain = list(islice(hug_steps(QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3])), x, v, delta), 2))
    midpoint = plain[1][0] + 0.5 * delta * plain[1][1]
    assert plain[0][0][1] + 0.5 * delta * plain[0][1][1] <= 0.2 < midpoint[1]
    stream = hug_steps(_FencedGradient(beyond), x, v, delta)
    for x_k, v_k in plain:
        x_j, v_j = next(stream)
        assert np.array_equal(x_j, x_k) and np.array_equal(v_j, v_k)
    with pytest.raises(SingularGeometryError, match=message) as info:
        next(stream)
    assert np.array_equal(info.value.x, midpoint)
    [(Xs, Vs)] = hug_steps_rows(_FencedGradient(beyond), x[None], v[None], delta, 5)
    for (x_k, v_k), X_k, V_k in zip(plain, Xs, Vs):
        assert np.array_equal(X_k, [x_k]) and np.array_equal(V_k, [v_k])
    assert len(Xs) == 5 and np.isnan(Xs[2:]).all() and np.isnan(Vs[2:]).all()


def test_hug_step_rows_masks_singular_rows():
    """A row whose midpoint hits the origin of the sphere turns NaN without a
    warning, and the other row still walks e1 -> e2 -> -e1."""
    x0 = np.eye(3)[0]
    X, V = np.array([x0, x0]), np.array([-np.eye(3)[0], np.eye(3)[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            (X,), (V,) = next(hug_steps_rows(SphereConstraint(3), X, V, 2.0, 1))
    np.testing.assert_allclose(np.linalg.norm(X - x0, axis=1), [np.nan, 2.0], rtol=1e-12)


@pytest.mark.parametrize(
    "constraint", [QuadricConstraint(np.diag([1.0, 4.0, 3.0])), SphereConstraint(3)],
    ids=["quadric", "sphere"],
)
def test_hug_step_rows_overflowing_gradient_is_a_nan_row_without_warning(constraint):
    """Where ``hug_steps`` reads "gradient is not finite", the row turns NaN
    and no floating-point warning escapes: g . g overflows at the first row,
    and at the second the gradient itself does."""
    X = np.array([[1e306, 0.0, 0.0], [1e308, 1e308, 0.0], [1.0, 0.0, 0.0]])
    V = np.array([[0.0, 1.0, 0.0]] * 3)
    with pytest.raises(SingularGeometryError, match="gradient is not finite"):
        next(hug_steps(constraint, X[0], V[0], 0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (X_new,), (V_new,) = next(hug_steps_rows(constraint, X, V, 0.1, 1))
    assert np.isnan(X_new[:2]).all() and np.isnan(V_new[:2]).all()
    x, v = next(hug_steps(constraint, X[2], V[2], 0.1))
    assert np.array_equal(X_new[2], x) and np.array_equal(V_new[2], v)


@pytest.mark.parametrize("stack", ["regular", "singular"])
def test_rows_stream_is_bitwise_the_reference_step(stack, monkeypatch):
    """Step k of ``hug_steps_rows`` has the bits of k chained one-call rows
    steps, ``oracles.step_rows_reference``, NaN rows included, whether the
    12 steps come as one block or, with ``ROWS_BLOCK_FLOATS`` cut to five
    steps' rows, as blocks of 5, 5 and 2.  In the regular stack every row
    stays in the plane x_2 = 0, away from the fence, so no block's screen
    finds a failed row.  In the singular stack one row crosses the fence at
    a step j > 1 and is NaN from step j on, and g . g overflows on two rows
    (the gradient itself on the second) from the first step; no warning
    escapes, and numpy's error state is the caller's between yields."""
    constraint = fenced_ellipsoid(0.2)
    rng = np.random.default_rng(22)
    X = rng.standard_normal((5, 3)) * [1.0, 0.0, 1.0]
    X /= np.sqrt(np.vecdot(X * [1.0, 4.0, 3.0], X))[:, None]
    V = rng.standard_normal((5, 3)) * [1.0, 0.0, 1.0]
    if stack == "singular":
        X = np.vstack([X, [1.0, 0.0, 0.0], [1e306, 0.0, 0.0], [1e308, 0.0, 0.0]])
        V = np.vstack([V, [0.0, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    errstate = np.geterr()
    expected, Xr, Vr = [], X, V
    for _ in range(12):
        Xr, Vr = step_rows_reference(constraint, Xr, Vr, 0.1)
        expected.append((Xr, Vr))
    for block_floats, lengths in ((integrator.ROWS_BLOCK_FLOATS, [12]), (5 * X.size, [5, 5, 2])):
        monkeypatch.setattr(integrator, "ROWS_BLOCK_FLOATS", block_floats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = []
            for pair in hug_steps_rows(constraint, X, V, 0.1, 12):
                assert np.geterr() == errstate
                blocks.append(pair)
        assert [len(Xs) for Xs, _ in blocks] == lengths
        got = [pair for Xs, Vs in blocks for pair in zip(Xs, Vs)]
        for (Xs, Vs), (Xr, Vr) in zip(got, expected, strict=True):
            assert np.array_equal(Xs, Xr, equal_nan=True)
            assert np.array_equal(Vs, Vr, equal_nan=True)
        finite = np.array([np.isfinite(Xs).all(axis=1) for Xs, _ in got])
        assert finite[:, :5].all()
        if stack == "singular":
            crossing = np.flatnonzero(~finite[:, 5])
            assert crossing[0] > 1 and np.array_equal(crossing, np.arange(crossing[0], 12))
            assert not finite[:, 6:].any()


class _SlabRows(QuadricConstraint):
    """The 3-D ellipsoid preset whose unchecked gradient of rows is scaled by
    1e-100 inside the slab 0.03 < x_2 < 0.06: g . g there is about 1e-200,
    below ``GRADIENT_FLOOR``, yet g / ||g|| is still the finite unit normal,
    so a row in the slab steps on with finite values unless it is masked."""

    def _gradient(self, Y):
        G = Y * self._hessian
        G[(0.03 < Y[:, 1]) & (Y[:, 1] < 0.06)] *= 1e-100
        return G


@pytest.mark.parametrize(
    "steps_a_block, lengths",
    [(12, [12]), (4, [4, 4, 4]), (3, [3, 3, 3, 3]), (5, [5, 5, 2])],
    ids=["one-block", "first", "middle", "last"],
)
def test_rows_screen_at_block_edges_is_bitwise_the_reference_step(
    steps_a_block, lengths, monkeypatch
):
    """Row 0 crosses the slab of ``_SlabRows`` in one step: the midpoint of
    step 5 (index 4) is the only one inside it, so steps 6 on would be
    regular again.  Its first failing step falls in the middle of the only
    block, which is also the last, then first in a block of four, in the
    middle of a block of three and last in a block of five.  Each step has
    the bits of chained ``oracles.step_rows_reference``, which masks every
    step; row 0 is NaN from step 5 to the end and the rows in the plane
    x_2 = 0 stay finite; no warning escapes, and numpy's error state is the
    caller's between yields."""
    constraint = _SlabRows(np.diag(ELLIPSOID_DIAGS[3]))
    rng = np.random.default_rng(42)
    X = rng.standard_normal((4, 3)) * [1.0, 0.0, 1.0]
    X /= np.sqrt(np.vecdot(X * [1.0, 4.0, 3.0], X))[:, None]
    V = rng.standard_normal((4, 3)) * [1.0, 0.0, 1.0]
    X = np.vstack([[0.96, -0.14, 0.0], X])
    V = np.vstack([[0.224, 0.384, 0.0], V])
    plain, midpoints, Xr, Vr = QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3])), [], X, V
    for _ in range(12):
        midpoints.append(Xr[0, 1] + 0.05 * Vr[0, 1])
        Xr, Vr = step_rows_reference(plain, Xr, Vr, 0.1)
    assert [j for j, y in enumerate(midpoints) if 0.03 < y < 0.06] == [4]
    expected, Xr, Vr = [], X, V
    for _ in range(12):
        Xr, Vr = step_rows_reference(constraint, Xr, Vr, 0.1)
        expected.append((Xr, Vr))
    monkeypatch.setattr(integrator, "ROWS_BLOCK_FLOATS", steps_a_block * X.size)
    errstate = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blocks = []
        for pair in hug_steps_rows(constraint, X, V, 0.1, 12):
            assert np.geterr() == errstate
            blocks.append(pair)
    assert [len(Xs) for Xs, _ in blocks] == lengths
    got = [pair for Xs, Vs in blocks for pair in zip(Xs, Vs)]
    for (Xs, Vs), (Xr, Vr) in zip(got, expected, strict=True):
        assert np.array_equal(Xs, Xr, equal_nan=True) and np.array_equal(Vs, Vr, equal_nan=True)
    Xs, Vs = (np.array(side) for side in zip(*got))
    assert np.isfinite(Xs[:4]).all() and np.isfinite(Vs[:4]).all()
    assert np.isnan(Xs[4:, 0]).all() and np.isnan(Vs[4:, 0]).all()
    assert np.isfinite(Xs[:, 1:]).all() and np.isfinite(Vs[:, 1:]).all()


@pytest.mark.parametrize(
    "rows, steps, lengths",
    [(14, 1, [1]), (14, 100, [100]), (14, 1000, [390, 390, 220]), (2000, 5, [2, 2, 1]),
     (6000, 3, [1, 1, 1])],
)
def test_rows_blocks_add_up_to_the_step_count(rows, steps, lengths):
    """The blocks hold as many steps as ``ROWS_BLOCK_FLOATS`` allows, one at
    least, and add up to exactly ``steps``; they are read-only, and the last
    block ends on the rows of ``steps`` chained one-call rows steps,
    ``oracles.step_rows_reference``."""
    constraint = QuadricConstraint(np.diag(ELLIPSOID_DIAGS[3]))
    X = np.broadcast_to(np.eye(3)[0], (rows, 3))
    V = np.random.default_rng(rows).standard_normal((rows, 3))
    blocks = list(hug_steps_rows(constraint, X, V, 0.01, steps))
    assert [len(Xs) for Xs, _ in blocks] == lengths
    for Xs, Vs in blocks:
        assert Xs.shape == Vs.shape == (len(Xs), rows, 3)
        assert not (Xs.flags.writeable or Vs.flags.writeable)
    Xr, Vr = X, V
    for _ in range(steps):
        Xr, Vr = step_rows_reference(constraint, Xr, Vr, 0.01)
    assert np.array_equal(blocks[-1][0][-1], Xr) and np.array_equal(blocks[-1][1][-1], Vr)


def test_hug_step_rows_rejects_codim_2_and_mismatched_rows():
    with pytest.raises(DimensionError, match="codimension-1"):
        next(hug_steps_rows(SphereSlicedConstraint(3), np.ones((2, 3)), np.ones((2, 3)), 0.1, 1))
    with pytest.raises(DimensionError):
        next(hug_steps_rows(SphereConstraint(3), np.ones((2, 3)), np.ones((3, 3)), 0.1, 1))
    with pytest.raises(DimensionError):
        next(hug_steps_rows(SphereConstraint(3), np.ones(3), np.ones(3), 0.1, 1))
