"""Reduced ellipse model: frames, the first integral, classification, turning points."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hugint.constraints import QuadricConstraint
from hugint.dynamics import reference_solve
from hugint.ellipse import (
    Classification,
    EllipseModel,
    ReducedState,
    classify,
    reduced_field,
    reduced_orbits,
    tangential_speed,
    to_reduced,
)
from hugint.errors import (
    DimensionError,
    OffLevelSetError,
    ReferenceSolveError,
    SingularGeometryError,
)
from hugint.integrator import HugParams, PhaseState, hug_trajectory
from oracles import (
    ellipse_normal,
    ellipse_position,
    equilibria,
    from_reduced,
    integrated_angle_extreme,
    reduced_derivative,
)

MODEL = EllipseModel(a=1.0, b=4.0)
SPEED = float(np.sqrt(2.0))


def test_model_validation():
    """a and b must be finite and positive: an infinite one would read mu as
    inf and kappa as 0 at every state."""
    for a, b in [(-1.0, 2.0), (np.inf, 4.0), (1.0, np.inf), (np.nan, 4.0), (1.0, 0.0)]:
        with pytest.raises(ValueError, match="need finite a, b > 0"):
            EllipseModel(a=a, b=b)


def test_reduced_state_speed_cap():
    with pytest.raises(ValueError):
        ReducedState(phi=0.0, p=1.5, speed=1.0)


@pytest.mark.parametrize("speed", [1e160, np.float64(1e160), np.inf, np.nan])
def test_speed_without_a_finite_square_is_refused(speed):
    """A state whose speed squared is not a finite float is refused where it
    is built, with no ``OverflowError`` from ``classify`` or ``kappa`` and no
    overflow warning; ``to_reduced`` reads such a velocity as singular and
    names its true speed, 1e+160, not the inf that ``np.linalg.norm`` reads,
    without an overflow warning."""
    model = EllipseModel(1.0, 4.0)
    for call in (classify, EllipseModel.kappa):
        with pytest.raises(ValueError, match="has no finite square"):
            call(model, ReducedState(0.3, 0.0, speed))
    if np.isfinite(speed):
        with pytest.raises(SingularGeometryError, match=r"speed 1e\+160 has no finite square"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            to_reduced(model, PhaseState([1.0, 0.0], [0.0, speed]))
    # a speed whose square is finite keeps np.linalg.norm's bits
    v = np.array([0.6e154, 0.8e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert to_reduced(model, PhaseState([1.0, 0.0], v)).speed == float(np.linalg.norm(v))


def test_frame_orthonormal_and_on_level_set():
    for phi in np.linspace(-np.pi, np.pi, 17):
        x = ellipse_position(MODEL, phi)
        assert np.isclose(MODEL.a * x[0] ** 2 + MODEL.b * x[1] ** 2, 1.0, atol=1e-14)
        t = MODEL.unit_tangent(phi)
        n = ellipse_normal(MODEL, phi)
        assert np.isclose(t @ t, 1.0, atol=1e-14)
        assert np.isclose(n @ n, 1.0, atol=1e-14)
        assert np.isclose(t @ n, 0.0, atol=1e-14)
        # the normal is parallel to the constraint gradient (a x1, b x2)
        grad = np.array([MODEL.a * x[0], MODEL.b * x[1]])
        assert np.isclose(abs(n @ grad), np.linalg.norm(grad), atol=1e-13)


def test_angle_of_inverts_position():
    for phi in np.linspace(-3.0, 3.0, 13):
        assert np.isclose(MODEL.angle_of(ellipse_position(MODEL, phi)), phi, atol=1e-13)
    with pytest.raises(DimensionError):
        MODEL.angle_of(np.zeros(3))


def test_to_from_reduced_roundtrip():
    rng = np.random.default_rng(51)
    for _ in range(10):
        phi = rng.uniform(-np.pi, np.pi)
        v = rng.standard_normal(2)
        state = PhaseState(ellipse_position(MODEL, phi), v)
        reduced = to_reduced(MODEL, state)
        normal_speed = float(v @ ellipse_normal(MODEL, reduced.phi))
        assert np.isclose(reduced.phi, phi, atol=1e-13)
        assert reduced.speed == float(np.linalg.norm(v))  # np.linalg.norm's bits
        # the two components account for the whole speed
        assert np.isclose(np.hypot(reduced.p, normal_speed), reduced.speed, atol=1e-13)
        back = from_reduced(MODEL, reduced, normal_sign=np.sign(normal_speed))
        assert np.abs(back.x - state.x).max() < 1e-13
        assert np.abs(back.v - state.v).max() < 1e-13


def test_to_reduced_rejects_off_level_points():
    """A NaN point is on no level set: it must not pass as a NaN angle."""
    for x in ([1.1, 0.0], [np.nan, 0.0]):
        with pytest.raises(OffLevelSetError):
            to_reduced(MODEL, PhaseState(x, [0.0, 1.0]))
    with pytest.raises(DimensionError):
        to_reduced(MODEL, PhaseState([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))


def test_to_reduced_rejects_non_finite_velocity():
    """A NaN or infinite velocity must not pass as a NaN tangential speed,
    which ``classify`` would then meet as a bare ``ValueError``."""
    for v in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(SingularGeometryError, match="velocity is not finite"):
            to_reduced(MODEL, PhaseState([1.0, 0.0], v))


def test_tangential_speed_tolerates_off_level_points():
    # discrete iterates sit slightly off the level set; only the angle is used
    x = 1.001 * ellipse_position(MODEL, 0.3)
    v = np.array([0.2, -0.5])
    expected = v @ MODEL.unit_tangent(0.3)
    assert np.isclose(tangential_speed(MODEL, x, v), expected, atol=1e-12)


def test_kappa_conserved_along_reduced_solve():
    rng = np.random.default_rng(52)
    for _ in range(5):
        phi0 = rng.uniform(-np.pi, np.pi)
        p0 = rng.uniform(-0.9, 0.9) * SPEED
        state = ReducedState(phi=phi0, p=p0, speed=SPEED)
        times = np.linspace(0.0, 8.0, 33)
        ys = reduced_orbits(MODEL, [state], times)[0]
        kappas = (SPEED**2 - ys[:, 1] ** 2) / MODEL.mu(ys[:, 0])
        assert np.abs(kappas - MODEL.kappa(state)).max() < 1e-9


def test_reduced_solve_matches_cartesian_flow():
    """Integrating the full 2-D flow and mapping down must reproduce the
    reduced trajectory: the two routes share no code."""
    constraint = QuadricConstraint(np.diag([MODEL.a, MODEL.b]))
    initial = PhaseState([1.0, 0.0], [np.sqrt(7.0) / 2.0, 0.5])
    reduced0 = to_reduced(MODEL, initial)
    times = np.linspace(0.0, 3.0, 31)
    xs, vs = reference_solve(constraint, initial, times)
    reduced = reduced_orbits(MODEL, [reduced0], times)[0]
    phis = np.array([MODEL.angle_of(x) for x in xs])
    ps = np.array([v @ MODEL.unit_tangent(phi) for v, phi in zip(vs, phis)])
    assert np.abs(phis - reduced[:, 0]).max() < 1e-7
    assert np.abs(ps - reduced[:, 1]).max() < 1e-7


def test_stacked_orbits_need_finite_starts_and_one_speed():
    times = np.linspace(0.0, 1.0, 5)
    finite = ReducedState(phi=0.3, p=0.2, speed=SPEED)
    with pytest.raises(ReferenceSolveError, match="not finite"):
        reduced_orbits(MODEL, [finite, ReducedState(phi=np.nan, p=0.1, speed=SPEED)], times)
    with pytest.raises(ValueError, match="one total speed"):
        reduced_orbits(MODEL, [finite, ReducedState(phi=0.3, p=0.2, speed=1.0)], times)


def test_reduced_derivative_matches_solve():
    state = ReducedState(phi=0.46, p=0.35, speed=SPEED)
    h = 1e-6
    ys = reduced_orbits(MODEL, [state], np.array([0.0, h, 2 * h]))[0]
    mid = ReducedState(phi=float(ys[1, 0]), p=float(ys[1, 1]), speed=SPEED)
    dphi, dp = reduced_derivative(MODEL, mid)
    fd = (ys[2] - ys[0]) / (2 * h)
    assert np.isclose(dphi, fd[0], atol=1e-9)
    assert np.isclose(dp, fd[1], atol=1e-9)


def _reduced_field_expression(model, speed):
    """The reduced field as one expression per component, the form that the
    package's field must keep the bits of."""
    root_ab = np.sqrt(model.a * model.b)
    c2 = speed**2

    def field(t, y):
        phi, p = y.reshape(2, -1)
        mu = model.a * np.cos(phi) ** 2 + model.b * np.sin(phi) ** 2
        dphi = root_ab * p / np.sqrt(mu)
        dp = 0.5 * root_ab * (model.a - model.b) * np.sin(2.0 * phi) * (c2 - p**2) / mu**1.5
        return np.concatenate([dphi, dp])

    return field


@pytest.mark.parametrize("orbits", [1, 63])
@pytest.mark.parametrize("a, b", [(1.0, 4.0), (4.0, 1.0), (1.613, 9.497), (2.5, 0.3)])
def test_reduced_field_is_bitwise_its_expression(a, b, orbits):
    """The field folds 0.5 sqrt(ab) (a - b) into one constant, as the
    expression's left-to-right evaluation forms it, and writes both
    components into one array: every bit must be the expression's, on the
    portrait's start grid (at m = 63) and on random states, for a < b and a > b."""
    model = EllipseModel(a, b)
    field, expression = reduced_field(model, SPEED), _reduced_field_expression(model, SPEED)
    phis, ps = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 7), np.linspace(-SPEED, SPEED, 9)
    grid = np.concatenate([np.tile(phis, 9), np.repeat(ps, 7)])
    rng = np.random.default_rng(53)
    states = [rng.uniform([-7.0, -SPEED], [7.0, SPEED], (orbits, 2)).T.ravel() for _ in range(50)]
    for y in ([grid] if orbits == 63 else []) + states:
        assert np.array_equal(field(0.0, y), expression(0.0, y))


def test_classification_criterion():
    # p = +-c anywhere: kappa = 0, the angle sweeps the whole ellipse
    assert classify(MODEL, ReducedState(0.7, SPEED, SPEED)).kind == "rotation"
    # p = 0 near a center: pure fold-back
    res = classify(MODEL, ReducedState(0.2, 0.0, SPEED))
    assert res.kind == "libration" and res.turning_points is not None
    # kappa * max(a, b) == c^2 exactly on the separatrix
    sep = classify(MODEL, ReducedState(np.pi / 2.0, 0.0, SPEED))
    assert sep.kind == "separatrix" and sep.turning_points is None


def test_turning_points_bracket_both_orderings():
    state = ReducedState(phi=0.3, p=0.2, speed=SPEED)
    lo, hi = classify(MODEL, state).turning_points
    assert lo < state.phi < hi
    assert np.isclose(lo, -hi, atol=1e-13)  # symmetric about the center at 0
    # mirrored model: librations enclose pi/2 instead
    swapped = EllipseModel(a=4.0, b=1.0)
    state2 = ReducedState(phi=np.pi / 2.0 - 0.3, p=-0.2, speed=SPEED)
    lo2, hi2 = classify(swapped, state2).turning_points
    assert lo2 < state2.phi < hi2
    # swapping the axes maps one bracket onto the other
    assert np.isclose(lo2, np.pi / 2.0 - hi, atol=1e-13)
    assert np.isclose(hi2, np.pi / 2.0 - lo, atol=1e-13)


def test_turning_points_shifted_center():
    state = ReducedState(phi=np.pi - 0.25, p=0.1, speed=SPEED)
    lo, hi = classify(MODEL, state).turning_points
    assert np.isclose(0.5 * (lo + hi), np.pi, atol=1e-13)
    assert lo < state.phi < hi


#: any positive finite a and b; c up to 1e150, whose square is a float
#: (``ReducedState`` refuses a speed past about 1.34e154); p = c u, |u| <= 1
_ELLIPSE_AXES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=_ELLIPSE_AXES, b=_ELLIPSE_AXES, c=st.floats(0.0, 1e150),
       u=st.floats(-1.0, 1.0), phi=st.floats(-10.0, 10.0))
# starts at p = 0 on a center where sin^2 of the turning angle rounds below 0
@example(a=1.613, b=9.497, c=SPEED, u=0.0, phi=0.0)
@example(a=7.4693691908392505, b=8.533571531119144, c=0.780765227688968, u=0.0, phi=0.0)
@example(a=1e-300, b=1e-300, c=1e150, u=0.5, phi=0.3)  # kappa overflows on a circle
def test_classify_never_raises(a, b, c, u, phi):
    """Every start is a rotation, a libration or the separatrix, and a
    libration's turning points are ordered."""
    result = classify(EllipseModel(a, b), ReducedState(phi=phi, p=c * u, speed=c))
    assert result.kind in ("rotation", "libration", "separatrix")
    if result.kind == "libration":
        lo, hi = result.turning_points
        assert lo <= hi
    else:
        assert result.turning_points is None


def test_turning_points_match_integrated_extreme():
    state = ReducedState(phi=0.0, p=0.5, speed=SPEED)
    result = classify(MODEL, state)
    assert result.kind == "libration"
    _, hi = result.turning_points
    measured = integrated_angle_extreme(MODEL, state, t_final=15.0)
    assert abs(measured - hi) < 1e-6


def test_equilibria_roles_swap_with_axis_order():
    centers, saddles = equilibria(MODEL)  # a < b: long axis along x1
    assert np.allclose(centers, [0.0, np.pi])
    assert np.allclose(saddles, [np.pi / 2.0, 3.0 * np.pi / 2.0])
    centers2, saddles2 = equilibria(EllipseModel(4.0, 1.0))
    assert np.allclose(centers2, [np.pi / 2.0, 3.0 * np.pi / 2.0])
    assert np.allclose(saddles2, [0.0, np.pi])
    with pytest.raises(ValueError):
        equilibria(EllipseModel(3.0, 3.0))


def test_foldback_run_changes_tangential_sign_twice():
    constraint = QuadricConstraint(np.diag([1.0, 4.0]))
    initial = PhaseState([1.0, 0.0], [np.sqrt(7.0) / 2.0, 0.5])
    t = hug_trajectory(constraint, initial, HugParams(0.1, 14))
    signs = np.sign([tangential_speed(MODEL, x, v) for x, v in zip(t.xs, t.vs)])
    assert int(np.sum(signs[1:] != signs[:-1])) == 2


def test_classification_is_frozen_record():
    res = Classification(kind="rotation", kappa=0.5, turning_points=None)
    with pytest.raises(AttributeError):
        res.kind = "libration"
