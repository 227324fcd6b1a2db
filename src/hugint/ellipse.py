"""Reduced model of the flow on an ellipse (n = 2, single quadric constraint).

On the level set -a x1^2 - b x2^2 = -1 the flow admits exact coordinates: an
angle phi parameterizing the ellipse through

    x(phi) = [cos(phi)/sqrt(a), sin(phi)/sqrt(b)]

and the tangential speed p = v . t(phi).  With mu(phi) = a cos^2 + b sin^2,
the unit tangent/normal at x(phi) are

    t(phi) = mu^{-1/2} [-sqrt(b) sin(phi),  sqrt(a) cos(phi)]
    n(phi) = mu^{-1/2} [ sqrt(a) cos(phi),  sqrt(b) sin(phi)]

and the reduced system closes in (phi, p) for a fixed total speed c = ||v||:

    dphi/dt = sqrt(a b) mu^{-1/2} p
    dp/dt   = (1/2) sqrt(a b) (a - b) mu^{-3/2} sin(2 phi) (c^2 - p^2).

The quantity kappa = (c^2 - p^2) / mu(phi) is a first integral.  Since
p^2 = c^2 - kappa mu(phi), the phase portrait splits into rotations (p never
vanishes; the trajectory sweeps the whole ellipse), librations (p vanishes at
turning angles; the trajectory folds back between them), and the separatrix:

    rotation    kappa * max(a, b) <  c^2
    libration   kappa * max(a, b) >  c^2
    separatrix  kappa * max(a, b) == c^2.

At a turning angle p = 0, so sin^2(phi*) = (c^2 / kappa - a) / (b - a).

The reduced field is written over arrays: orbits of one speed stack into a
single system y = (phi_1..m, p_1..m), so a whole phase portrait is one
checked reference solve (:func:`reduced_orbits`), and a single orbit is
the case m = 1.  The package maps only into reduced coordinates
(:func:`to_reduced`); the map back is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import checked_solve
from .errors import DimensionError, OffLevelSetError, SingularGeometryError
from .integrator import PhaseState

#: Relative tolerance used to call a configuration a separatrix.
SEPARATRIX_RTOL = 1e-12
#: Largest |a x1^2 + b x2^2 - 1| of a point that counts as on the ellipse.
LEVEL_SET_TOL = 1e-10


@dataclass(frozen=True)
class ReducedState:
    """Angle, tangential speed, and total speed on the reduced ellipse; a
    speed whose square is not a finite float (NaN, inf, or past about
    1.34e154) is refused with a ``ValueError``, as is |p| above the speed."""

    phi: float
    p: float
    speed: float

    def __post_init__(self):
        speed = float(self.speed)
        # on Python floats, which overflow to inf without a warning
        if not math.isfinite(speed * speed):
            raise ValueError(f"speed {self.speed} has no finite square")
        if abs(self.p) > self.speed * (1.0 + 1e-12):
            raise ValueError(
                f"|p| = {abs(self.p)} exceeds the total speed {self.speed}"
            )


@dataclass(frozen=True)
class EllipseModel:
    """The level set -a x1^2 - b x2^2 = -1, a and b finite and positive, with its reduced dynamics."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise ValueError(f"need finite a, b > 0, got a={self.a}, b={self.b}")

    def mu(self, phi: float | np.ndarray) -> float | np.ndarray:
        """mu(phi) = a cos^2(phi) + b sin^2(phi)."""
        return self.a * np.cos(phi) ** 2 + self.b * np.sin(phi) ** 2

    def unit_tangent(self, phi: float) -> np.ndarray:
        mu = self.mu(phi)
        return np.array(
            [-np.sqrt(self.b) * np.sin(phi), np.sqrt(self.a) * np.cos(phi)]
        ) / np.sqrt(mu)

    def angle_of(self, x: np.ndarray) -> float:
        """Angle phi of a point (uses only the direction, not the level)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (2,):
            raise DimensionError(f"expected a 2-vector, got shape {x.shape}")
        return float(np.arctan2(np.sqrt(self.b) * x[1], np.sqrt(self.a) * x[0]))

    def kappa(self, state: ReducedState) -> float:
        """First integral (c^2 - p^2) / mu(phi)."""
        return (state.speed**2 - state.p**2) / float(self.mu(state.phi))


def to_reduced(model: EllipseModel, state: PhaseState) -> ReducedState:
    """Map a Cartesian (x, v) on the level set to reduced coordinates.

    The reduced state drops the sign of the normal speed v . n(phi): the
    reduced system only tracks its square, c^2 - p^2.

    Raises
    ------
    OffLevelSetError
        If |a x1^2 + b x2^2 - 1| is NaN or exceeds :data:`LEVEL_SET_TOL`.
    SingularGeometryError
        If v is not finite, which would read as a NaN tangential speed, or
        its speed has no finite square; the message names the speed, read
        without overflow, and no overflow warning is raised.
    """
    x, v = state.x, state.v
    if x.shape != (2,):
        raise DimensionError(f"the reduced model is two-dimensional, got shape {x.shape}")
    residual = abs(model.a * x[0] ** 2 + model.b * x[1] ** 2 - 1.0)
    if not residual <= LEVEL_SET_TOL:  # a NaN residual fails this test too
        raise OffLevelSetError(x, residual, LEVEL_SET_TOL)
    if not np.isfinite(v).all():
        raise SingularGeometryError(x, "velocity is not finite")
    phi = model.angle_of(x)
    p = float(v @ model.unit_tangent(phi))
    with np.errstate(over="ignore"):  # v . v overflows past a speed of about 1.34e154
        speed = float(np.linalg.norm(v))
    if not math.isfinite(speed * speed):  # refused below; name the speed itself, not inf
        speed = math.hypot(*v.tolist())
    try:
        return ReducedState(phi=phi, p=p, speed=speed)
    except ValueError as exc:
        raise SingularGeometryError(x, str(exc)) from exc


def tangential_speed(model: EllipseModel, x: np.ndarray, v: np.ndarray) -> float:
    """v . t(phi) where phi is the angle of x; tolerant of points slightly off
    the level set (e.g. discrete iterates)."""
    phi = model.angle_of(x)
    return float(np.asarray(v, float) @ model.unit_tangent(phi))


def reduced_field(model: EllipseModel, speed: float):
    """Return field(t, y) for m stacked reduced orbits of one speed,
    y = (phi_1..m, p_1..m); a single orbit is y = (phi, p)."""
    root_ab = np.sqrt(model.a * model.b)
    c2 = speed**2

    def field(t: float, y: np.ndarray) -> np.ndarray:
        phi, p = y.reshape(2, -1)
        mu = model.mu(phi)
        dphi = root_ab * p / np.sqrt(mu)
        dp = 0.5 * root_ab * (model.a - model.b) * np.sin(2.0 * phi) * (c2 - p**2) / mu**1.5
        return np.concatenate([dphi, dp])

    return field


def reduced_orbits(model: EllipseModel, states: list[ReducedState], times: np.ndarray) -> np.ndarray:
    """Integrate the reduced orbits from ``states`` as one stacked system.

    All states must share one total speed.  The m orbits go through a single
    :func:`~hugint.dynamics.checked_solve` of the 2m-component system, so
    the accuracy check covers them together.  Returns an array of shape
    (m, len(times), 2) with columns (phi, p).
    """
    speed = states[0].speed
    if any(state.speed != speed for state in states):
        raise ValueError("stacked orbits must share one total speed")
    y0 = np.array([[state.phi for state in states], [state.p for state in states]])
    ys = checked_solve(reduced_field(model, speed), y0.ravel(), times)
    return ys.reshape(len(ys), 2, len(states)).transpose(2, 0, 1)


@dataclass(frozen=True)
class Classification:
    """Phase-portrait classification of one reduced initial condition."""

    kind: str  # "rotation", "libration", or "separatrix"
    kappa: float
    #: (phi_min, phi_max) bracketing the enclosed center for librations;
    #: None otherwise.
    turning_points: tuple[float, float] | None


def classify(model: EllipseModel, state: ReducedState) -> Classification:
    """Classify the trajectory through ``state`` using the first integral.

    Compares kappa * max(a, b) (the largest value c^2 - p^2 can reach) with
    c^2.  Strictly smaller means p never vanishes (rotation); strictly larger
    means turning angles exist (libration); equality within :data:`SEPARATRIX_RTOL`
    is the separatrix.  Works for either ordering of a and b: swapping the two
    coordinate axes maps the model with a > b onto one with a < b, and the
    criterion only involves the swap-invariant quantity max(a, b).  On a
    circle (a == b) kappa * max(a, b) is c^2 - p^2, so a peak above c^2 there
    comes only from rounding or an overflow of kappa; p is constant there, so
    such a start is a rotation.
    """
    kappa = model.kappa(state)
    c2 = state.speed**2
    peak = kappa * max(model.a, model.b)
    if abs(peak - c2) <= SEPARATRIX_RTOL * c2:
        return Classification(kind="separatrix", kappa=kappa, turning_points=None)
    if peak < c2 or model.a == model.b:
        return Classification(kind="rotation", kappa=kappa, turning_points=None)
    return Classification(
        kind="libration", kappa=kappa, turning_points=_turning_points(model, state, kappa)
    )


def _turning_points(model: EllipseModel, state: ReducedState, kappa: float) -> tuple[float, float]:
    """Angles (phi_min, phi_max) where p vanishes on the libration through
    ``state`` of first integral ``kappa``, bracketing the enclosed center.

    At a turning point c^2 - p^2 = kappa * mu(phi) with p = 0, so
    sin^2(phi*) = (c^2 / kappa - a) / (b - a) for the representative angle
    phi* in [0, pi/2].  For a < b the libration encloses a center at a
    multiple of pi and the turning points are center -+ phi*; for a > b the
    centers sit at odd multiples of pi/2 and the bracket is
    (phi* + k pi, pi - phi* + k pi).  :func:`classify` calls it only with
    a != b and kappa > 0, where sin^2(phi*) lies in [0, 1] but for rounding:
    a start at a turning point can read -1e-17, so it is clamped to [0, 1].
    """
    s2 = (state.speed**2 / kappa - model.a) / (model.b - model.a)
    half = float(np.arcsin(np.sqrt(min(max(s2, 0.0), 1.0))))
    if model.a < model.b:
        center = np.pi * np.round(state.phi / np.pi)
        return float(center - half), float(center + half)
    shift = np.pi * np.round((state.phi - 0.5 * np.pi) / np.pi)
    return float(half + shift), float(np.pi - half + shift)
