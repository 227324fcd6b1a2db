"""Exception types raised by the integrator and its supporting geometry."""

from __future__ import annotations

import numpy as np


class HugError(Exception):
    """Base class for all errors raised by this package."""


class SingularGeometryError(HugError):
    """Raised when the geometry at a point is unusable: the constraint
    Jacobian loses rank, or it, the gradient or the velocity to be mapped
    to reduced coordinates is not finite.  ``detail`` names the cause.

    The offending point is kept on the exception so callers (samplers,
    experiment drivers) can decide how to recover, e.g. by rejecting a
    proposal instead of aborting a whole run.
    """

    def __init__(self, x: np.ndarray, detail: str = ""):
        self.x = np.asarray(x, dtype=float).copy()
        msg = f"singular geometry at x={self.x!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DimensionError(HugError):
    """Raised when array shapes are inconsistent with the constraint map."""


class OffLevelSetError(HugError):
    """Raised when a point that must lie on a specific level set does not."""

    def __init__(self, x: np.ndarray, residual: float, tol: float):
        self.x = np.asarray(x, dtype=float).copy()
        self.residual = float(residual)
        self.tol = float(tol)
        super().__init__(
            f"point is off the level set: |f(x) - level| = {residual:.3e} > {tol:.3e}"
        )


class ReferenceSolveError(HugError):
    """Raised when the reference ODE solve fails its internal accuracy check."""


class StudyFailedError(HugError):
    """Raised when a study's runs leave nothing to summarize: every replicate
    of a replicated study fails numerically, or too few errors of a
    convergence study sit above the roundoff floor to fit an order."""
