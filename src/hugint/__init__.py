"""Reflection-based integrator for level-set manifolds and tools around it."""

from .constraints import (
    CallableConstraint,
    ConstraintMap,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from .dynamics import (
    ConvergenceStudy,
    convergence_study,
    phase_field,
    reference_solve,
)
from .ellipse import (
    Classification,
    EllipseModel,
    ReducedState,
    classify,
    to_reduced,
)
from .errors import (
    DimensionError,
    HugError,
    OffLevelSetError,
    ReferenceSolveError,
    SingularGeometryError,
)
from .integrator import (
    HugParams,
    PhaseState,
    Trajectory,
    hug_trajectory,
    level_drift_bound,
)
from .sampling import ChainRecord, IsotropicGaussian, hug_kernel, random_walk_kernel, run_chain

__all__ = [
    "CallableConstraint",
    "ChainRecord",
    "Classification",
    "ConstraintMap",
    "ConvergenceStudy",
    "DimensionError",
    "EllipseModel",
    "HugError",
    "HugParams",
    "IsotropicGaussian",
    "OffLevelSetError",
    "PhaseState",
    "QuadricConstraint",
    "ReducedState",
    "ReferenceSolveError",
    "SingularGeometryError",
    "SphereConstraint",
    "SphereSlicedConstraint",
    "Trajectory",
    "classify",
    "convergence_study",
    "hug_kernel",
    "hug_trajectory",
    "level_drift_bound",
    "phase_field",
    "random_walk_kernel",
    "reference_solve",
    "run_chain",
    "to_reduced",
]

__version__ = "0.1.0"
