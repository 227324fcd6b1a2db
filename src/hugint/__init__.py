"""Reflection-based integrator for level-set manifolds and tools around it."""

from .constraints import (
    AffineConstraint,
    CallableConstraint,
    ConstraintMap,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from .dynamics import (
    ConvergenceStudy,
    FlowSolution,
    convergence_study,
    embedded_sequence,
    phase_field,
    reference_solve,
    step_residuals,
)
from .ellipse import (
    Classification,
    EllipseModel,
    ReducedState,
    classify,
    from_reduced,
    libration_turning_points,
    reduced_solve,
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
    hug_step,
    hug_trajectory,
    level_drift_bound,
)
from .projectors import ProjectorBundle, build_bundle, nprime, nprime_par, nprime_perp, reflect
from .sampling import ChainRecord, IsotropicGaussian, hug_kernel, random_walk_kernel, run_chain

__all__ = [
    "AffineConstraint",
    "CallableConstraint",
    "ChainRecord",
    "Classification",
    "ConstraintMap",
    "ConvergenceStudy",
    "DimensionError",
    "EllipseModel",
    "FlowSolution",
    "HugError",
    "HugParams",
    "IsotropicGaussian",
    "OffLevelSetError",
    "PhaseState",
    "ProjectorBundle",
    "QuadricConstraint",
    "ReducedState",
    "ReferenceSolveError",
    "SingularGeometryError",
    "SphereConstraint",
    "SphereSlicedConstraint",
    "Trajectory",
    "build_bundle",
    "classify",
    "convergence_study",
    "embedded_sequence",
    "from_reduced",
    "hug_kernel",
    "hug_step",
    "hug_trajectory",
    "level_drift_bound",
    "libration_turning_points",
    "nprime",
    "nprime_par",
    "nprime_perp",
    "phase_field",
    "random_walk_kernel",
    "reduced_solve",
    "reference_solve",
    "reflect",
    "run_chain",
    "step_residuals",
    "to_reduced",
]

__version__ = "0.1.0"
