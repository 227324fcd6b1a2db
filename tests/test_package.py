"""The package's public surface: what ``import hugint`` exports."""

from __future__ import annotations

import importlib
import inspect

import hugint

#: Analysis tools and references that the package does not run, by the module
#: that held them before they moved to the test oracles: the flow field forms
#: its normal basis and J^+ itself, as the step does, so the matrix-form pair
#: of ``build_bundle`` is only the tests' reference, and ``AffineConstraint``
#: is only a degenerate map for the tests.
ORACLES_BY_FORMER_MODULE = {
    "hugint.projectors": ("nprime_perp", "nprime_par", "nprime", "reflect", "build_bundle"),
    "hugint.dynamics": ("embedded_sequence", "step_residuals"),
    "hugint.constraints": ("hessian_bound_estimates", "AffineConstraint"),
    "hugint.ellipse": ("from_reduced",),
    "hugint.output": ("read_csv",),
}

#: ``EllipseModel`` methods that moved to the test oracles, where
#: ``from_reduced`` builds on them (``ellipse_position``, ``ellipse_normal``).
ORACLE_METHODS_OF_ELLIPSE_MODEL = ("position", "unit_normal")

#: Names the package no longer has, by the module that held them: the flow
#: field forms its normal basis and J^+ itself and splits v itself;
#: the one-step map, the one-step rows map and the one-orbit reduced solve
#: are the first step of ``hug_steps``, the one block of ``hug_steps_rows``
#: at steps = 1 and ``reduced_orbits`` at m = 1; a libration's turning points are
#: ``classify(...).turning_points``; ``reference_solve`` returns (xs, vs) as a
#: tuple; and ``convergence_study`` steps first and solves once at the step
#: times, in place of ``position_errors``' union grid.
REMOVED_BY_FORMER_MODULE = {
    "hugint.projectors": ("ProjectorBundle",),
    "hugint.dynamics": ("split_velocity", "velocity_derivative", "FlowSolution", "position_errors"),
    "hugint.integrator": ("hug_step", "hug_step_rows"),
    "hugint.ellipse": ("reduced_solve", "libration_turning_points"),
}

#: Methods the package no longer has, by the class that held them: the
#: codim-1 gradient at each row of a stack is the unchecked ``_gradient`` hook,
#: which takes a point or rows; a trajectory's levels are read only inside
#: ``level_drift``; and the isotropic velocity's density, which ``hug_kernel``
#: never evaluates on a norm-invariant distribution, is the test oracle
#: ``GeneralFormulaGaussian``'s.
REMOVED_METHODS_BY_CLASS = {
    "ConstraintMap": ("gradient_rows",),
    "QuadricConstraint": ("gradient_rows",),
    "Trajectory": ("levels",),
    "IsotropicGaussian": ("log_density",),
}


def test_public_surface_is_sorted_resolves_and_holds_no_oracle():
    assert hugint.__all__ == sorted(set(hugint.__all__))
    assert len(hugint.__all__) == 29
    missing = [name for name in hugint.__all__ if not hasattr(hugint, name)]
    assert not missing
    for gone in (ORACLES_BY_FORMER_MODULE, REMOVED_BY_FORMER_MODULE):
        for module_name, names in gone.items():
            module = importlib.import_module(module_name)
            for name in names:
                assert not hasattr(module, name), f"{module_name}.{name}"
                assert not hasattr(hugint, name), f"hugint.{name}"
    for name in ORACLE_METHODS_OF_ELLIPSE_MODEL:
        assert not hasattr(hugint.EllipseModel, name), f"EllipseModel.{name}"
    for class_name, names in REMOVED_METHODS_BY_CLASS.items():
        for name in names:
            assert not hasattr(getattr(hugint, class_name), name), f"{class_name}.{name}"


def test_hug_kernel_reads_norm_invariance_from_the_distribution_alone():
    assert "use_norm_cancellation" not in inspect.signature(hugint.hug_kernel).parameters


def test_kernels_require_the_log_density_at_their_start():
    for kernel in (hugint.hug_kernel, hugint.random_walk_kernel):
        parameter = inspect.signature(kernel).parameters["log_density"]
        assert parameter.default is inspect.Parameter.empty, kernel.__name__
