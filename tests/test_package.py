"""The package's public surface: what ``import hugint`` exports."""

from __future__ import annotations

import importlib

import hugint

#: Analysis tools that the package does not run, by the module that held them
#: before they moved to the test oracles.
ORACLES_BY_FORMER_MODULE = {
    "hugint.projectors": ("nprime_perp", "nprime_par", "nprime", "reflect"),
    "hugint.dynamics": ("embedded_sequence", "step_residuals"),
    "hugint.constraints": ("hessian_bound_estimates",),
    "hugint.ellipse": ("from_reduced",),
}


def test_public_surface_is_sorted_resolves_and_holds_no_oracle():
    assert hugint.__all__ == sorted(set(hugint.__all__))
    missing = [name for name in hugint.__all__ if not hasattr(hugint, name)]
    assert not missing
    for module_name, names in ORACLES_BY_FORMER_MODULE.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert not hasattr(module, name), f"{module_name}.{name}"
            assert not hasattr(hugint, name), f"hugint.{name}"
