"""Per-layer tracing for the benchmark's traced runs.

The wrappers live here, in the benchmark, not in the package: a traced run
replaces each public function of interest with a timing wrapper at every
place the package binds it (module attributes, dict values such as the
experiment registry, and constraint methods), runs the workload, and puts
the originals back.  The package imports names directly (``from .projectors
import build_bundle``), so patching only the defining module would miss the
callers in ``integrator``, ``dynamics`` and ``experiments``.

A function that a later refactor removes is skipped, so its metrics read as
zero calls instead of crashing the run.

Self time is a span's duration minus the time of the wrapped spans it
contains, so the self times of one unit add up to (almost) its wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

#: Package modules whose bindings are patched.  Missing modules are skipped.
MODULES = (
    "hugint",
    "hugint.constraints",
    "hugint.projectors",
    "hugint.integrator",
    "hugint.rk4",
    "hugint.dynamics",
    "hugint.ellipse",
    "hugint.sampling",
    "hugint.output",
    "hugint.experiments",
    "hugint.cli",
)

#: Constraint-map methods, wrapped on every class that defines them.
CONSTRAINT_METHODS = ("value", "jacobian", "hessian_contraction")


class Span:
    """Call count, self time and inclusive time of one traced name."""

    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counts: dict[str, float] = {}
        self._child_time = [0.0]
        self._restore: list[tuple[object, str, object, bool]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` timed under ``name``.

        ``observe(args, kwargs, result, error, elapsed)`` runs after every
        call, outside the span, to collect counters from the call.
        """
        span = self.span(name)
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                child_time[-1] += elapsed
                span.calls += 1
                span.self_s += elapsed - children
                span.total_s += elapsed
                if observe is not None:
                    observe(args, kwargs, result, error, elapsed)

        return traced

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement, modules) -> None:
        """Replace ``original`` by ``replacement`` wherever a module binds it."""
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value, False))
                    setattr(module, key, replacement)
                elif isinstance(value, dict):
                    for dict_key, item in list(value.items()):
                        if item is original:
                            self._restore.append((value, dict_key, item, True))
                            value[dict_key] = replacement

    def install(self) -> None:
        """Wrap every traced function at every binding site in the package."""
        modules = []
        for name in MODULES:
            try:
                modules.append(importlib.import_module(name))
            except ImportError:
                continue
        for module_name, attr, metric, observe in self._targets():
            module = sys.modules.get(f"hugint.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                continue
            if attr in ("phase_field", "reduced_field"):
                replacement = self._field_factory(metric, original)
            else:
                replacement = self.wrap(metric, original, observe)
            self._rebind(original, replacement, modules)
        self._install_constraint_methods(modules)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, key, value, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def _field_factory(self, metric: str, factory):
        """Wrap the field closure a factory returns, so solver self time
        excludes field evaluations."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(metric, factory(*args, **kwargs))

        return traced_factory

    def _install_constraint_methods(self, modules) -> None:
        base = getattr(sys.modules.get("hugint.constraints"), "ConstraintMap", None)
        if base is None:
            return
        classes = {
            cls
            for module in modules
            for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, base)
        }
        for cls in classes:
            for method in CONSTRAINT_METHODS:
                original = cls.__dict__.get(method)
                if inspect.isfunction(original):
                    self._restore.append((cls, method, original, False))
                    setattr(cls, method, self.wrap(f"constraints.{method}", original))

    def _targets(self):
        """(module, attribute, metric name, observer) of each traced function."""
        singular = getattr(sys.modules.get("hugint.errors"), "SingularGeometryError", Exception)

        def bundle(args, kwargs, result, error, elapsed):
            if isinstance(error, singular):
                self.count("projectors.singular")
            if result is None:
                return
            self.count("projectors.build_bundle.bytes", _nbytes(result))
            if getattr(args[0], "codim", 1) == 2:
                self.count("projectors.build_bundle.codim2.calls")
                self.count("projectors.build_bundle.codim2.total_s", elapsed)

        def step(args, kwargs, result, error, elapsed):
            self.count("integrator.steps")

        def trajectory(args, kwargs, result, error, elapsed):
            params = args[2] if len(args) > 2 else kwargs["params"]
            self.count("integrator.steps", params.steps)

        def kernel(args, kwargs, result, error, elapsed):
            if result is not None:
                self.count("sampling.hug_accepted", int(result.accepted))
                self.count("sampling.singular_rejections", int(result.singular))

        def chain(args, kwargs, result, error, elapsed):
            if result is not None:
                self.count("sampling.iterations", len(result.states) - 1)

        def csv(args, kwargs, result, error, elapsed):
            path = args[0] if args else kwargs["path"]
            if os.path.exists(path):
                self.count("output.write_csv.bytes", os.path.getsize(path))

        return (
            ("projectors", "build_bundle", "projectors.build_bundle", bundle),
            ("projectors", "reflect", "projectors.reflect", None),
            ("integrator", "hug_step", "integrator.hug_step", step),
            ("integrator", "hug_trajectory", "integrator.hug_trajectory", trajectory),
            ("dynamics", "phase_field", "dynamics.field", None),
            ("dynamics", "reference_solve", "dynamics.reference_solve", None),
            ("dynamics", "convergence_study", "dynamics.convergence_study", None),
            ("rk4", "rk4_checked", "rk4.rk4_checked", None),
            ("ellipse", "reduced_field", "ellipse.field", None),
            ("ellipse", "reduced_solve", "ellipse.reduced_solve", None),
            ("ellipse", "classify", "ellipse.classify", None),
            ("sampling", "hug_kernel", "sampling.hug_kernel", kernel),
            ("sampling", "random_walk_kernel", "sampling.random_walk_kernel", None),
            ("sampling", "run_chain", "sampling.run_chain", chain),
            ("experiments", "max_distance_run", "experiments.max_distance_run", None),
            ("output", "write_csv", "output.write_csv", csv),
            ("cli", "main", "cli.main", None),
        ) + tuple(
            ("experiments", runner.__name__, "experiments.runner", None)
            for runner in getattr(sys.modules.get("hugint.experiments"), "RUNNERS", {}).values()
        )

    # -- metrics -------------------------------------------------------------

    def metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics, each per traced unit of work."""
        def get(name: str) -> Span:
            return self.spans.get(name, Span())

        def count(name: str) -> float:
            return self.counts.get(name, 0) / units

        out: dict[str, float] = {}
        for name in (
            "constraints.value",
            "constraints.jacobian",
            "constraints.hessian_contraction",
            "projectors.build_bundle",
            "projectors.reflect",
            "integrator.hug_step",
            "integrator.hug_trajectory",
            "dynamics.reference_solve",
            "dynamics.convergence_study",
            "rk4.rk4_checked",
            "ellipse.reduced_solve",
            "ellipse.classify",
            "sampling.hug_kernel",
            "sampling.random_walk_kernel",
            "sampling.run_chain",
            "experiments.max_distance_run",
            "output.write_csv",
        ):
            out[f"{name}.calls"] = get(name).calls / units
            out[f"{name}.self_s"] = get(name).self_s / units
        for name in ("dynamics.field", "ellipse.field"):
            out[f"{name}.evals"] = get(name).calls / units
            out[f"{name}.self_s"] = get(name).self_s / units
        for name in ("experiments.runner", "cli.main"):
            out[f"{name}.self_s"] = get(name).self_s / units

        bundle = get("projectors.build_bundle")
        out["projectors.build_bundle.us_per_call"] = _per(bundle.total_s * 1e6, bundle.calls)
        out["projectors.build_bundle.bytes"] = count("projectors.build_bundle.bytes")
        out["projectors.build_bundle.codim2.calls"] = count("projectors.build_bundle.codim2.calls")
        out["projectors.build_bundle.codim2.us_per_call"] = _per(
            self.counts.get("projectors.build_bundle.codim2.total_s", 0) * 1e6,
            self.counts.get("projectors.build_bundle.codim2.calls", 0),
        )
        out["projectors.singular"] = count("projectors.singular")

        steps = self.counts.get("integrator.steps", 0)
        out["integrator.steps"] = steps / units
        out["integrator.us_per_step"] = _per(
            (get("integrator.hug_step").total_s + get("integrator.hug_trajectory").total_s) * 1e6,
            steps,
        )

        field_evals = get("dynamics.field").calls + get("ellipse.field").calls
        solves = get("dynamics.reference_solve").calls + get("ellipse.reduced_solve").calls
        out["rk4.field_evals_per_solve"] = _per(field_evals, solves)
        out["dynamics.field.us_per_eval"] = _per(
            get("dynamics.field").total_s * 1e6, get("dynamics.field").calls
        )
        out["dynamics.reference_solve.ms_per_call"] = _per(
            get("dynamics.reference_solve").total_s * 1e3, get("dynamics.reference_solve").calls
        )

        kernel = get("sampling.hug_kernel")
        out["sampling.hug_accept_ratio"] = _per(
            self.counts.get("sampling.hug_accepted", 0), kernel.calls
        )
        out["sampling.singular_rejections"] = count("sampling.singular_rejections")
        out["sampling.us_per_iteration"] = _per(
            get("sampling.run_chain").total_s * 1e6, self.counts.get("sampling.iterations", 0)
        )
        out["output.write_csv.bytes"] = count("output.write_csv.bytes")
        return out


def _nbytes(obj) -> int:
    """Summed ``nbytes`` of the arrays an object stores (dict or slots)."""
    values = list(getattr(obj, "__dict__", {}).values())
    values += [getattr(obj, name, None) for name in getattr(obj, "__slots__", ())]
    return sum(getattr(value, "nbytes", 0) for value in values)


def _per(amount: float, calls: float) -> float:
    return amount / calls if calls else 0.0
