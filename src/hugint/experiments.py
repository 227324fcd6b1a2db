"""Experiment drivers behind the command-line interface.

:data:`EXPERIMENTS` lists every experiment with its help line, runner and
``settings``: each config field the experiment reads, with its default.  That
entry alone decides the experiment's flags, the config-file keys it accepts,
the defaults of its unset fields and the ``config`` block of its manifest;
:data:`RUNNERS` maps each name to its runner.  The fields of
:class:`ExperimentConfig` declare each setting's kind, bound and flag help
once (:data:`SETTINGS`); the config checks and the CLI flags, each taking a
value, read them.
Each ``run_*`` function takes an :class:`ExperimentConfig` resolved against
the experiment table, writes its data files (CSV with schema headers) under
``config.out``, and returns a summary dict that the CLI folds into the run
manifest.
Replicated studies draw every replicate's velocity up front, each from its own
child of the root seed, and then step all replicates together as rows of one
array, taking their steps in blocks from one
:func:`~hugint.integrator.hug_steps_rows` stream, whose rows have the bits of
single-trajectory steps, and reducing d_max once per block, so a run is a
single process and its output depends only on the config and the seed, not on
the replicate count or the block lengths.
"""

from __future__ import annotations

import copy
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .constraints import ConstraintMap, QuadricConstraint, SphereConstraint, SphereSlicedConstraint
from .dynamics import convergence_study, reference_solve
from .ellipse import (
    EllipseModel,
    ReducedState,
    classify,
    reduced_orbits,
    tangential_speed,
    to_reduced,
)
from .errors import DimensionError, OffLevelSetError, StudyFailedError
from .integrator import HugParams, PhaseState, hug_steps_rows, hug_trajectory
from .output import write_csv
from .projectors import unit_normal
from .sampling import IsotropicGaussian, run_chain as run_sampling_chain

#: Step sizes of the error table and convergence study.
TABLE_DELTAS = tuple(1.0 / 2**k for k in range(4, 9))

#: The bivariate benchmark: level set of -x1^2 - 4 x2^2 through x0.
BENCH_DIAG = (1.0, 4.0)
BENCH_X0 = (float(np.cos(1.0)), float(0.5 * np.sin(1.0)))
BENCH_V0 = (0.0, 1.0)

#: Fold-back configuration on the same ellipse (speed sqrt(2), K=14).
FOLDBACK_X0 = (1.0, 0.0)
FOLDBACK_V0 = (float(np.sqrt(7.0) / 2.0), 0.5)
FOLDBACK_DELTA = 0.1
FOLDBACK_STEPS = 14

#: Ellipsoid study presets per ambient dimension.
ELLIPSOID_DIAGS = {3: (1.0, 4.0, 3.0), 6: (1.0, 4.0, 3.0, 5.0, 1.0, 10.0)}

#: Normal speeds of the four showcase velocities of the 3-D study.
SHOWCASE_NORMAL_SPEEDS = (0.2023, 0.5673, 0.6647, 0.7357)


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


@contextmanager
def _recorded(setting: str):
    """Turn the refusal of a record or time grid too large (a shape past numpy's index
    range or memory, a step count past inf) into a :class:`ConfigError` "{setting} to record"."""
    try:
        yield
    except (ValueError, MemoryError, OverflowError) as exc:
        raise ConfigError(f"{setting} to record: {exc}") from exc


def _setting(kind: type | None, help: str | None = None, default=None, *,
             minimum: int | None = None, positive: bool = False):
    """A config field with its kind (int, float, str; None: its runner checks it),
    bound (integer minimum, or positive and finite) and flag help (None: no flag, a
    config-file key only)."""
    metadata = {"kind": kind, "help": help, "minimum": minimum, "positive": positive}
    return field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    """Experiment request; unset fields take the defaults in the experiment's
    ``settings`` entry of :data:`EXPERIMENTS`.  Each field's declaration is the
    one statement of its kind, bound and help."""

    experiment: str
    out: str = _setting(str, "output directory (default: current directory)", ".")
    seed: int = _setting(int, "root RNG seed (default: 0)", 0, minimum=0)
    constraint: dict | None = _setting(None)
    x0: list | None = _setting(None)
    v0: list | None = _setting(None)
    delta: float | None = _setting(float, "step size", positive=True)
    steps: int | None = _setting(int, "steps per trajectory", minimum=1)
    t_end: float | None = _setting(float, "time horizon", positive=True)
    # the ECDF stderr needs two replicates
    replicates: int | None = _setting(int, "replicate count for sampled studies", minimum=2)
    iterations: int | None = _setting(int, "chain length", minimum=1)
    walk_scale: float | None = _setting(
        float, "random-walk proposal scale (interleaved move)", positive=True
    )
    h: float | None = _setting(float, "threshold in [0, 1]")
    dim: int | None = _setting(int, "ambient dimension")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        for name, setting in SETTINGS.items():
            value, kind = getattr(self, name), setting["kind"]
            if value is None or kind is None:
                continue
            if kind in (int, float):
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ConfigError(f"{name} must be a number, got {value!r}")
                if kind is int and not isinstance(value, numbers.Integral):
                    raise ConfigError(f"{name} must be an integer, got {value!r}")
                if kind is float:
                    try:
                        float(value)
                    except OverflowError:
                        raise ConfigError(f"{name} is too large for a float") from None
            elif not isinstance(value, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
            if setting["minimum"] is not None and value < setting["minimum"]:
                raise ConfigError(f"{name} must be >= {setting['minimum']}, got {value}")
            if setting["positive"] and not (value > 0.0 and np.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        for name, value in EXPERIMENTS[self.experiment].settings.items():
            if getattr(self, name) is None:
                setattr(self, name, copy.deepcopy(value))

    def echo(self) -> dict:
        """The manifest's record: the experiment and the fields it reads, its
        entry's :attr:`Experiment.keys`; None marks a value worked out from the data."""
        keys = ("experiment", *EXPERIMENTS[self.experiment].keys)
        return {key: getattr(self, key) for key in keys}


#: Each setting's declaration (kind, help, minimum, positive), by field name.
SETTINGS = {f.name: f.metadata for f in fields(ExperimentConfig) if f.metadata}


def _integer_dim(dim) -> int:
    """A constraint's ``dim``, refused as the int settings are: 2.0 and true are no dimension."""
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        raise ValueError(f"dim must be an integer, got {dim!r}")
    return int(dim)


def build_constraint(spec: dict) -> ConstraintMap:
    """Build a constraint map from a config dict.

    Supported kinds: ``quadric`` (with ``diag`` or ``matrix``), ``sphere``
    (with ``dim``), ``sliced`` (with ``dim``, 3 when it is left out).
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"a constraint must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    try:
        if kind == "quadric":
            if "diag" in spec:
                return QuadricConstraint(np.diag(np.asarray(spec["diag"], dtype=float)))
            return QuadricConstraint(np.asarray(spec["matrix"], dtype=float))
        if kind == "sphere":
            return SphereConstraint(_integer_dim(spec["dim"]))
        if kind == "sliced":
            return SphereSlicedConstraint(_integer_dim(spec.get("dim", 3)))
    except KeyError as exc:
        raise ConfigError(f"constraint kind {kind!r} is missing key {exc}") from exc
    except (ValueError, TypeError, DimensionError) as exc:
        raise ConfigError(f"bad constraint spec: {exc}") from exc
    raise ConfigError(f"unknown constraint kind {kind!r}")


def _config_vector(config: ExperimentConfig, name: str, n: int) -> np.ndarray:
    """The config field ``name`` as a float vector of n entries, else :class:`ConfigError`.

    Non-finite entries pass: the geometry reports them as numerical failures."""
    value = getattr(config, name)
    try:
        array = np.asarray(value)
        numeric = array.dtype.kind in "iuf"
    except ValueError:  # ragged nesting
        numeric = False
    if not numeric:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    if array.shape != (n,):
        raise ConfigError(f"{name} must have {n} entries, got {value!r}")
    return array.astype(float)


def _config_start(config: ExperimentConfig, constraint: ConstraintMap) -> PhaseState:
    """The configured start (x0, v0), checked against the constraint's dimension;
    a zero v0, which would stand still, is a :class:`ConfigError`."""
    n = constraint.ambient_dim
    v0 = _config_vector(config, "v0", n)
    if not v0.any():
        raise ConfigError(f"v0 must not be zero, got {config.v0!r}")
    return PhaseState(_config_vector(config, "x0", n), v0)


def uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draw on the unit sphere in R^n via a normalized Gaussian."""
    while True:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def sphere_tail_probability(h: float, dim: int) -> float:
    """P(|u . v| >= h) for v uniform on the unit sphere in R^dim, fixed unit u.

    The squared component w^2 = (u . v)^2 is Beta(1/2, (dim-1)/2), so the tail
    is the regularized incomplete beta function I_{1-h^2}((dim-1)/2, 1/2).
    For dim = 2 it is (2/pi) arccos h, and for dim = 3 the component is
    uniform, so the result reduces to 1 - h.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    import scipy.special  # imported here so that ``import hugint`` loads no SciPy

    return float(scipy.special.betainc(0.5 * (dim - 1), 0.5, 1.0 - h * h))


def ecdf_points(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of values as a fraction of their maximum.

    Returns (sorted fractions, cumulative probabilities); the ECDF rises from
    1/N at the smallest fraction to exactly 1 at fraction 1.  ValueError when
    there are no values or the largest is not positive.
    """
    values = np.asarray(values, dtype=float)
    top = values.max(initial=0.0)  # 0 for no values
    if not top > 0.0:  # no values, or fractions that would be 0/0 or change sign
        raise ValueError(f"need a positive largest value, got {top} of {values.size} values")
    fractions = np.sort(values / top)
    return fractions, np.arange(1, values.size + 1) / values.size


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N of values, tied values sharing the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    bounds = np.r_[np.flatnonzero(first), values.size]  # tie run k fills bounds[k]:bounds[k+1]
    ranks = np.empty(values.size)
    ranks[order] = (0.5 * (bounds[:-1] + bounds[1:] + 1))[np.cumsum(first) - 1]
    return ranks


def spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation: the Pearson correlation of average ranks.

    NaN when there are fewer than two pairs or either sample is constant.
    """
    ra, rb = _average_ranks(a), _average_ranks(b)
    if ra.size < 2 or ra.min() == ra.max() or rb.min() == rb.max():
        return float("nan")
    return float(np.corrcoef(ra, rb)[0, 1])


# ---------------------------------------------------------------------------
# error table and convergence study


def run_table1(config: ExperimentConfig) -> dict:
    """One- and two-step position errors of the benchmark across step sizes."""
    constraint = build_constraint(config.constraint)
    initial = _config_start(config, constraint)
    # at horizon 0 every step size takes two steps
    study = convergence_study(constraint, initial, np.asarray(TABLE_DELTAS), horizon=0.0)
    deltas, one, two = study.deltas, study.one_step, study.two_step
    rows = [
        (delta, one[i], two[i], one[i - 1] / one[i] if i else None,
         two[i - 1] / two[i] if i else None)
        for i, delta in enumerate(deltas)
    ]
    write_csv(
        os.path.join(config.out, "error_table.csv"),
        "error-table/1",
        ["delta", "one_step_error", "two_step_error", "one_step_ratio", "two_step_ratio"],
        rows,
    )
    return {
        "deltas": deltas.tolist(),
        "one_step_errors": one.tolist(),
        "two_step_errors": two.tolist(),
        "note": "ratio columns show the decay per halving of delta (~4 for one-step, ~8 for two-step)",
    }


def run_convergence(config: ExperimentConfig) -> dict:
    """Order measurement: one-step, two-step, and global errors with fitted slopes."""
    constraint = build_constraint(config.constraint)
    initial = _config_start(config, constraint)
    with _recorded(f"t_end={config.t_end} is too long"):
        study = convergence_study(constraint, initial, np.asarray(TABLE_DELTAS), horizon=config.t_end)
    # fitted first, so that errors all in roundoff fail the run before any file is written
    summary = {
        "horizon": config.t_end,
        "one_step_order": study.one_step_order,
        "two_step_order": study.two_step_order,
        "global_order": study.global_order,
    }
    write_csv(
        os.path.join(config.out, "convergence.csv"),
        "convergence/1",
        ["delta", "one_step_error", "two_step_error", "global_error"],
        zip(study.deltas, study.one_step, study.two_step, study.global_err),
    )
    return summary


# ---------------------------------------------------------------------------
# reduced ellipse experiments


def _ellipse(config: ExperimentConfig) -> tuple[QuadricConstraint, EllipseModel]:
    """The configured map, if it is a quadric with a diagonal 2x2 A (``diag``, ``matrix`` or
    a 2-D ``sphere``), which it keeps as its diagonal (a, b), and the model of that ellipse."""
    constraint = build_constraint(config.constraint)
    if not isinstance(constraint, QuadricConstraint) or constraint._form.shape != (2,):
        raise ConfigError(f"ellipse experiments need a diagonal 2-D quadric, got {config.constraint!r}")
    return constraint, EllipseModel(*constraint._form.tolist())


def run_phase_portrait(config: ExperimentConfig) -> dict:
    """Classified grid of reduced initial conditions with sampled orbits."""
    _, model = _ellipse(config)
    speed = float(np.sqrt(2.0))
    phis = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 7)
    ps = np.linspace(-speed, speed, 9)
    with _recorded(f"t_end={config.t_end} is too long"):
        sample_times = np.arange(0.0, config.t_end + 0.05, 0.05)
    states = [
        ReducedState(phi=float(phi0), p=float(p0), speed=speed) for p0 in ps for phi0 in phis
    ]
    class_rows = []
    counts = {"rotation": 0, "libration": 0, "separatrix": 0}
    for point_id, state in enumerate(states):
        result = classify(model, state)
        counts[result.kind] += 1
        phi_min, phi_max = result.turning_points or (None, None)
        class_rows.append(
            (point_id, state.phi, state.p, result.kind, result.kappa, phi_min, phi_max)
        )
    # Python floats, which write_csv formats with repr directly
    orbits = reduced_orbits(model, states, sample_times).tolist()
    times = sample_times.tolist()
    orbit_rows = [
        (point_id, t, phi, p)
        for point_id, orbit in enumerate(orbits)
        for t, (phi, p) in zip(times, orbit)
    ]
    write_csv(
        os.path.join(config.out, "portrait_classification.csv"),
        "portrait-classification/1",
        ["point_id", "phi0", "p0", "kind", "kappa", "phi_min", "phi_max"],
        class_rows,
    )
    write_csv(
        os.path.join(config.out, "portrait_orbits.csv"),
        "portrait-orbits/1",
        ["point_id", "t", "phi", "p"],
        orbit_rows,
    )
    return {"speed": speed, "grid": [len(phis), len(ps)], "counts": counts}


def run_foldback(config: ExperimentConfig) -> dict:
    """Discrete fold-back trajectory with the flow it shadows."""
    constraint, model = _ellipse(config)
    initial = _config_start(config, constraint)
    try:
        reduced0 = to_reduced(model, initial)
    except OffLevelSetError as exc:
        if not np.isfinite(initial.x).all():  # a non-finite start is a numerical failure
            raise
        raise ConfigError(f"x0 must lie on the ellipse {model.a:g} x1^2 + {model.b:g} x2^2 = 1 "
                          f"(residual {exc.residual:.3e}), got {config.x0!r}") from exc
    with _recorded(f"steps={config.steps} is too many"):
        trajectory = hug_trajectory(constraint, initial, HugParams(config.delta, config.steps))
    tangential = np.array([tangential_speed(model, x, v) for x, v in zip(trajectory.xs, trajectory.vs)])
    signs = np.sign(tangential)
    sign_changes = int(np.sum(signs[1:] != signs[:-1]))

    t_end = config.delta * config.steps
    with _recorded(f"delta={config.delta} times steps={config.steps} is too long"):
        dense_times = np.arange(0.0, t_end + 0.01, 0.01)
    # one solve serves the flow table and the steps, each at its own times
    xs, vs = reference_solve(constraint, initial, np.concatenate([dense_times, trajectory.times]))
    dense = len(dense_times)
    tracking_gap = float(np.max(np.linalg.norm(trajectory.xs - xs[dense:], axis=1)))

    result = classify(model, reduced0)

    write_csv(
        os.path.join(config.out, "foldback_steps.csv"),
        "foldback-steps/1",
        ["k", "t", "x1", "x2", "v1", "v2", "tangential_speed"],
        ((k, *row) for k, row in enumerate(np.column_stack(
            [trajectory.times, trajectory.xs, trajectory.vs, tangential]
        ).tolist())),
    )
    write_csv(
        os.path.join(config.out, "foldback_flow.csv"),
        "foldback-flow/1",
        ["t", "x1", "x2", "v1", "v2"],
        np.column_stack([dense_times, xs[:dense], vs[:dense]]).tolist(),
    )
    return {
        "classification": result.kind,
        "kappa": result.kappa,
        "turning_points": result.turning_points,
        "tangential_sign_changes": sign_changes,
        "max_tracking_gap": tracking_gap,
        "max_distance_from_start": float(np.max(np.linalg.norm(trajectory.xs - initial.x, axis=1))),
    }


# ---------------------------------------------------------------------------
# ellipsoid exploration studies


def _showcase_velocity(q: np.ndarray, x0: np.ndarray, normal_speed: float) -> np.ndarray:
    """Unit velocity at x0 with a prescribed normal-component norm.

    v = s q + sqrt(1 - s^2) u, with q the unit normal at x0 turned away from
    the origin (e1 at x0 = e1 on a diagonal quadric) and u the normalized
    tangential part e23 - q (q . e23) of e23 = e2 + e3.
    """
    e23 = np.zeros(x0.size)
    e23[1] = e23[2] = 1.0
    u = e23 - q * q.dot(e23)
    if q @ x0 < 0.0:
        q = -q
    return normal_speed * q + np.sqrt(1.0 - normal_speed**2) * (u / np.linalg.norm(u))


def _d_max_rows(
    constraint: ConstraintMap, x0: np.ndarray, V: np.ndarray, delta: float, steps: int
) -> np.ndarray:
    """max_k ||x_k - x0|| over ``steps`` hug steps from x0 with each row of V,
    every row stepped by :func:`~hugint.integrator.hug_steps_rows`; a row that
    hits singular geometry reads NaN.

    The running maximum is kept squared, reduced once per block of the stream,
    with one square root at the end: ``np.linalg.norm`` along rows is
    sqrt(add.reduce(D * D)), add.reduce along the last axis of a block sums
    each row as it sums that row alone, and sqrt is correctly rounded and
    monotone, so this is the maximum of the per-step norms bit for bit.
    """
    d2 = np.zeros(len(V))
    for Xs, _ in hug_steps_rows(constraint, np.broadcast_to(x0, V.shape), V, delta, steps):
        D = Xs - x0
        D2 = np.add.reduce(np.multiply(D, D, out=D), axis=2)
        np.maximum(d2, np.maximum.reduce(D2, axis=0), out=d2)
    return np.sqrt(d2)


def _scatter_study(
    constraint: ConstraintMap,
    x0: np.ndarray,
    config: ExperimentConfig,
    seed: int,
    showcase_speeds: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """(v_perp_norms, d_max values, failed count, showcase d_max values) over
    random unit velocities; :class:`~hugint.errors.StudyFailedError` when
    fewer than two replicates survive, which the ECDF's spread and the rank
    correlation need, or when no survivor moves from x0 (every d_max 0).

    d_max is max_k ||x_k - x0|| over the hug trajectory from (x0, v), all
    rows stepped together by :func:`_d_max_rows`; a row that hits singular
    geometry reads NaN.  The showcase velocities
    (:func:`_showcase_velocity` of each normal speed) ride as extra rows of
    the same pass; they count neither as replicates nor as failures.
    """
    if constraint.codim != 1:
        raise ConfigError("the ellipsoid study expects a codimension-1 constraint")
    R = config.replicates
    # before the R child seeds, so that a count too large costs nothing
    with _recorded(f"replicates={R} is too many"):
        V = np.empty((R + len(showcase_speeds), x0.size))
    for row, child in zip(V, np.random.SeedSequence(seed).spawn(R)):
        row[:] = uniform_sphere(np.random.default_rng(child), x0.size)
    q = unit_normal(constraint, x0)
    v_perp = np.abs(np.vecdot(V[:R], q))
    for row, s in zip(V[R:], showcase_speeds):
        row[:] = _showcase_velocity(q, x0, s)
    d_all = _d_max_rows(constraint, x0, V, config.delta, config.steps)
    d_max, d_showcase = d_all[:R], d_all[R:]
    ok = np.isfinite(d_max)
    failed = int(np.sum(~ok))
    if failed == d_max.size:
        raise StudyFailedError(f"all {failed} replicates hit singular or non-finite geometry")
    if failed == d_max.size - 1:
        raise StudyFailedError(f"only 1 of {d_max.size} replicates survived; the study needs two")
    if d_max[ok].max() == 0.0:
        raise StudyFailedError("no replicate moved from x0: every d_max is 0")
    return v_perp, d_max, failed, d_showcase


def _write_ecdf(path: str, d_max: np.ndarray) -> np.ndarray:
    """Write the ECDF CSV of the finite d_max values to path; returns their fractions."""
    fractions, probs = ecdf_points(d_max[np.isfinite(d_max)])
    write_csv(path, "ellipsoid-ecdf/1", ["d_max_fraction", "cumulative_probability"],
              zip(fractions.tolist(), probs.tolist()))
    return fractions


def run_ellipsoid(config: ExperimentConfig) -> dict:
    """Scatter of (||v_perp(0)||, d_max) over random velocities, plus ECDF."""
    if config.constraint is not None:
        constraint = build_constraint(config.constraint)
        if config.dim is not None and config.dim != constraint.ambient_dim:
            raise ConfigError(f"dim={config.dim} disagrees with the constraint's dimension "
                              f"{constraint.ambient_dim}; leave dim unset")
    else:
        dim = 3 if config.dim is None else config.dim
        if dim not in ELLIPSOID_DIAGS:
            raise ConfigError(f"no ellipsoid preset for dim={dim}; pass a constraint")
        constraint = QuadricConstraint(np.diag(ELLIPSOID_DIAGS[dim]))
    n = constraint.ambient_dim
    x0 = _config_vector(config, "x0", n) if config.x0 is not None else np.eye(n)[0]
    showcase_speeds = SHOWCASE_NORMAL_SPEEDS if n >= 3 and config.x0 is None else ()
    v_perp, d_max, failed, showcase = _scatter_study(
        constraint, x0, config, config.seed, showcase_speeds
    )
    ok = np.isfinite(d_max)
    write_csv(
        os.path.join(config.out, "ellipsoid_scatter.csv"),
        "ellipsoid-scatter/1",
        ["replicate", "v_perp_norm", "d_max"],
        zip(range(config.replicates), v_perp.tolist(), d_max.tolist()),
    )
    _write_ecdf(os.path.join(config.out, "ellipsoid_ecdf.csv"), d_max)
    correlation = spearman_rho(v_perp[ok], d_max[ok])

    summary = {
        "dim": n,
        "delta": config.delta,
        "steps": config.steps,
        "replicates": config.replicates,
        "failed_replicates": failed,
        "spearman_rank_correlation": float(correlation),
        "sup_d_max": float(d_max[ok].max()),
    }

    if showcase_speeds:
        write_csv(
            os.path.join(config.out, "ellipsoid_showcase.csv"),
            "ellipsoid-showcase/1",
            ["v_perp_norm", "d_max"],
            zip(SHOWCASE_NORMAL_SPEEDS, showcase.tolist()),
        )
        summary["showcase_d_max"] = showcase.tolist()
    return summary


def run_ecdf(config: ExperimentConfig) -> dict:
    """Matched-K comparison of d_max ECDFs for the 3-D and 6-D presets."""
    summary: dict = {
        "delta": config.delta, "steps": config.steps, "replicates": config.replicates, "dims": {}
    }
    # both studies run before either CSV is written, so that a refused one leaves no file
    studies = {dim: _scatter_study(QuadricConstraint(np.diag(ELLIPSOID_DIAGS[dim])),
                                   np.eye(dim)[0], config, config.seed + dim)[1:3]
               for dim in (3, 6)}
    means = {}
    for dim, (d_max, failed) in studies.items():
        fractions = _write_ecdf(os.path.join(config.out, f"ecdf_n{dim}.csv"), d_max)
        mean = float(fractions.mean())
        stderr = float(fractions.std(ddof=1) / np.sqrt(fractions.size))
        means[dim] = (mean, stderr)
        summary["dims"][str(dim)] = {
            "mean_fraction": mean,
            "stderr": stderr,
            "failed_replicates": failed,
        }
    summary["higher_dim_mean_fraction_larger"] = bool(means[6][0] > means[3][0])
    return summary


# ---------------------------------------------------------------------------
# tail probability and sampling chain


def run_sphere_tail(config: ExperimentConfig) -> dict:
    if config.h is None or config.dim is None:
        raise ConfigError("sphere-tail needs both h and dim")
    try:
        probability = sphere_tail_probability(config.h, config.dim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except OverflowError:  # from 0.5 * (dim - 1)
        raise ConfigError("dim is too large for a float") from None
    write_csv(
        os.path.join(config.out, "sphere_tail.csv"),
        "sphere-tail/1",
        ["h", "dim", "probability"],
        [(config.h, config.dim, probability)],
    )
    return {"h": config.h, "dim": config.dim, "probability": probability}


def run_chain(config: ExperimentConfig) -> dict:
    """Hug and random-walk chain on the Gaussian exp(-x^T A x), of covariance (2 A)^-1."""
    constraint = build_constraint(config.constraint)
    if not isinstance(constraint, QuadricConstraint):
        raise ConfigError("the chain experiment expects a quadric (Gaussian) target")
    n = constraint.ambient_dim
    x0 = _config_vector(config, "x0", n) if config.x0 is not None else np.eye(n)[0]
    params = HugParams(step_size=config.delta, steps=config.steps)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    with _recorded(f"iterations={config.iterations} is too many"):
        chain = run_sampling_chain(
            constraint, x0, params, IsotropicGaussian(dim=n), rng, config.iterations,
            walk_scale=config.walk_scale,
        )

    write_csv(
        os.path.join(config.out, "chain.csv"),
        "chain/1",
        ["iteration"] + [f"x{i+1}" for i in range(n)],
        ((i, *state) for i, state in enumerate(chain.states.tolist())),
    )
    burn = min(1000, config.iterations // 10)
    samples = chain.states[burn:]
    second_moments = (samples**2).mean(axis=0)
    target_moments = 0.5 * np.diag(np.linalg.inv(constraint.A))
    return {
        "iterations": config.iterations,
        "burn_in": burn,
        "hug_acceptance_rate": chain.hug_acceptance_rate,
        "walk_acceptance_rate": chain.walk_acceptance_rate,
        "singular_rejections": chain.singular_rejections,
        "second_moments": second_moments.tolist(),
        "target_second_moments": target_moments.tolist(),
    }


# ---------------------------------------------------------------------------
# the experiment table


@dataclass(frozen=True)
class Experiment:
    """One subcommand: its help line, its runner, ``settings`` (every config
    field it reads besides ``out`` and ``seed``, mapped to its default, or to
    None when it has none).  Its flags are the settings with a help line; its
    config file may set any of them.  The paper's study sizes are flag values:
    ``ellipsoid --steps 10000 --replicates 10000``, ``ecdf --steps 1000 --replicates 10000``."""

    help: str
    runner: Callable[[ExperimentConfig], dict]
    settings: dict = field(default_factory=dict)

    @property
    def keys(self) -> tuple[str, ...]:
        """The config fields the experiment reads: ``out``, ``seed`` and its settings."""
        return ("out", "seed", *self.settings)


_BENCH_CONSTRAINT = {"kind": "quadric", "diag": BENCH_DIAG}
_BENCH_START = {"constraint": _BENCH_CONSTRAINT, "x0": BENCH_X0, "v0": BENCH_V0}

EXPERIMENTS = {
    "table1": Experiment(
        "one- and two-step position errors of the benchmark per step size",
        run_table1,
        settings=_BENCH_START,
    ),
    "convergence": Experiment(
        "fitted convergence orders (one-step, two-step, global)",
        run_convergence,
        settings={**_BENCH_START, "t_end": 1.0},
    ),
    "phase-portrait": Experiment(
        "classified grid of reduced ellipse trajectories",
        run_phase_portrait,
        settings={"constraint": _BENCH_CONSTRAINT, "t_end": 6.0},
    ),
    "foldback": Experiment(
        "discrete fold-back trajectory vs. the flow it shadows",
        run_foldback,
        settings={"constraint": _BENCH_CONSTRAINT, "x0": FOLDBACK_X0, "v0": FOLDBACK_V0,
                  "delta": FOLDBACK_DELTA, "steps": FOLDBACK_STEPS},
    ),
    "ellipsoid": Experiment(
        "d_max scatter/ECDF over random unit velocities on an ellipsoid",
        run_ellipsoid,
        # no constraint: the preset of dim, and no dim: 3; no x0: e1
        settings={"constraint": None, "x0": None, "dim": None, "delta": 0.01,
                  "steps": 1000, "replicates": 1000},
    ),
    "ecdf": Experiment(
        "matched-step d_max ECDF comparison between the 3-D and 6-D presets",
        run_ecdf,
        settings={"delta": 0.01, "steps": 100, "replicates": 500},
    ),
    "sphere-tail": Experiment(
        "tail probability of |u.v| for v uniform on a sphere",
        run_sphere_tail,
        settings={"h": None, "dim": None},
    ),
    "chain": Experiment(
        "sampling chain on a Gaussian target with interleaved random walks",
        run_chain,
        settings={"constraint": _BENCH_CONSTRAINT, "x0": None, "delta": 0.1, "steps": 10,
                  "iterations": 20000, "walk_scale": 0.5},
    ),
}

RUNNERS = {name: experiment.runner for name, experiment in EXPERIMENTS.items()}
