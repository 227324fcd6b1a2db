"""Experiment drivers behind the command-line interface.

:data:`EXPERIMENTS` lists every experiment with its help line, runner, the
config fields it takes as flags, and its defaults; :data:`RUNNERS` maps each
name to its runner.  Each ``run_*`` function takes an :class:`ExperimentConfig`
resolved against that table, writes its data files (CSV with schema headers)
under ``config.out``, and returns a summary dict that the CLI folds into the
run manifest.  Replicated studies draw every replicate's velocity up front,
each from its own child of the root seed, and then step all replicates
together as rows of one array (:func:`max_distances`), so a run is a single
process and its output depends only on the config and the seed.
"""

from __future__ import annotations

import copy
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.stats

from .constraints import ConstraintMap, QuadricConstraint, SphereConstraint, SphereSlicedConstraint
from .dynamics import convergence_study, reference_solve, split_velocity
from .ellipse import (
    EllipseModel,
    ReducedState,
    classify,
    reduced_solve,
    tangential_speed,
    to_reduced,
)
from .integrator import HugParams, PhaseState, hug_step, hug_trajectory
from .output import write_csv
from .projectors import ProjectorBundle, build_bundle
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


#: Lower bounds of integer settings (the ECDF stderr needs two replicates).
_MINIMA = {"seed": 0, "replicates": 2, "steps": 1, "iterations": 1}

#: Settings that must be numbers when set, and of those the ones that must be integers.
_NUMBERS = ("seed", "delta", "steps", "t_end", "replicates", "iterations", "walk_scale",
            "velocity_sigma", "h", "dim")
_INTEGERS = ("seed", "steps", "replicates", "iterations", "dim")


@dataclass
class ExperimentConfig:
    """Experiment request; unset fields take the defaults in :data:`EXPERIMENTS`."""

    experiment: str
    out: str = "."
    seed: int = 0
    constraint: dict | None = None
    x0: list | None = None
    v0: list | None = None
    delta: float | None = None
    steps: int | None = None
    t_end: float | None = None
    replicates: int | None = None
    full_scale: bool = False
    iterations: int | None = None
    walk_scale: float | None = None
    velocity_sigma: float = 1.0
    h: float | None = None
    dim: int | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
            )
        spec = EXPERIMENTS[self.experiment]
        defaults = {**spec.defaults, **(spec.full_scale_defaults if self.full_scale else {})}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                setattr(self, name, copy.deepcopy(value))
        for name in _NUMBERS:
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if name in _INTEGERS and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name, minimum in _MINIMA.items():
            value = getattr(self, name)
            if value is not None and value < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {value}")
        for name in ("delta", "t_end"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0 and np.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")

    def echo(self) -> dict:
        return asdict(self)


def build_constraint(spec: dict) -> ConstraintMap:
    """Build a constraint map from a config dict.

    Supported kinds: ``quadric`` (with ``diag`` or ``matrix``), ``sphere``
    (with ``dim``), ``sliced`` (with ``dim``).
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
            return SphereConstraint(int(spec["dim"]))
        if kind == "sliced":
            return SphereSlicedConstraint(int(spec.get("dim", 3)))
    except KeyError as exc:
        raise ConfigError(f"constraint kind {kind!r} is missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad constraint spec: {exc}") from exc
    raise ConfigError(f"unknown constraint kind {kind!r}")


def uniform_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform draw on the unit sphere in R^n via a normalized Gaussian."""
    while True:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def sphere_tail_probability(h: float, dim: int, abs_tol: float = 1e-10) -> float:
    """P(|u . v| >= h) for v uniform on the unit sphere in R^dim, fixed unit u.

    The component w = u . v has density proportional to (1 - w^2)^((dim-3)/2)
    on [-1, 1]; the probability is the normalized tail integral, evaluated by
    adaptive quadrature.  For dim = 3 the component is uniform, so the result
    reduces to 1 - h.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"h must lie in [0, 1], got {h}")
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    if h == 0.0:
        return 1.0
    if h == 1.0:
        return 0.0
    exponent = 0.5 * (dim - 3)

    def integrand(w: float) -> float:
        return (1.0 - w * w) ** exponent

    tail, _ = scipy.integrate.quad(integrand, h, 1.0, epsabs=abs_tol, epsrel=1e-12)
    whole, _ = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=abs_tol, epsrel=1e-12)
    return tail / whole


def max_distances(
    constraint: QuadricConstraint, x0: np.ndarray, V0: np.ndarray, delta: float, steps: int
) -> np.ndarray:
    """max_k ||x_k - x0|| of the trajectory from (x0, V0[r]) for each row r.

    All rows step together: this is :func:`~hugint.integrator.hug_step`
    written out for the quadric, whose gradient at the midpoint y is
    g = -2 A y.  A row whose gradient is not finite or vanishes, where
    ``hug_step`` would raise :class:`~hugint.errors.SingularGeometryError`,
    reads NaN; the other rows carry on.
    """
    V = np.array(V0, dtype=float)
    X = np.broadcast_to(np.asarray(x0, dtype=float), V.shape).copy()
    M = -2.0 * constraint.A
    tiny = np.sqrt(np.finfo(float).tiny)
    d_max = np.zeros(len(V))
    for _ in range(steps):
        Y = X + 0.5 * delta * V
        G = Y @ M.T
        gg = np.einsum("ij,ij->i", G, G)
        gg[~(np.isfinite(gg) & (gg > tiny))] = np.nan  # the row turns NaN and stays NaN
        Q = G / np.sqrt(gg)[:, None]
        V = V - 2.0 * Q * np.einsum("ij,ij->i", Q, V)[:, None]
        X = Y + 0.5 * delta * V
        d_max = np.maximum(d_max, np.linalg.norm(X - x0, axis=1))
    return d_max


def ecdf_points(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of values as a fraction of their maximum.

    Returns (sorted fractions, cumulative probabilities); the ECDF rises from
    1/N at the smallest fraction to exactly 1 at fraction 1.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    fractions = np.sort(values / values.max())
    return fractions, np.arange(1, values.size + 1) / values.size


# ---------------------------------------------------------------------------
# error table and convergence study


def run_table1(config: ExperimentConfig) -> dict:
    """One- and two-step position errors of the benchmark across step sizes."""
    constraint = build_constraint(config.constraint)
    initial = PhaseState(np.asarray(config.x0), np.asarray(config.v0))
    deltas = np.asarray(TABLE_DELTAS)
    one = np.empty(len(deltas))
    two = np.empty(len(deltas))
    for i, delta in enumerate(deltas):
        x1, v1 = hug_step(constraint, initial.x, initial.v, delta)
        x2, _ = hug_step(constraint, x1, v1, delta)
        sol = reference_solve(constraint, initial, np.array([0.0, delta, 2.0 * delta]))
        one[i] = np.linalg.norm(x1 - sol.xs[1])
        two[i] = np.linalg.norm(x2 - sol.xs[2])
    rows = []
    for i, delta in enumerate(deltas):
        rows.append(
            (
                delta,
                one[i],
                two[i],
                one[i - 1] / one[i] if i else None,
                two[i - 1] / two[i] if i else None,
            )
        )
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
    initial = PhaseState(np.asarray(config.x0), np.asarray(config.v0))
    study = convergence_study(constraint, initial, np.asarray(TABLE_DELTAS), horizon=config.t_end)
    write_csv(
        os.path.join(config.out, "convergence.csv"),
        "convergence/1",
        ["delta", "one_step_error", "two_step_error", "global_error"],
        zip(study.deltas, study.one_step, study.two_step, study.global_err),
    )
    return {
        "horizon": config.t_end,
        "one_step_order": study.one_step_order,
        "two_step_order": study.two_step_order,
        "global_order": study.global_order,
    }


# ---------------------------------------------------------------------------
# reduced ellipse experiments


def _ellipse_model(config: ExperimentConfig) -> EllipseModel:
    if not isinstance(config.constraint, dict) or config.constraint.get("kind") != "quadric":
        raise ConfigError("ellipse experiments need a quadric constraint")
    diag = config.constraint.get("diag")
    if diag is None or len(diag) != 2:
        raise ConfigError("ellipse experiments need a 2-entry quadric diagonal")
    return EllipseModel(a=float(diag[0]), b=float(diag[1]))


def run_phase_portrait(config: ExperimentConfig) -> dict:
    """Classified grid of reduced initial conditions with sampled orbits."""
    model = _ellipse_model(config)
    speed = float(np.sqrt(2.0))
    phis = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 7)
    ps = np.linspace(-speed, speed, 9)
    sample_times = np.arange(0.0, config.t_end + 0.05, 0.05)
    class_rows = []
    orbit_rows = []
    counts = {"rotation": 0, "libration": 0, "separatrix": 0}
    point_id = 0
    for p0 in ps:
        for phi0 in phis:
            state = ReducedState(phi=float(phi0), p=float(p0), speed=speed)
            result = classify(model, state)
            counts[result.kind] += 1
            phi_min, phi_max = result.turning_points or (None, None)
            class_rows.append(
                (point_id, phi0, p0, result.kind, result.kappa, phi_min, phi_max)
            )
            orbit = reduced_solve(model, state, sample_times)
            for t, (phi, p) in zip(sample_times, orbit):
                orbit_rows.append((point_id, t, phi, p))
            point_id += 1
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
    model = _ellipse_model(config)
    constraint = QuadricConstraint(np.diag([model.a, model.b]))
    initial = PhaseState(np.asarray(config.x0), np.asarray(config.v0))
    trajectory = hug_trajectory(constraint, initial, HugParams(config.delta, config.steps))
    tangential = np.array(
        [tangential_speed(model, x, v) for x, v in zip(trajectory.xs, trajectory.vs)]
    )
    signs = np.sign(tangential)
    sign_changes = int(np.sum(signs[1:] != signs[:-1]))

    t_end = config.delta * config.steps
    dense_times = np.arange(0.0, t_end + 0.01, 0.01)
    flow = reference_solve(constraint, initial, dense_times)
    step_indices = np.round(trajectory.times / 0.01).astype(int)
    tracking_gap = float(
        np.max(np.linalg.norm(trajectory.xs - flow.xs[step_indices], axis=1))
    )

    reduced0, _ = to_reduced(model, initial)
    result = classify(model, reduced0)

    write_csv(
        os.path.join(config.out, "foldback_steps.csv"),
        "foldback-steps/1",
        ["k", "t", "x1", "x2", "v1", "v2", "tangential_speed"],
        (
            (k, trajectory.times[k], *trajectory.xs[k], *trajectory.vs[k], tangential[k])
            for k in range(config.steps + 1)
        ),
    )
    write_csv(
        os.path.join(config.out, "foldback_flow.csv"),
        "foldback-flow/1",
        ["t", "x1", "x2", "v1", "v2"],
        ((t, *flow.xs[i], *flow.vs[i]) for i, t in enumerate(dense_times)),
    )
    return {
        "classification": result.kind,
        "kappa": result.kappa,
        "turning_points": result.turning_points,
        "tangential_sign_changes": sign_changes,
        "max_tracking_gap": tracking_gap,
        "max_distance_from_start": float(
            np.max(np.linalg.norm(trajectory.xs - initial.x, axis=1))
        ),
    }


# ---------------------------------------------------------------------------
# ellipsoid exploration studies


def _scatter_study(
    constraint: ConstraintMap, x0: np.ndarray, config: ExperimentConfig, seed: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(v_perp_norms, d_max values, failed count) over random unit velocities."""
    if not isinstance(constraint, QuadricConstraint):
        raise ConfigError("the ellipsoid study expects a quadric constraint")
    V0 = np.array([
        uniform_sphere(np.random.default_rng(child), x0.size)
        for child in np.random.SeedSequence(seed).spawn(config.replicates)
    ])
    v_perp = np.linalg.norm(V0 @ build_bundle(constraint, x0).basis, axis=1)
    d_max = max_distances(constraint, x0, V0, config.delta, config.steps)
    return v_perp, d_max, int(np.sum(~np.isfinite(d_max)))


def _showcase_velocity(bundle: ProjectorBundle, normal_speed: float) -> np.ndarray:
    """Unit velocity at bundle.x with a prescribed normal-component norm.

    v = s q + sqrt(1 - s^2) u, with q the unit normal at bundle.x pointing away
    from the origin (e1 at x0 = e1 on a diagonal quadric) and u the
    normalized tangential part of e2 + e3.
    """
    q = bundle.basis[:, 0]
    if q @ bundle.x < 0.0:
        q = -q
    e23 = np.zeros(bundle.x.size)
    e23[1] = e23[2] = 1.0
    u, _ = split_velocity(bundle, e23)
    return normal_speed * q + np.sqrt(1.0 - normal_speed**2) * (u / np.linalg.norm(u))


def run_ellipsoid(config: ExperimentConfig) -> dict:
    """Scatter of (||v_perp(0)||, d_max) over random velocities, plus ECDF."""
    if config.constraint is not None:
        constraint = build_constraint(config.constraint)
    else:
        if config.dim not in ELLIPSOID_DIAGS:
            raise ConfigError(f"no ellipsoid preset for dim={config.dim}; pass a constraint")
        constraint = QuadricConstraint(np.diag(ELLIPSOID_DIAGS[config.dim]))
    n = constraint.ambient_dim
    x0 = np.asarray(config.x0, dtype=float) if config.x0 is not None else np.eye(n)[0]
    if x0.shape != (n,):
        raise ConfigError(f"x0 must have {n} entries")
    v_perp, d_max, failed = _scatter_study(constraint, x0, config, config.seed)
    ok = np.isfinite(d_max)
    write_csv(
        os.path.join(config.out, "ellipsoid_scatter.csv"),
        "ellipsoid-scatter/1",
        ["replicate", "v_perp_norm", "d_max"],
        zip(range(config.replicates), v_perp, d_max),
    )
    fractions, probs = ecdf_points(d_max[ok])
    write_csv(
        os.path.join(config.out, "ellipsoid_ecdf.csv"),
        "ellipsoid-ecdf/1",
        ["d_max_fraction", "cumulative_probability"],
        zip(fractions, probs),
    )
    correlation = scipy.stats.spearmanr(v_perp[ok], d_max[ok]).statistic

    summary = {
        "dim": n,
        "delta": config.delta,
        "steps": config.steps,
        "replicates": config.replicates,
        "failed_replicates": failed,
        "spearman_rank_correlation": float(correlation),
        "sup_d_max": float(d_max[ok].max()),
    }

    if n >= 3 and config.x0 is None:
        bundle = build_bundle(constraint, x0)
        V0 = np.array([_showcase_velocity(bundle, s) for s in SHOWCASE_NORMAL_SPEEDS])
        showcase = max_distances(constraint, x0, V0, config.delta, config.steps)
        write_csv(
            os.path.join(config.out, "ellipsoid_showcase.csv"),
            "ellipsoid-showcase/1",
            ["v_perp_norm", "d_max"],
            zip(SHOWCASE_NORMAL_SPEEDS, showcase),
        )
        summary["showcase_d_max"] = showcase.tolist()
    return summary


def run_ecdf(config: ExperimentConfig) -> dict:
    """Matched-K comparison of d_max ECDFs for the 3-D and 6-D presets."""
    summary: dict = {
        "delta": config.delta, "steps": config.steps, "replicates": config.replicates, "dims": {}
    }
    means = {}
    for dim in (3, 6):
        constraint = QuadricConstraint(np.diag(ELLIPSOID_DIAGS[dim]))
        x0 = np.eye(dim)[0]
        v_perp, d_max, failed = _scatter_study(constraint, x0, config, config.seed + dim)
        ok = np.isfinite(d_max)
        fractions, probs = ecdf_points(d_max[ok])
        write_csv(
            os.path.join(config.out, f"ecdf_n{dim}.csv"),
            "ellipsoid-ecdf/1",
            ["d_max_fraction", "cumulative_probability"],
            zip(fractions, probs),
        )
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
    write_csv(
        os.path.join(config.out, "sphere_tail.csv"),
        "sphere-tail/1",
        ["h", "dim", "probability"],
        [(config.h, config.dim, probability)],
    )
    return {"h": config.h, "dim": config.dim, "probability": probability}


def run_chain(config: ExperimentConfig) -> dict:
    """Sampling run on a diagonal Gaussian target with interleaved random walks."""
    constraint = build_constraint(config.constraint)
    if not isinstance(constraint, QuadricConstraint):
        raise ConfigError("the chain experiment expects a quadric (Gaussian) target")
    n = constraint.ambient_dim
    x0 = np.asarray(config.x0, dtype=float) if config.x0 is not None else np.eye(n)[0]
    params = HugParams(step_size=config.delta, steps=config.steps)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    velocity = IsotropicGaussian(dim=n, sigma=config.velocity_sigma)
    chain = run_sampling_chain(
        constraint, x0, params, velocity, rng, config.iterations, walk_scale=config.walk_scale
    )

    write_csv(
        os.path.join(config.out, "chain.csv"),
        "chain/1",
        ["iteration"] + [f"x{i+1}" for i in range(n)],
        ((i, *state) for i, state in enumerate(chain.states)),
    )
    burn = min(1000, config.iterations // 10)
    samples = chain.states[burn:]
    second_moments = (samples**2).mean(axis=0)
    target_moments = 0.5 / np.diag(constraint.A)
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
    """One subcommand: its help line, its runner, the config fields it takes
    as flags (besides ``--config``, ``--out`` and ``--seed``), the defaults of
    unset fields and, under ``full_scale``, the defaults that replace them."""

    help: str
    runner: Callable[[ExperimentConfig], dict]
    flags: tuple[str, ...] = ()
    defaults: dict = field(default_factory=dict)
    full_scale_defaults: dict = field(default_factory=dict)


_BENCH_CONSTRAINT = {"kind": "quadric", "diag": BENCH_DIAG}
_BENCH_START = {"constraint": _BENCH_CONSTRAINT, "x0": BENCH_X0, "v0": BENCH_V0}
_REPLICATED_FLAGS = ("delta", "steps", "replicates", "full_scale")

EXPERIMENTS = {
    "table1": Experiment(
        "one- and two-step position errors of the benchmark per step size",
        run_table1,
        defaults=_BENCH_START,
    ),
    "convergence": Experiment(
        "fitted convergence orders (one-step, two-step, global)",
        run_convergence,
        flags=("t_end",), defaults={**_BENCH_START, "t_end": 1.0},
    ),
    "phase-portrait": Experiment(
        "classified grid of reduced ellipse trajectories",
        run_phase_portrait,
        flags=("t_end",), defaults={"constraint": _BENCH_CONSTRAINT, "t_end": 6.0},
    ),
    "foldback": Experiment(
        "discrete fold-back trajectory vs. the flow it shadows",
        run_foldback,
        flags=("delta", "steps"),
        defaults={"constraint": _BENCH_CONSTRAINT, "x0": FOLDBACK_X0, "v0": FOLDBACK_V0,
                  "delta": FOLDBACK_DELTA, "steps": FOLDBACK_STEPS},
    ),
    "ellipsoid": Experiment(
        "d_max scatter/ECDF over random unit velocities on an ellipsoid",
        run_ellipsoid,
        flags=("dim", *_REPLICATED_FLAGS),
        defaults={"dim": 3, "delta": 0.01, "steps": 1000, "replicates": 1000},
        full_scale_defaults={"steps": 10000, "replicates": 10000},
    ),
    "ecdf": Experiment(
        "matched-step d_max ECDF comparison between the 3-D and 6-D presets",
        run_ecdf,
        flags=_REPLICATED_FLAGS,
        defaults={"delta": 0.01, "steps": 100, "replicates": 500},
        full_scale_defaults={"steps": 1000, "replicates": 10000},
    ),
    "sphere-tail": Experiment(
        "tail probability of |u.v| for v uniform on a sphere", run_sphere_tail, flags=("h", "dim")
    ),
    "chain": Experiment(
        "sampling chain on a Gaussian target with interleaved random walks",
        run_chain,
        flags=("delta", "steps", "iterations", "walk_scale"),
        defaults={"constraint": _BENCH_CONSTRAINT, "delta": 0.1, "steps": 10,
                  "iterations": 20000, "walk_scale": 0.5},
    ),
}

RUNNERS = {name: experiment.runner for name, experiment in EXPERIMENTS.items()}
