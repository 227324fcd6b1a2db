"""Acceptance gate: the headline guarantees of the package, one test per claim.

Each test pins the tolerance it must meet; run with ``-v`` to get one
pass/fail line per criterion, and ``-s`` for the measured margins.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from conftest import MAP_KINDS, random_run
from hugint.constraints import (
    CallableConstraint,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from hugint.dynamics import convergence_study, reference_solve
from hugint.ellipse import (
    EllipseModel,
    classify,
    reduced_orbits,
    tangential_speed,
    to_reduced,
)
from hugint.experiments import (
    BENCH_DIAG,
    BENCH_V0,
    BENCH_X0,
    FOLDBACK_DELTA,
    FOLDBACK_STEPS,
    FOLDBACK_V0,
    FOLDBACK_X0,
    TABLE_DELTAS,
    ExperimentConfig,
    run_chain as run_chain_experiment,
    run_ecdf,
    run_ellipsoid,
)
from hugint.integrator import HugParams, PhaseState, hug_steps, hug_trajectory, level_drift_bound
from hugint.sampling import hug_kernel, log_density_of
from oracles import (
    GeneralFormulaGaussian,
    dense_projectors,
    field_divergence,
    hessian_bound_estimates,
    integrated_angle_extreme,
    nprime,
    nprime_par,
    nprime_perp,
)


def _bench():
    constraint = QuadricConstraint(np.diag(BENCH_DIAG))
    return constraint, PhaseState(np.asarray(BENCH_X0), np.asarray(BENCH_V0))


def _bench_errors():
    """One- and two-step position errors against the resolved flow."""
    constraint, initial = _bench()
    one, two = [], []
    for delta in TABLE_DELTAS:
        xs, _ = reference_solve(constraint, initial, np.array([0.0, delta, 2.0 * delta]))
        x1, v1 = next(hug_steps(constraint, initial.x, initial.v, delta))
        x2, _ = next(hug_steps(constraint, x1, v1, delta))
        one.append(float(np.linalg.norm(x1 - xs[1])))
        two.append(float(np.linalg.norm(x2 - xs[2])))
    return one, two


# Benchmark error table pinned up front: {delta: (one_step, two_step)}.  The
# one-step entry at delta = 1/64 is inconsistent with the second-order decay
# visible in the neighbouring rows (it would need to jump up tenfold); the
# test below treats it as a tenfold transcription slip and flags it.
REFERENCE_ERRORS = {
    1.0 / 16.0: (4.23e-4, 4.87e-5),
    1.0 / 32.0: (1.15e-4, 6.56e-6),
    1.0 / 64.0: (3.00e-4, 8.50e-7),
    1.0 / 128.0: (7.62e-6, 1.08e-7),
    1.0 / 256.0: (1.93e-6, 1.36e-8),
}


def test_criterion_01_error_table_reproduced():
    """One- and two-step errors match the pinned table within 2% relative."""
    one, two = _bench_errors()
    worst = 0.0
    for i, delta in enumerate(TABLE_DELTAS):
        ref_one, ref_two = REFERENCE_ERRORS[delta]
        if delta == 1.0 / 64.0:
            warnings.warn(
                "pinned one-step error at delta=1/64 (3.00e-4) is inconsistent "
                "with second-order decay; computed value "
                f"{one[i]:.3e} matches the pinned value divided by 10"
            )
            ref_one = ref_one / 10.0
        rel_one = abs(one[i] - ref_one) / ref_one
        rel_two = abs(two[i] - ref_two) / ref_two
        worst = max(worst, rel_one, rel_two)
        assert rel_one <= 0.02, f"delta={delta}: one-step off by {rel_one:.2%}"
        assert rel_two <= 0.02, f"delta={delta}: two-step off by {rel_two:.2%}"
    print(f"criterion 01: worst relative deviation from pinned table {worst:.2%}")


def test_criterion_02_convergence_orders():
    """Fitted orders: one-step ~2, two-step ~3, global over T=1 ~2."""
    constraint, initial = _bench()
    study = convergence_study(constraint, initial, np.asarray(TABLE_DELTAS), horizon=1.0)
    assert 1.8 <= study.one_step_order <= 2.2, f"one-step order {study.one_step_order}"
    assert 2.6 <= study.two_step_order <= 3.4, f"two-step order {study.two_step_order}"
    assert 1.8 <= study.global_order <= 2.2, f"global order {study.global_order}"
    print(
        f"criterion 02: orders one={study.one_step_order:.3f} "
        f"two={study.two_step_order:.3f} global={study.global_order:.3f}"
    )


def _dense_quadric():
    """A dense, non-diagonal SPD quadric at n = 6 with a unit-speed start, all drawn at seed 6."""
    rng = np.random.default_rng(6)
    M = rng.standard_normal((6, 6))
    x0, v0 = rng.standard_normal((2, 6))
    return QuadricConstraint(M @ M.T + np.eye(6)), PhaseState(x0, v0 / np.linalg.norm(v0))


def _quartic():
    """f(x) = -(x_1^2 + 4 x_2^2 + x_1^4), not a quadric: a ``CallableConstraint``
    with its analytic Jacobian, whose Hessian contraction, and so the
    reference flow, is the finite-difference default; a unit start off the
    tangent, like the benchmark's, so the one-step error is second order."""
    quartic = CallableConstraint(
        2, 1, fn=lambda x: -(x[0] ** 2 + 4.0 * x[1] ** 2 + x[0] ** 4),
        jac=lambda x: [[-(2.0 * x[0] + 4.0 * x[0] ** 3), -8.0 * x[1]]],
    )
    return quartic, PhaseState([0.8, 0.3], [0.6, -0.8])


_BEYOND_THE_ELLIPSE = {
    "dense-quadric-6": _dense_quadric,
    "quartic-2": _quartic,
    "sliced-3": lambda: (SphereSlicedConstraint(3),
                         PhaseState([0.73907151, 0.54626892, 0.39413414], [0.2, -0.4, 0.5])),
    "sliced-4": lambda: (SphereSlicedConstraint(4),
                         PhaseState([0.6, 0.5, 0.4, 0.3], [0.2, -0.4, 0.5, 0.1])),
}


@pytest.mark.parametrize("case", list(_BEYOND_THE_ELLIPSE))
def test_criterion_02_orders_beyond_the_ellipse(case):
    """Criterion 02's orders, in its ranges, away from the ellipse: on a
    dense quadric at n = 6, on a quartic level set at n = 2 with a
    finite-difference Hessian, and on the codim-2 sliced sphere at n = 3 and 4."""
    constraint, initial = _BEYOND_THE_ELLIPSE[case]()
    study = convergence_study(constraint, initial, np.asarray(TABLE_DELTAS), horizon=1.0)
    assert 1.8 <= study.one_step_order <= 2.2, f"{case}: one-step order {study.one_step_order}"
    assert 2.6 <= study.two_step_order <= 3.4, f"{case}: two-step order {study.two_step_order}"
    assert 1.8 <= study.global_order <= 2.2, f"{case}: global order {study.global_order}"
    print(
        f"criterion 02 ({case}): orders one={study.one_step_order:.3f} "
        f"two={study.two_step_order:.3f} global={study.global_order:.3f}"
    )


def _fd_phase_det(constraint, x0, v0, delta, h=1e-5):
    n = x0.size
    z0 = np.concatenate([x0, v0])
    cols = []
    for i in range(2 * n):
        e = np.zeros(2 * n)
        e[i] = h
        xp, vp = next(hug_steps(constraint, (z0 + e)[:n], (z0 + e)[n:], delta))
        xm, vm = next(hug_steps(constraint, (z0 - e)[:n], (z0 - e)[n:], delta))
        cols.append((np.concatenate([xp, vp]) - np.concatenate([xm, vm])) / (2 * h))
    return float(np.linalg.det(np.array(cols).T))


def test_criterion_03_exact_step_invariants_random_maps():
    """Per step on 100 random configurations of every built-in map: speed is
    constant to 1e-12, each segment has length (delta/2)||v0|| to 1e-12,
    velocity flips give exact reversibility to 1e-10, and the
    finite-difference phase-volume determinant has modulus 1 to 1e-6."""
    margins = {"speed": 0.0, "segment": 0.0, "reverse": 0.0, "volume": 0.0}
    for k, kind in enumerate(MAP_KINDS):
        rng = np.random.default_rng(2025 + k)
        for _ in range(100):
            constraint, x0, v0, delta, steps = random_run(kind, rng)
            t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(delta, steps))
            speed0 = np.linalg.norm(v0)

            speed_err = float(np.max(np.abs(t.speeds - speed0)))
            margins["speed"] = max(margins["speed"], speed_err)
            assert speed_err <= 1e-12, f"{kind}: speed drift {speed_err}"

            half = np.linalg.norm(t.midpoints - t.xs[:-1], axis=1)
            seg_err = float(np.max(np.abs(half - 0.5 * delta * speed0)))
            margins["segment"] = max(margins["segment"], seg_err)
            assert seg_err <= 1e-12, f"{kind}: segment length error {seg_err}"

            back = hug_trajectory(
                constraint,
                PhaseState(t.final.x, -t.final.v),
                HugParams(delta, steps),
            )
            rev_err = float(
                max(
                    np.linalg.norm(back.final.x - x0),
                    np.linalg.norm(back.final.v + v0),
                )
            )
            margins["reverse"] = max(margins["reverse"], rev_err)
            assert rev_err <= 1e-10, f"{kind}: reversibility error {rev_err}"

            det = _fd_phase_det(constraint, x0, v0, delta)
            vol_err = abs(abs(det) - 1.0)
            margins["volume"] = max(margins["volume"], vol_err)
            assert vol_err <= 1e-6, f"{kind}: |det| off by {vol_err}"
    print(
        "criterion 03: worst margins "
        + " ".join(f"{k}={v:.2e}" for k, v in margins.items())
    )


def test_criterion_04_isotropic_level_exact():
    """On an isotropic quadric the level value is preserved to 1e-11 over
    1000 steps for arbitrary starting data."""
    constraint = QuadricConstraint(0.7 * np.eye(3))
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(5):
        x0 = rng.standard_normal(3) * rng.uniform(0.5, 1.5)
        v0 = rng.standard_normal(3)
        delta = float(rng.uniform(0.01, 0.2))
        t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(delta, 1000))
        worst = max(worst, float(t.level_drift.max()))
        assert t.level_drift.max() <= 1e-11, f"drift {t.level_drift.max()}"
    print(f"criterion 04: worst level drift over 1000 steps {worst:.2e}")


def test_criterion_05_level_deviation_bound():
    """||f(x_K) - f(x_0)|| stays below the a priori bound built from inflated
    Hessian estimates, across a grid of step sizes and step counts."""
    constraint = SphereSlicedConstraint(3)
    x0 = np.array([0.73907151, 0.54626892, 0.39413414])
    v0 = np.array([0.2, -0.4, 0.5])
    speed = float(np.linalg.norm(v0))
    probe = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(0.1, 100))
    beta, gamma = hessian_bound_estimates(constraint, probe.xs[::5])
    beta, gamma = 1.1 * beta, 1.1 * gamma
    worst_ratio = 0.0
    for delta in (0.02, 0.05, 0.1):
        for steps in (1, 5, 20, 100):
            t = hug_trajectory(constraint, PhaseState(x0, v0), HugParams(delta, steps))
            bound = level_drift_bound(delta, steps, speed, beta, gamma)
            drift = float(t.level_drift.max())
            worst_ratio = max(worst_ratio, drift / bound)
            assert drift <= bound, (
                f"delta={delta} K={steps}: drift {drift:.3e} exceeds bound {bound:.3e}"
            )
    print(f"criterion 05: worst drift/bound ratio {worst_ratio:.3f}")


def test_criterion_06_projector_derivative():
    """The projector derivative matches central differences at second order,
    satisfies its image/kernel/nilpotency/transpose identities to 1e-12
    relative, and agrees with the bivariate closed form to 1e-12."""
    rng = np.random.default_rng(606)
    for kind in MAP_KINDS:
        constraint, x0, _, _, _ = random_run(kind, rng)
        n = x0.size
        normal, tangent = dense_projectors(constraint, x0)
        w = rng.standard_normal(n)

        full = nprime(constraint, x0, w)
        errs = []
        hs = (4e-3, 2e-3, 1e-3)
        for h in hs:
            fd = (
                dense_projectors(constraint, x0 + h * w)[0]
                - dense_projectors(constraint, x0 - h * w)[0]
            ) / (2.0 * h)
            errs.append(np.linalg.norm(fd - full))
        if max(errs) > 1e-13:  # affine maps have a constant projector: errs are 0
            slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert 1.7 <= slope <= 2.3, f"{kind}: FD slope {slope}"

        perp = nprime_perp(constraint, x0, w)
        par = nprime_par(constraint, x0, w)
        scale = max(np.linalg.norm(perp), 1e-300)
        assert np.linalg.norm(tangent @ perp) <= 1e-12 * scale, f"{kind}: image"
        assert np.linalg.norm(perp @ normal) <= 1e-12 * scale, f"{kind}: kernel"
        assert np.linalg.norm(perp @ perp) <= 1e-12 * scale**2, f"{kind}: nilpotency"
        assert np.linalg.norm(par - perp.T) <= 1e-12 * scale, f"{kind}: transpose"

    # closed form on the diag(1, 4) quadric
    a, b = 1.0, 4.0
    constraint = QuadricConstraint(np.diag([a, b]))
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        w = rng.standard_normal(2)
        denom = (a * a * x[0] ** 2 + b * b * x[1] ** 2) ** 2
        coef = a * b * (w[1] * x[0] - w[0] * x[1]) / denom
        closed = coef * np.outer(
            np.array([a * x[0], b * x[1]]), np.array([-b * x[1], a * x[0]])
        )
        got = nprime_perp(constraint, x, w)
        worst = max(worst, float(np.max(np.abs(got - closed))))
    assert worst <= 1e-12, f"closed-form deviation {worst}"
    print(f"criterion 06: closed-form deviation {worst:.2e}")


def test_criterion_07_flow_invariants():
    """The continuous flow conserves ||v||^2 and the level value to 1e-10
    over t in [0, 2], and its phase-space divergence is below 1e-6."""
    sliced_x0 = np.array([0.73907151, 0.54626892, 0.39413414])
    cases = [
        _bench(),
        (SphereSlicedConstraint(3), PhaseState(sliced_x0, np.array([0.2, -0.4, 0.5]))),
    ]
    times = np.linspace(0.0, 2.0, 81)
    for constraint, initial in cases:
        xs, vs = reference_solve(constraint, initial, times)
        sq = np.sum(vs**2, axis=1)
        sq_drift = float(np.max(np.abs(sq - sq[0])))
        levels = np.array([constraint.value(x) for x in xs])
        level_drift = float(np.max(np.abs(levels - levels[0])))
        assert sq_drift <= 1e-10, f"||v||^2 drift {sq_drift}"
        assert level_drift <= 1e-10, f"level drift {level_drift}"
        for i in range(0, len(times), 10):
            div = abs(field_divergence(constraint, xs[i], vs[i]))
            assert div <= 1e-6, f"divergence {div} at t={times[i]}"
    print(f"criterion 07: worst drifts ||v||^2={sq_drift:.2e} level={level_drift:.2e}")


def test_criterion_08_foldback_geometry():
    """The fold-back run is a libration whose conserved ratio drifts below
    1e-9, whose turning angle equals arcsin(1/sqrt(21)) and matches the
    integrated extreme to 1e-6, and whose tangential speed changes sign
    exactly twice in 14 steps."""
    model = EllipseModel(a=BENCH_DIAG[0], b=BENCH_DIAG[1])
    initial = PhaseState(np.asarray(FOLDBACK_X0), np.asarray(FOLDBACK_V0))
    reduced0 = to_reduced(model, initial)

    result = classify(model, reduced0)
    assert result.kind == "libration", f"classified as {result.kind}"

    times = np.linspace(0.0, 8.0, 161)
    ys = reduced_orbits(model, [reduced0], times)[0]
    kappas = np.array(
        [model.kappa(type(reduced0)(phi, p, reduced0.speed)) for phi, p in ys]
    )
    kappa_drift = float(np.max(np.abs(kappas - kappas[0])))
    assert kappa_drift <= 1e-9, f"kappa drift {kappa_drift}"

    lo, hi = result.turning_points
    expected = float(np.arcsin(1.0 / np.sqrt(21.0)))
    assert abs(hi - expected) <= 1e-12, f"turning angle {hi} vs {expected}"
    assert abs(lo + expected) <= 1e-12

    extreme = integrated_angle_extreme(model, reduced0, t_final=15.0)
    assert abs(extreme - hi) <= 1e-6, f"integrated extreme {extreme} vs {hi}"

    constraint = QuadricConstraint(np.diag(BENCH_DIAG))
    t = hug_trajectory(constraint, initial, HugParams(FOLDBACK_DELTA, FOLDBACK_STEPS))
    signs = np.sign([tangential_speed(model, x, v) for x, v in zip(t.xs, t.vs)])
    changes = int(np.sum(signs[1:] != signs[:-1]))
    assert changes == 2, f"{changes} tangential sign changes"
    print(
        f"criterion 08: kappa drift {kappa_drift:.2e}, "
        f"|extreme - turning| {abs(extreme - hi):.2e}, {changes} sign changes"
    )


def test_criterion_09_exploration_studies(tmp_path):
    """Desk-scale exploration suite finishes in under two minutes with a
    strong negative rank correlation, strictly ordered showcase excursions,
    and a clear mean ECDF separation between 3 and 6 dimensions."""
    start = time.perf_counter()
    ell = run_ellipsoid(
        ExperimentConfig(
            experiment="ellipsoid",
            out=str(tmp_path),
            seed=0,
            dim=3,
            steps=100,
            replicates=500,
        )
    )
    assert ell["failed_replicates"] == 0
    rho = ell["spearman_rank_correlation"]
    assert rho <= -0.5, f"rank correlation {rho}"
    showcase = ell["showcase_d_max"]
    assert all(
        a > b for a, b in zip(showcase, showcase[1:])
    ), f"showcase excursions not strictly decreasing: {showcase}"

    ecdf = run_ecdf(
        ExperimentConfig(
            experiment="ecdf", out=str(tmp_path), seed=0, steps=100, replicates=500
        )
    )
    m3, m6 = ecdf["dims"]["3"], ecdf["dims"]["6"]
    gap = m6["mean_fraction"] - m3["mean_fraction"]
    noise = np.sqrt(m3["stderr"] ** 2 + m6["stderr"] ** 2)
    assert gap > 2.0 * noise, f"ECDF mean gap {gap} within noise {noise}"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"exploration suite took {elapsed:.0f}s"
    print(
        f"criterion 09: rho={rho:.3f}, gap={gap:.4f} ({gap / noise:.1f} sigma), "
        f"elapsed {elapsed:.1f}s"
    )


def test_criterion_10_sampler_acceptance_and_moments(tmp_path):
    """On an isotropic target every proposal is accepted with |log r| below
    1e-12 even without the norm-cancellation shortcut; on the anisotropic
    benchmark with interleaved walks the chain reproduces the target second
    moments within 5% over 50000 iterations."""
    target = SphereConstraint(3)
    x = np.array([0.6, -0.8, 0.0])
    params = HugParams(0.1, 10)
    velocity = GeneralFormulaGaussian(dim=3)
    rng = np.random.default_rng(1010)
    worst, ell = 0.0, log_density_of(target, x)
    for _ in range(200):
        result = hug_kernel(target, x, params, velocity, rng, ell)
        assert result.accepted
        worst = max(worst, abs(result.log_ratio))
        x, ell = result.state, result.log_density
    assert worst <= 1e-12, f"|log r| reached {worst}"

    summary = run_chain_experiment(
        ExperimentConfig(experiment="chain", out=str(tmp_path), seed=0, iterations=50000)
    )
    rels = [
        abs(got - want) / want
        for got, want in zip(summary["second_moments"], summary["target_second_moments"])
    ]
    assert max(rels) <= 0.05, (
        f"second moments {summary['second_moments']} vs "
        f"{summary['target_second_moments']} ({max(rels):.2%} off)"
    )
    print(
        f"criterion 10: worst |log r| {worst:.2e}, "
        f"moment deviations {[f'{r:.2%}' for r in rels]}"
    )


def _angles(v0, delta, steps):
    """phi_k = atan2(2 x_2, x_1), k = 0..steps, the angle of the hug run from
    (1, 0) with velocity v0 on the benchmark ellipse diag(1, 4)."""
    constraint = QuadricConstraint(np.diag(BENCH_DIAG))
    initial = PhaseState(np.asarray(FOLDBACK_X0), np.asarray(v0))
    xs = hug_trajectory(constraint, initial, HugParams(delta, steps)).xs
    return np.arctan2(2.0 * xs[:, 1], xs[:, 0])


def _bins_hit(phi, bins=64):
    """How many of ``bins`` equal angle bins on [-pi, pi) the angles hit."""
    return np.unique(np.floor((phi + np.pi) * (bins / (2.0 * np.pi))).astype(int) % bins).size


def test_criterion_11_discrete_non_coverage_over_long_horizons():
    """Over 10^4 steps from the fold-back start the discrete map stays within
    an O(delta^2) excess of the flow's turning angle phi*, an excess that
    does not grow from 10^3 to 10^4 steps, so its trajectories fail to cover
    the ellipse as the flow's do; a rotation start, and the fold-back start
    at delta 0.2, past the discrete map's limit, hit all 64 angle bins."""
    model = EllipseModel(a=BENCH_DIAG[0], b=BENCH_DIAG[1])
    reduced0 = to_reduced(model, PhaseState(np.asarray(FOLDBACK_X0), np.asarray(FOLDBACK_V0)))
    _, phi_star = classify(model, reduced0).turning_points
    deltas = (FOLDBACK_DELTA, 0.05, 0.025, 0.0125)
    phis = [np.abs(_angles(FOLDBACK_V0, delta, 10_000)) for delta in deltas]
    excess = np.array([phi.max() - phi_star for phi in phis])
    short = phis[0][: 1_000 + 1].max() - phi_star
    assert excess[0] <= 1e-2, f"excess {excess[0]:.4e} at delta {FOLDBACK_DELTA}"
    growth = abs(excess[0] - short) / short
    assert growth <= 0.01, f"excess {excess[0]:.4e} over 10^4 steps vs {short:.4e} over 10^3"
    order, _ = np.polyfit(np.log(deltas[1:]), np.log(excess[1:]), 1)
    assert 1.8 <= order <= 2.2, f"excess order {order}"
    rotation = _bins_hit(_angles((0.0, 1.0), FOLDBACK_DELTA, 10_000))
    limit = _bins_hit(_angles(FOLDBACK_V0, 0.2, 10_000))
    assert rotation == limit == 64, f"bins hit: rotation {rotation}, fold-back at 0.2 {limit}"
    print(
        f"criterion 11: excess {excess[0]:.4e} (bound 1e-2), "
        f"{growth:.3%} above its 10^3-step value, order {order:.3f}, "
        f"bins {rotation}/64 and {limit}/64"
    )
