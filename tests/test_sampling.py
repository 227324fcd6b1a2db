"""Metropolis-Hastings kernels built on the integrator."""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np
import pytest

from hugint.constraints import (
    CallableConstraint,
    QuadricConstraint,
    SphereConstraint,
    SphereSlicedConstraint,
)
from hugint.errors import SingularGeometryError
from hugint.integrator import HugParams, PhaseState, hug_trajectory
from hugint.sampling import (
    IsotropicGaussian,
    hug_kernel,
    log_density_of,
    random_walk_kernel,
    run_chain,
)
from oracles import GeneralFormulaGaussian, chain_reference

#: log-density -x.x, i.e. an isotropic Gaussian with variance 1/2 per axis.
ISO_TARGET = SphereConstraint(3)
PARAMS = HugParams(step_size=0.1, steps=10)


def test_isotropic_gaussian_velocity_distribution():
    """The draws have scale sigma; the density of the general-formula copy,
    which the kernel evaluates on it, is that of N(0, sigma^2 I)."""
    rng = np.random.default_rng(61)
    dist = IsotropicGaussian(dim=3, sigma=2.0)
    draws = np.array([dist.sample(rng, np.zeros(3)) for _ in range(2000)])
    assert abs(draws.std() - 2.0) < 0.1
    # density ratio depends only on the norms
    general = GeneralFormulaGaussian(dim=3, sigma=2.0)
    va, vb = np.array([1.0, 0.0, 1.0]), np.array([0.0, -1.0, 1.0])
    x = np.zeros(3)
    expected = -0.5 * (va @ va - vb @ vb) / 4.0
    assert np.isclose(general.log_density(va, x) - general.log_density(vb, x), expected)
    at_zero = -3.0 * np.log(2.0 * np.sqrt(2.0 * np.pi))
    assert np.isclose(general.log_density(np.zeros(3), x), at_zero)


def test_log_density_of_requires_single_component():
    with pytest.raises(ValueError):
        log_density_of(SphereSlicedConstraint(3), np.ones(3))
    assert np.isclose(log_density_of(ISO_TARGET, np.array([1.0, 0.0, 0.0])), -1.0)


def test_hug_kernel_accepts_isotropic_target():
    """On an isotropic target the proposal conserves the log-density to
    rounding, so every move is accepted with log r ~ 0."""
    rng = np.random.default_rng(62)
    dist = IsotropicGaussian(dim=3)
    x = np.array([1.0, 0.2, -0.3])
    ell = log_density_of(ISO_TARGET, x)
    for _ in range(50):
        result = hug_kernel(ISO_TARGET, x, PARAMS, dist, rng, ell)
        assert result.accepted and abs(result.log_ratio) < 1e-12
        x, ell = result.state, result.log_density


def test_cancellation_and_general_formulas_agree():
    """For a norm-invariant velocity distribution the general acceptance
    formula must reduce to the shortcut."""
    target = QuadricConstraint(np.diag([1.0, 4.0]))
    x = np.array([1.0, 0.0])
    ell = log_density_of(target, x)
    shortcut = hug_kernel(target, x, PARAMS, IsotropicGaussian(dim=2, sigma=1.3),
                          np.random.default_rng(7), ell)
    general = hug_kernel(target, x, PARAMS, GeneralFormulaGaussian(dim=2, sigma=1.3),
                         np.random.default_rng(7), ell)
    assert abs(shortcut.log_ratio - general.log_ratio) < 1e-12
    assert shortcut.accepted == general.accepted
    assert np.allclose(shortcut.state, general.state)


class _FixedVelocity:
    """Stub distribution that proposes one fixed velocity (for failure paths)."""

    norm_invariant = True

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def sample(self, rng, x):
        return self.v.copy()

    def log_density(self, v, x):
        return 0.0


def test_singular_proposal_is_rejected_in_place():
    # the first midpoint x + (delta/2) v lands exactly on the gradient zero
    rng = np.random.default_rng(63)
    x = np.array([-0.05, 0.0])
    dist = _FixedVelocity([1.0, 0.0])
    target = SphereConstraint(2)
    result = hug_kernel(target, x, PARAMS, dist, rng, log_density_of(target, x))
    assert result.singular and not result.accepted
    assert np.allclose(result.state, x)
    assert result.log_ratio == -np.inf


class _RecordingVelocity(_FixedVelocity):
    """Fixed velocity that logs the (v, x) pairs the general formula reads."""

    norm_invariant = False

    def __init__(self, v):
        super().__init__(v)
        self.seen = []

    def log_density(self, v, x):
        self.seen.append((np.array(v), np.array(x)))
        return 0.0


class _AlwaysAccept:
    """Stub generator whose uniform draw, ``random``, accepts any finite log ratio."""

    def random(self):
        return 1e-300


_QUADRIC_A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 3.0]])


@pytest.mark.parametrize(
    "target",
    [
        SphereConstraint(3),
        QuadricConstraint(_QUADRIC_A),
        CallableConstraint(
            3, 1, fn=lambda x: np.array([-(x @ _QUADRIC_A @ x)]),
            jac=lambda x: -2.0 * _QUADRIC_A @ x,
        ),
    ],
    ids=["sphere", "quadric", "callable"],
)
def test_kernel_proposal_equals_trajectory_final_state(target):
    """The kernel's lean loop and the recorded trajectory share one step
    function, so the proposal (x_K, v_K) matches bit for bit."""
    x = np.array([0.7, -0.4, 0.3])
    v0 = np.array([0.2, 0.9, -0.5])
    final = hug_trajectory(target, PhaseState(x, v0), PARAMS).final
    dist = _RecordingVelocity(v0)
    result = hug_kernel(target, x, PARAMS, dist, _AlwaysAccept(), log_density_of(target, x))
    assert result.accepted and not result.singular
    assert np.array_equal(result.state, final.x)
    (v_k, x_k), (v_first, x_first) = dist.seen
    assert np.array_equal(v_k, final.v) and np.array_equal(x_k, final.x)
    assert np.array_equal(v_first, v0) and np.array_equal(x_first, x)
    assert result.log_ratio == log_density_of(target, final.x) - log_density_of(target, x)


def test_singular_at_a_later_step_is_rejected_in_place():
    """f = x1 (x2 - 5/8) has a zero gradient at (0, 5/8).  From the origin
    with v = e2 the velocity stays tangent, the first two midpoints are
    regular and the third lands on the zero (all in exact binary fractions)."""
    target = CallableConstraint(
        2, 1, fn=lambda x: np.array([x[0] * (x[1] - 0.625)]),
        jac=lambda x: np.array([[x[1] - 0.625, x[0]]]),
    )
    x, v = np.zeros(2), np.array([0.0, 1.0])
    hug_trajectory(target, PhaseState(x, v), HugParams(0.25, 2))
    with pytest.raises(SingularGeometryError):
        hug_trajectory(target, PhaseState(x, v), HugParams(0.25, 3))
    result = hug_kernel(
        target, x, HugParams(0.25, 5), _FixedVelocity(v), np.random.default_rng(65),
        log_density_of(target, x),
    )
    assert result.singular and not result.accepted
    assert np.array_equal(result.state, x)
    assert result.log_ratio == -np.inf


class _Draws:
    """Stub generator with fixed draws: a uniform u (``random``) and a standard normal vector."""

    def __init__(self, u, normal=(0.3, -0.2)):
        self.u, self.normal = u, np.asarray(normal, dtype=float)

    def random(self):
        return self.u

    def standard_normal(self, shape):
        return self.normal.reshape(shape)


_GAUSSIAN = QuadricConstraint(np.diag([1.0, 4.0]))


def test_generator_random_is_its_uniform_draw():
    """The kernels draw their acceptance uniform with ``rng.random()``, which
    must be ``rng.uniform()``'s draw bit for bit and leave the generator in
    the same state: 10^5 scalar draws from one seed each way."""
    a, b = np.random.default_rng(35), np.random.default_rng(35)
    draws = 10**5
    assert [a.random() for _ in range(draws)] == [b.uniform() for _ in range(draws)]
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("outcome", ["accepted", "rejected"])
@pytest.mark.parametrize("kernel", ["hug", "walk"])
def test_kernel_returns_the_log_density_of_its_state(kernel, outcome):
    """Each kernel hands back ell at the state it ends in, whether it moved
    or stayed: the ell(x) it was given, or ell at its proposal."""
    x = np.array([0.4, 0.1])
    # both proposals lower ell (log r about -0.009 and -0.10), so u = 1 rejects them
    rng = _Draws(1e-300 if outcome == "accepted" else 1.0)
    given = log_density_of(_GAUSSIAN, x)
    if kernel == "hug":
        dist = _FixedVelocity([1.1, 0.3])
        result = hug_kernel(_GAUSSIAN, x, PARAMS, dist, rng, log_density=given)
    else:
        result = random_walk_kernel(_GAUSSIAN, x, 0.5, rng, log_density=given)
    assert result.accepted == (outcome == "accepted") and not result.singular
    assert np.array_equal(result.state, x) != result.accepted
    assert result.log_density == log_density_of(_GAUSSIAN, result.state)


def test_singular_rejection_returns_the_log_density_it_was_given():
    target = SphereConstraint(2)
    x = np.array([-0.05, 0.0])  # the first midpoint is the gradient zero at the origin
    dist = _FixedVelocity([1.0, 0.0])
    given = hug_kernel(target, x, PARAMS, dist, _Draws(0.5), log_density=-7.0)
    assert given.singular and given.log_density == -7.0


class _CountingQuadric(QuadricConstraint):
    """Quadric target that counts its ``value`` and ``gradient`` calls."""

    def __init__(self, A):
        super().__init__(A)
        self.value_calls = self.gradient_calls = 0

    def value(self, x):
        self.value_calls += 1
        return super().value(x)

    def gradient(self, x):
        self.gradient_calls += 1
        return super().gradient(x)


@pytest.mark.parametrize("walk_scale, per_iteration", [(0.5, 2), (None, 1)], ids=["walk", "hug-only"])
def test_run_chain_evaluates_the_log_density_once_per_move(walk_scale, per_iteration):
    """ell(x) passes from each move to the next, so a chain evaluates ell once
    at the start and once per proposal: 2 iterations + 1 calls with walks
    (evaluating it at both ends of every move takes 4 per iteration)."""
    target = _CountingQuadric(np.diag([1.0, 4.0]))
    iterations = 50
    record = run_chain(
        target, np.array([1.0, 0.0]), PARAMS, IsotropicGaussian(dim=2),
        np.random.default_rng(12), iterations, walk_scale=walk_scale,
    )
    assert target.value_calls == per_iteration * iterations + 1
    assert 0.0 < record.hug_acceptance_rate


@pytest.mark.parametrize("record", ["trajectory", "chain"])
def test_a_record_too_large_is_refused_before_any_step(record):
    """numpy refuses a (2**63, n) record with its own ValueError before the
    first step of ``hug_trajectory`` or the first move of ``run_chain``, so
    the target's gradient is never asked for."""
    target = _CountingQuadric(np.diag([1.0, 4.0]))
    with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
        if record == "trajectory":
            hug_trajectory(target, PhaseState([1.0, 0.0], [0.0, 1.0]), HugParams(0.1, 2**63 - 1))
        else:
            run_chain(target, np.array([1.0, 0.0]), PARAMS, IsotropicGaussian(dim=2),
                      np.random.default_rng(12), 2**63 - 1)
    assert target.gradient_calls == 0


def test_random_walk_kernel_acceptance_rule():
    rng = np.random.default_rng(64)
    target = QuadricConstraint(np.eye(2))
    accepted = 0
    x = np.array([0.5, 0.5])
    ell = log_density_of(target, x)
    for _ in range(200):
        result = random_walk_kernel(target, x, 0.4, rng, ell)
        if result.accepted:
            # moves to higher log-density always pass
            assert result.log_ratio > -np.inf
        accepted += result.accepted
        x, ell = result.state, result.log_density
    assert 0 < accepted < 200  # neither stuck nor free-wheeling


def test_run_chain_bookkeeping_and_determinism():
    target = QuadricConstraint(np.diag([1.0, 4.0]))
    dist = IsotropicGaussian(dim=2)
    x0 = np.array([1.0, 0.0])

    def make():
        return run_chain(
            target, x0, PARAMS, dist, np.random.default_rng(9), iterations=100,
            walk_scale=0.5,
        )

    a, b = make(), make()
    assert a.states.shape == (101, 2)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.hug_accepted, b.hug_accepted)
    assert 0.0 <= a.hug_acceptance_rate <= 1.0
    assert a.walk_accepted is not None and 0.0 <= a.walk_acceptance_rate <= 1.0
    assert a.singular_rejections == 0


def test_overflowing_midpoint_is_a_singular_rejection():
    """At delta = 1e308 with velocities of scale 100 the midpoint x + (delta/2) v
    itself overflows, so the gradient holds inf * 0 = NaN: every hug proposal
    is rejected as singular.  Under the floating-point state the CLI runs in,
    no warning escapes."""
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error", RuntimeWarning)
        chain = run_chain(
            QuadricConstraint(np.diag([1.0, 4.0])), np.array([1.0, 0.0]), HugParams(1e308, 10),
            IsotropicGaussian(dim=2, sigma=100.0), np.random.default_rng(0), 5, walk_scale=0.5,
        )
    assert chain.singular_rejections == 5 and not chain.hug_accepted.any()


_BENCH_A = np.diag([1.0, 4.0])

#: The benchmark Gaussian, and a copy whose gradient is not finite beyond
#: x_1 = 0.8, where every hug proposal is a singular rejection.
CHAIN_TARGETS = {
    "quadric": QuadricConstraint(_BENCH_A),
    "fenced": CallableConstraint(
        2, 1, fn=lambda x: np.array([-(x @ _BENCH_A @ x)]),
        jac=lambda x: -2.0 * _BENCH_A @ x if x[0] <= 0.8 else np.full((1, 2), np.nan),
    ),
}


#: Steps long enough that the quadric chains reject 12 to 24 of their 200 hug
#: moves under each OpenBLAS kernel tried (SkylakeX, Haswell, Prescott); at
#: ``PARAMS`` the quadric walk chain rejected one move or none, by kernel.
CHAIN_PARAMS = HugParams(step_size=0.5, steps=10)


@pytest.mark.parametrize("walk_scale", [0.5, None], ids=["walk", "hug-only"])
@pytest.mark.parametrize("kind", CHAIN_TARGETS)
def test_run_chain_is_bitwise_the_reference_chain(kind, walk_scale):
    """``run_chain`` on the step stream, with its kernels' bookkeeping, must
    give the bits of a chain written out move by move on the one-call step,
    drawing in the same order: the states, both acceptance arrays and the
    singular count."""
    target = CHAIN_TARGETS[kind]
    x0, sigma = np.array([0.6, 0.3]), 1.3
    record = run_chain(
        target, x0, CHAIN_PARAMS, IsotropicGaussian(dim=2, sigma=sigma),
        np.random.default_rng(21), 200, walk_scale=walk_scale,
    )
    states, hug_accepted, walk_accepted, singular = chain_reference(
        target, x0, CHAIN_PARAMS, sigma, np.random.default_rng(21), 200, walk_scale=walk_scale
    )
    assert np.array_equal(record.states, states)
    assert np.array_equal(record.hug_accepted, hug_accepted)
    if walk_scale is None:
        assert record.walk_accepted is None and walk_accepted is None
    else:
        assert np.array_equal(record.walk_accepted, walk_accepted)
    assert record.singular_rejections == singular
    assert (singular > 0) == (kind == "fenced")
    assert 0 < hug_accepted.sum() < 200


#: The exact-start check's target exp(-x^T A x), A = diag(1, 4), its start
#: count R, and the 1% critical value of the Kolmogorov distribution, the
#: limit of sqrt(R) D for R draws from the distribution tested against.
EXACT_A = np.array([1.0, 4.0])
EXACT_STARTS = 20_000
KS_CRITICAL_1PCT = 1.63

#: One Metropolis move of each kernel, given the target, x, the generator and ell(x).
EXACT_HUG = HugParams(1.0, 5)
EXACT_MOVES = {
    "hug-isotropic": partial(hug_kernel, params=EXACT_HUG,
                             velocity_dist=IsotropicGaussian(dim=2)),
    "hug-general": partial(hug_kernel, params=EXACT_HUG,
                           velocity_dist=GeneralFormulaGaussian(dim=2)),
    "walk": partial(random_walk_kernel, scale=0.5),
}


@pytest.mark.parametrize("kernel", EXACT_MOVES)
def test_one_move_from_exact_starts_keeps_the_target(kernel):
    """A Metropolis kernel leaves its target invariant, so one move from each
    of R starts drawn exactly from the target gives R exact draws again
    (Geweke 2004).  For x ~ exp(-x^T A x) on R^2, s = x^T A x is Exp(1): the
    moved draws' s must pass Kolmogorov-Smirnov against Exp(1) at 1%, and
    their second moments must sit within 4 standard errors, 4 sqrt(2 / R),
    of 1 / (2 a_i).  At delta 1.0 and K 5 the hug moves' log r is large
    enough that a kernel accepting every proposal, or with log r negated or
    halved, fails; at delta 0.5 and K 10 the halved one passed.  A kernel
    that never moves would pass, so a quarter of the moves must be taken."""
    target = QuadricConstraint(np.diag(EXACT_A))
    rng = np.random.default_rng(8)
    starts = rng.standard_normal((EXACT_STARTS, 2)) * np.sqrt(0.5 / EXACT_A)
    ells = -(starts**2 @ EXACT_A)  # ell(x) = -x^T A x, to rounding
    move = EXACT_MOVES[kernel]
    results = [move(target, x, rng=rng, log_density=ell) for x, ell in zip(starts, ells.tolist())]
    ends = np.array([result.state for result in results])
    exp_cdf = -np.expm1(-np.sort(ends**2 @ EXACT_A))
    ranks = np.arange(EXACT_STARTS + 1) / EXACT_STARTS
    ks = np.sqrt(EXACT_STARTS) * max((ranks[1:] - exp_cdf).max(), (exp_cdf - ranks[:-1]).max())
    assert ks <= KS_CRITICAL_1PCT, f"sqrt(R) D = {ks:.2f}"
    deviations = (ends**2).mean(axis=0) * (2.0 * EXACT_A) - 1.0
    assert np.abs(deviations).max() <= 4.0 * np.sqrt(2.0 / EXACT_STARTS), deviations
    accepted = np.mean([result.accepted for result in results])
    assert 0.25 <= accepted < 1.0
    print(f"{kernel}: sqrt(R) D {ks:.2f}, moment deviations {deviations}, accepted {accepted:.3f}")


def test_run_chain_without_walk_stays_near_level_set():
    """Hug moves alone nearly conserve the target log-density per move, so
    without the interleaved walk the chain creeps along one contour; drift
    accumulates only slowly across accepted moves."""
    target = QuadricConstraint(np.diag([1.0, 4.0]))
    dist = IsotropicGaussian(dim=2)
    x0 = np.array([1.0, 0.0])
    record = run_chain(
        target, x0, PARAMS, dist, np.random.default_rng(10), iterations=200
    )
    assert record.walk_accepted is None and record.walk_acceptance_rate is None
    levels = np.array([log_density_of(target, x) for x in record.states])
    assert np.abs(np.diff(levels)).max() < 0.1  # per-move near-conservation
    assert np.abs(levels - levels[0]).max() < 0.5  # no level-set escape


def test_chain_moments_rough():
    """Short anisotropic run lands in the right ballpark (tight version in the
    acceptance suite)."""
    target = QuadricConstraint(np.diag([1.0, 4.0]))
    dist = IsotropicGaussian(dim=2)
    record = run_chain(
        target,
        np.array([1.0, 0.0]),
        PARAMS,
        dist,
        np.random.default_rng(11),
        iterations=4000,
        walk_scale=0.5,
    )
    second = (record.states[400:] ** 2).mean(axis=0)
    target_moments = np.array([0.5, 0.125])
    assert np.all(np.abs(second / target_moments - 1.0) < 0.25)
