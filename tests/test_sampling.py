"""Metropolis-Hastings kernels built on the integrator."""

from __future__ import annotations

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
from oracles import chain_reference

#: log-density -x.x, i.e. an isotropic Gaussian with variance 1/2 per axis.
ISO_TARGET = SphereConstraint(3)
PARAMS = HugParams(step_size=0.1, steps=10)


def test_isotropic_gaussian_velocity_distribution():
    rng = np.random.default_rng(61)
    dist = IsotropicGaussian(dim=3, sigma=2.0)
    draws = np.array([dist.sample(rng, np.zeros(3)) for _ in range(2000)])
    assert abs(draws.std() - 2.0) < 0.1
    # density ratio depends only on the norms
    va, vb = np.array([1.0, 0.0, 1.0]), np.array([0.0, -1.0, 1.0])
    x = np.zeros(3)
    expected = -0.5 * (va @ va - vb @ vb) / 4.0
    assert np.isclose(dist.log_density(va, x) - dist.log_density(vb, x), expected)


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
    for _ in range(50):
        result = hug_kernel(ISO_TARGET, x, PARAMS, dist, rng)
        assert result.accepted and abs(result.log_ratio) < 1e-12
        x = result.state


def test_cancellation_and_general_formulas_agree():
    """For a norm-invariant velocity distribution the general acceptance
    formula must reduce to the shortcut."""
    target = QuadricConstraint(np.diag([1.0, 4.0]))
    dist = IsotropicGaussian(dim=2, sigma=1.3)
    x = np.array([1.0, 0.0])
    shortcut = hug_kernel(target, x, PARAMS, dist, np.random.default_rng(7))
    general = hug_kernel(
        target, x, PARAMS, dist, np.random.default_rng(7), use_norm_cancellation=False
    )
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
    result = hug_kernel(SphereConstraint(2), x, PARAMS, dist, rng)
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
    """Stub generator whose uniform draw accepts any finite log ratio."""

    def uniform(self):
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
    result = hug_kernel(target, x, PARAMS, dist, _AlwaysAccept(), use_norm_cancellation=False)
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
        target, x, HugParams(0.25, 5), _FixedVelocity(v), np.random.default_rng(65)
    )
    assert result.singular and not result.accepted
    assert np.array_equal(result.state, x)
    assert result.log_ratio == -np.inf


class _Draws:
    """Stub generator with fixed draws: a uniform u and a standard normal vector."""

    def __init__(self, u, normal=(0.3, -0.2)):
        self.u, self.normal = u, np.asarray(normal, dtype=float)

    def uniform(self):
        return self.u

    def standard_normal(self, shape):
        return self.normal.reshape(shape)


_GAUSSIAN = QuadricConstraint(np.diag([1.0, 4.0]))


@pytest.mark.parametrize("outcome", ["accepted", "rejected"])
@pytest.mark.parametrize("kernel", ["hug", "walk"])
def test_kernel_returns_the_log_density_of_its_state(kernel, outcome):
    """Each kernel hands back ell at the state it ends in, whether it moved
    or stayed, and whether ell(x) was passed in or evaluated."""
    x = np.array([0.4, 0.1])
    # both proposals lower ell (log r about -0.009 and -0.10), so u = 1 rejects them
    rng = _Draws(1e-300 if outcome == "accepted" else 1.0)
    for given in (None, log_density_of(_GAUSSIAN, x)):
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
    evaluated = hug_kernel(target, x, PARAMS, dist, _Draws(0.5))
    assert evaluated.singular and evaluated.log_density == log_density_of(target, x)
    given = hug_kernel(target, x, PARAMS, dist, _Draws(0.5), log_density=-7.0)
    assert given.singular and given.log_density == -7.0


class _CountingQuadric(QuadricConstraint):
    """Quadric target that counts its ``value`` calls."""

    def __init__(self, A):
        super().__init__(A)
        self.value_calls = 0

    def value(self, x):
        self.value_calls += 1
        return super().value(x)


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


def test_random_walk_kernel_acceptance_rule():
    rng = np.random.default_rng(64)
    target = QuadricConstraint(np.eye(2))
    accepted = 0
    x = np.array([0.5, 0.5])
    for _ in range(200):
        result = random_walk_kernel(target, x, 0.4, rng)
        if result.accepted:
            # moves to higher log-density always pass
            assert result.log_ratio > -np.inf
        accepted += result.accepted
        x = result.state
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
        target, x0, PARAMS, IsotropicGaussian(dim=2, sigma=sigma),
        np.random.default_rng(21), 200, walk_scale=walk_scale,
    )
    states, hug_accepted, walk_accepted, singular = chain_reference(
        target, x0, PARAMS, sigma, np.random.default_rng(21), 200, walk_scale=walk_scale
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
