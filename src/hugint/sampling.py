"""Metropolis-Hastings sampling built on the hugging integrator.

One proposal draws a velocity, runs K integrator steps along the level set of
the log-density ell, and accepts with probability min(1, r),

    log r = ell(x_K) - ell(x_0) + log q(v_K | x_K) - log q(v_0 | x_0).

Because each step reflects the velocity with an orthogonal matrix, ||v_K||
equals ||v_0||; for an isotropic, position-independent Gaussian q the two q
terms therefore cancel exactly, and the acceptance ratio reduces to the
ell difference, which the hugging property keeps small.  The kernel exploits
that cancellation by default but can evaluate the general formula, both to
test the shortcut and to support other velocity distributions.

A proposal needs only (x_K, v_K), so the kernel takes K steps from the
integrator's stream, :func:`~hugint.integrator.hug_steps`, keeps the last
and records no trajectory.  Each kernel takes ell at its start and returns
ell at its end, so :func:`run_chain` carries ell(x) from move to move and
evaluates ell only at proposals: at x_K and nowhere in between.

Since the moves nearly preserve ell, a chain of hugging proposals alone
explores a single contour.  :func:`run_chain` can interleave a plain
random-walk Metropolis move so the chain also travels across level sets; that
is a generic substitute for a purpose-built level-jumping kernel, adequate
for the low-dimensional targets exercised here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import ClassVar, NamedTuple

import numpy as np

from .constraints import ConstraintMap
from .errors import SingularGeometryError
from .integrator import HugParams, hug_steps

LOG_DENSITY_INDEX = 0  # a codim-1 constraint's single component is the log-density


@dataclass(frozen=True)
class IsotropicGaussian:
    """Velocity distribution N(0, sigma^2 I), independent of position.

    ``norm_invariant`` is True because the log-density depends on v only
    through ||v||, which the integrator preserves.
    """

    norm_invariant: ClassVar[bool] = True

    dim: int
    sigma: float = 1.0

    def sample(self, rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
        return self.sigma * rng.standard_normal(self.dim)

    def log_density(self, v: np.ndarray, x: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        return float(
            -0.5 * (v @ v) / self.sigma**2
            - self.dim * np.log(self.sigma)
            - 0.5 * self.dim * np.log(2.0 * np.pi)
        )


class KernelResult(NamedTuple):
    """Outcome of a single Metropolis-Hastings move."""

    state: np.ndarray
    accepted: bool
    log_ratio: float
    #: The log-density at ``state``.
    log_density: float
    #: True when the proposal trajectory hit a rank-deficient gradient and was
    #: rejected outright.
    singular: bool = False


def log_density_of(target: ConstraintMap, x: np.ndarray) -> float:
    """Read the scalar log-density from a codimension-1 constraint map."""
    if target.codim != 1:
        raise ValueError("sampling targets must have a single component (codim 1)")
    return float(target.value(x)[LOG_DENSITY_INDEX])


def hug_kernel(
    target: ConstraintMap,
    x: np.ndarray,
    params: HugParams,
    velocity_dist: IsotropicGaussian,
    rng: np.random.Generator,
    use_norm_cancellation: bool = True,
    log_density: float | None = None,
) -> KernelResult:
    """One hugging Metropolis-Hastings move from x.

    With ``use_norm_cancellation`` (default) the velocity-distribution terms
    of log r are dropped for norm-invariant distributions, where they cancel
    exactly; pass False to evaluate the general formula.  The proposal
    takes K steps from :func:`~hugint.integrator.hug_steps` and keeps only
    the final pair (x_K, v_K).  ``log_density`` is ell(x), evaluated only
    when not given; ell is otherwise read at x_K only.  A rank-deficient
    gradient at any step yields an immediate rejection at x flagged ``singular``.
    """
    x = np.asarray(x, dtype=float)
    if log_density is None:
        log_density = log_density_of(target, x)
    v0 = velocity_dist.sample(rng, x)
    x_k, v_k = x, v0
    try:
        for x_k, v_k in islice(hug_steps(target, x, v0, params.step_size), params.steps):
            pass
    except SingularGeometryError:
        return KernelResult(x, False, -np.inf, log_density, singular=True)
    log_density_k = log_density_of(target, x_k)
    log_ratio = log_density_k - log_density
    if not (use_norm_cancellation and getattr(velocity_dist, "norm_invariant", False)):
        log_ratio += velocity_dist.log_density(v_k, x_k) - velocity_dist.log_density(v0, x)
    accepted = np.log(rng.uniform()) < log_ratio
    if not accepted:
        x_k, log_density_k = x, log_density
    return KernelResult(x_k, bool(accepted), float(log_ratio), log_density_k)


def random_walk_kernel(
    target: ConstraintMap,
    x: np.ndarray,
    scale: float,
    rng: np.random.Generator,
    log_density: float | None = None,
) -> KernelResult:
    """Random-walk Metropolis move with a N(0, scale^2 I) proposal; ell(x) as in hug_kernel."""
    x = np.asarray(x, dtype=float)
    if log_density is None:
        log_density = log_density_of(target, x)
    proposal = x + scale * rng.standard_normal(x.shape)
    log_density_p = log_density_of(target, proposal)
    log_ratio = log_density_p - log_density
    accepted = np.log(rng.uniform()) < log_ratio
    if not accepted:
        proposal, log_density_p = x, log_density
    return KernelResult(proposal, bool(accepted), float(log_ratio), log_density_p)


@dataclass(frozen=True)
class ChainRecord:
    """States and acceptance bookkeeping of a sampling run.

    ``states`` has shape (iterations + 1, n); row 0 is the initial state
    and row i + 1 is the state after iteration i, taken after that
    iteration's interleaved random-walk move when one is configured.
    """

    states: np.ndarray
    hug_accepted: np.ndarray
    walk_accepted: np.ndarray | None
    singular_rejections: int

    @property
    def hug_acceptance_rate(self) -> float:
        return float(np.mean(self.hug_accepted))

    @property
    def walk_acceptance_rate(self) -> float | None:
        if self.walk_accepted is None:
            return None
        return float(np.mean(self.walk_accepted))


def run_chain(
    target: ConstraintMap,
    initial_x: np.ndarray,
    params: HugParams,
    velocity_dist: IsotropicGaussian,
    rng: np.random.Generator,
    iterations: int,
    walk_scale: float | None = None,
) -> ChainRecord:
    """Run a chain of hugging moves, optionally interleaved with random walks.

    Each iteration performs one hugging move and, when ``walk_scale`` is
    given, one random-walk Metropolis move afterwards; ell(x) passes from
    each move to the next.
    """
    x = np.asarray(initial_x, dtype=float)
    log_density = log_density_of(target, x)
    states = np.empty((iterations + 1, x.size))
    states[0] = x
    hug_accepted = np.zeros(iterations, dtype=bool)
    walk_accepted = np.zeros(iterations, dtype=bool) if walk_scale is not None else None
    singular = 0
    for i in range(iterations):
        result = hug_kernel(target, x, params, velocity_dist, rng, log_density=log_density)
        x, log_density = result.state, result.log_density
        hug_accepted[i] = result.accepted
        singular += int(result.singular)
        if walk_scale is not None:
            walk = random_walk_kernel(target, x, walk_scale, rng, log_density)
            x, log_density = walk.state, walk.log_density
            walk_accepted[i] = walk.accepted
        states[i + 1] = x
    return ChainRecord(
        states=states,
        hug_accepted=hug_accepted,
        walk_accepted=walk_accepted,
        singular_rejections=singular,
    )
