"""Multi-type branching approximation of the merged component exploration.

A particle of type x (a macro-vertex standing for a cluster of x sites)
begets children at rate proportional to its size: the total offspring
count is Poisson(c * x) and each child's type is an independent draw
from the cluster-size law.  This is the superposition form of the
rank-1 kernel: a type-x particle produces Poisson-many type-y children
with mean c * x * y * mu(y) summed over y, and thinning the total by the
size-biased type law realizes exactly that.

Survival is estimated by a capped exploration: a run that reaches the
particle cap (or the generation cap) is counted as surviving.  Runs that
die late, between the ambiguity threshold and the cap, are tallied so the
caller can bound the censoring bias.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import DomainError
from .rng import STREAM_BRANCHING, generator

__all__ = [
    "TypeSampler",
    "ProgenyOutcome",
    "simulate_progeny",
    "SurvivalEstimate",
    "estimate_survival",
]

# mass allowed beyond the truncated child-type table
_TYPE_TAIL = 1e-8


class TypeSampler:
    """Inverse-CDF sampler for child types drawn from a cluster-size law.

    The law is truncated where its tail mass drops below 1e-8 and
    renormalized; the induced extinction bias is far below Monte Carlo
    resolution at any feasible replicate count.
    """

    def __init__(self, dist):
        ks, pmf, tail = dist.materialize(0.0, _TYPE_TAIL)
        if tail >= _TYPE_TAIL * 10:
            raise DomainError(f"type table leaves {tail:.3g} mass unaccounted")
        self.ks = ks
        self.cdf = np.cumsum(pmf / pmf.sum())
        self.cdf[-1] = 1.0

    def sample(self, rng, size):
        u = rng.random(size)
        return self.ks[np.searchsorted(self.cdf, u, side="right")]


@dataclass(frozen=True)
class ProgenyOutcome:
    """Result of exploring one progeny tree."""

    root_type: int
    n_particles: int     # particles generated, root included
    type_sum: int        # summed types over all particles
    generations: int
    hit_cap: bool        # reached a cap; treated as survival


def _explore(root_type, c, sampler, max_particles, max_generations, rng):
    n = 1
    total_type = int(root_type)
    gen_type_sum = int(root_type)
    generations = 0
    while True:
        count = int(rng.poisson(c * gen_type_sum))
        if count == 0:
            return ProgenyOutcome(int(root_type), n, total_type, generations, False)
        types = sampler.sample(rng, count)
        n += count
        total_type += int(types.sum())
        generations += 1
        if n > max_particles or generations >= max_generations:
            return ProgenyOutcome(int(root_type), n, total_type, generations, True)
        gen_type_sum = int(types.sum())


def simulate_progeny(k, c, dist, seed, max_particles=1_000_000,
                     max_generations=10_000):
    """Explore the progeny tree of a single type-k particle.

    Generation by generation: the next generation's count is
    Poisson(c * sum of current types), the superposition of the
    per-particle Poisson(c x) draws, and its types are i.i.d. from the
    cluster-size law.
    """
    k = int(k)
    if k < 1:
        raise DomainError(f"root type must be >= 1, got {k}")
    if c < 0.0:
        raise DomainError(f"branching density must be >= 0, got {c}")
    sampler = TypeSampler(dist)
    rng = generator(seed, STREAM_BRANCHING)
    return _explore(k, float(c), sampler, int(max_particles), int(max_generations), rng)


@dataclass(frozen=True)
class SurvivalEstimate:
    root_type: int
    c: float
    dist_tag: str
    reps: int
    rho_hat: float
    se: float
    ci_lo: float
    ci_hi: float
    ambiguous_frac: float    # died after passing the ambiguity threshold
    max_particles: int
    max_generations: int


def estimate_survival(k, c, dist, reps=10_000, seed=0, max_particles=1_000_000,
                      max_generations=10_000, ci_level=0.95, ambiguous_at=1_000):
    """Monte Carlo survival probability of a type-k progeny tree.

    Survival means hitting a cap.  The returned ``ambiguous_frac`` is the
    fraction of runs that died after exceeding ``ambiguous_at`` particles;
    it bounds how much the cap proxy can distort the estimate and should
    stay well below the confidence half-width.
    """
    reps = int(reps)
    if reps < 1:
        raise DomainError("need at least one replicate")
    sampler = TypeSampler(dist)
    c = float(c)
    survived = 0
    ambiguous = 0
    for rep in range(reps):
        rng = generator(seed, STREAM_BRANCHING, rep)
        out = _explore(int(k), c, sampler, int(max_particles),
                       int(max_generations), rng)
        if out.hit_cap:
            survived += 1
        elif out.n_particles > ambiguous_at:
            ambiguous += 1
    rho = survived / reps
    se = float(np.sqrt(rho * (1.0 - rho) / reps))
    z = float(stats.norm.ppf(0.5 + ci_level / 2.0))
    return SurvivalEstimate(
        root_type=int(k), c=c, dist_tag=dist.tag(), reps=reps,
        rho_hat=rho, se=se,
        ci_lo=max(0.0, rho - z * se), ci_hi=min(1.0, rho + z * se),
        ambiguous_frac=ambiguous / reps,
        max_particles=int(max_particles), max_generations=int(max_generations),
    )
