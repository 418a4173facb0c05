"""Multi-type branching approximation of the merged component exploration.

A particle of type x (a macro-vertex standing for a cluster of x sites)
begets children at rate proportional to its size: the total offspring
count is Poisson(c * x) and each child's type is an independent draw
from the cluster-size law.  This is the superposition form of the
rank-1 kernel: a type-x particle produces Poisson-many type-y children
with mean c * x * y * mu(y) summed over y, and thinning the total by the
size-biased type law realizes exactly that.

A tree therefore needs no per-particle state.  A generation is a count
and its type sum g: the next count is Poisson(c * g), and the next g is
the type sum of that many i.i.d. draws from the law truncated at tail
mass 1e-8, drawn as one multinomial split over the table, at a cost that
does not grow with the count.  All replicates advance one generation per
pass, in lockstep; a tree leaves the batch when it dies or hits a cap.

Survival is estimated by a capped exploration: a run that reaches the
particle cap (or the generation cap) is counted as surviving.  Runs that
die late, between the ambiguity threshold and the cap, are tallied so the
caller can bound the censoring bias.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri  # normal quantile, bit for bit what norm.ppf returns

from .errors import DomainError
from .rng import STREAM_BRANCHING, generator

__all__ = ["ProgenyOutcome", "simulate_progeny", "SurvivalEstimate", "estimate_survival"]

# mass allowed beyond the truncated child-type table
_TYPE_TAIL = 1e-8
# two-sided normal quantile of the reported confidence interval
_CI_Z = float(ndtri(0.975))
# largest mean numpy's Generator.poisson accepts ("lam value too large")
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


def _type_table(dist):
    """Child-type sizes with the probability that a draw takes each size
    given that it takes none of the smaller ones; the last is exactly 1."""
    ks, pmf, tail = dist.materialize(0.0, _TYPE_TAIL)
    if tail >= _TYPE_TAIL * 10:
        raise DomainError(f"type table leaves {tail:.3g} mass unaccounted")
    keep = pmf > 0.0
    ks, pmf = ks[keep], pmf[keep]
    return ks, pmf / np.cumsum(pmf[::-1])[::-1]


def _type_sums(rng, counts, ks, cond):
    """Type sum of counts[i] i.i.d. table draws, for every i at once: size
    ks[j] takes Binomial(left, cond[j]) of the draws still unassigned."""
    left = np.array(counts, dtype=np.int64)
    sums = np.zeros_like(left)
    for k, q in zip(ks, cond):
        if not left.any():
            break
        took = rng.binomial(left, q)
        sums += k * took
        left -= took
    return sums


def _grow(k, c, dist, reps, rng, max_particles, max_generations):
    """Run ``reps`` type-k progeny trees in lockstep.  Returns per tree the
    particles (root included), the summed types, the generations and
    whether it reached a cap."""
    k, c = int(k), float(c)
    if k < 1:
        raise DomainError(f"root type must be >= 1, got {k}")
    if not 0.0 <= c < np.inf:
        raise DomainError(f"branching density must be finite and >= 0, got {c}")
    if max_particles < 1 or max_generations < 1:
        raise DomainError(f"branching caps must be >= 1, got max_particles="
                          f"{max_particles}, max_generations={max_generations}")
    ks, cond = _type_table(dist)
    n = np.ones(reps, dtype=np.int64)
    total = np.full(reps, k, dtype=np.int64)
    gens = np.zeros(reps, dtype=np.int64)
    hit = np.zeros(reps, dtype=bool)
    live = np.arange(reps)
    g = total.copy()
    while live.size:
        lam = c * g
        if lam.max() > _POISSON_LAM_MAX:
            raise DomainError(f"branching density {c} gives a Poisson offspring mean of "
                              f"{lam.max():.3g}, past the sampler's limit")
        count = rng.poisson(lam)
        born = count > 0
        live, count = live[born], count[born]
        g = _type_sums(rng, count, ks, cond)
        n[live] += count
        total[live] += g
        gens[live] += 1
        capped = (n[live] > max_particles) | (gens[live] >= max_generations)
        hit[live[capped]] = True
        live, g = live[~capped], g[~capped]
    return n, total, gens, hit


@dataclass(frozen=True)
class ProgenyOutcome:
    """Result of exploring one progeny tree."""

    root_type: int
    n_particles: int     # particles generated, root included
    type_sum: int        # summed types over all particles
    generations: int
    hit_cap: bool        # reached a cap; treated as survival


def simulate_progeny(k, c, dist, seed, max_particles=1_000_000,
                     max_generations=10_000):
    """Explore the progeny tree of a single type-k particle: the lockstep
    engine run with one replicate."""
    n, total, gens, hit = _grow(k, c, dist, 1, generator(seed, STREAM_BRANCHING),
                                int(max_particles), int(max_generations))
    return ProgenyOutcome(int(k), int(n[0]), int(total[0]), int(gens[0]), bool(hit[0]))


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
                      max_generations=10_000, ambiguous_at=1_000):
    """Monte Carlo survival probability of a type-k progeny tree, with a
    95% normal confidence interval.

    Survival means hitting a cap.  The returned ``ambiguous_frac`` is the
    fraction of runs that died after exceeding ``ambiguous_at`` particles;
    it bounds how much the cap proxy can distort the estimate and should
    stay well below the confidence half-width.
    """
    reps = int(reps)
    if reps < 1:
        raise DomainError("need at least one replicate")
    n, _, _, hit = _grow(k, c, dist, reps, generator(seed, STREAM_BRANCHING),
                         int(max_particles), int(max_generations))
    rho = int(np.count_nonzero(hit)) / reps
    se = float(np.sqrt(rho * (1.0 - rho) / reps))
    return SurvivalEstimate(
        root_type=int(k), c=float(c), dist_tag=dist.tag(), reps=reps,
        rho_hat=rho, se=se,
        ci_lo=max(0.0, rho - _CI_Z * se), ci_hi=min(1.0, rho + _CI_Z * se),
        ambiguous_frac=int(np.count_nonzero(~hit & (n > ambiguous_at))) / reps,
        max_particles=int(max_particles), max_generations=int(max_generations),
    )
