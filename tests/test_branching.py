"""Lockstep branching engine, its type-sum draw and the survival estimator."""

import numpy as np
import pytest
from scipy import stats

from percograph import (
    branching,
    estimate_survival,
    exact_d1,
    from_table,
    point_mass,
    rho_of_type,
    solve_beta,
)
from percograph.branching import _CI_Z, _grow, _type_sums, _type_table
from percograph.errors import DomainError
from percograph.rng import STREAM_BRANCHING, generator


def _tree(k, c, dist, seed, max_particles=1_000_000, max_generations=10_000):
    """One type-k tree, the lockstep engine run with a single replicate on
    the branching stream of ``seed``: (particles, type sum, generations,
    hit a cap)."""
    n, total, gens, hit = _grow(k, c, dist, 1, generator(seed, STREAM_BRANCHING),
                                max_particles, max_generations)
    return int(n[0]), int(total[0]), int(gens[0]), bool(hit[0])


def test_no_branching_at_zero_density():
    assert _tree(4, 0.0, exact_d1(0.3), seed=2) == (1, 4, 0, False)


def test_progeny_validation():
    with pytest.raises(DomainError):
        _tree(0, 0.5, exact_d1(0.3), seed=0)
    with pytest.raises(DomainError):
        _tree(1, -0.5, exact_d1(0.3), seed=0)


def test_progeny_determinism():
    a = _tree(2, 0.8, exact_d1(0.4), seed=77)
    b = _tree(2, 0.8, exact_d1(0.4), seed=77)
    assert a == b
    runs = {_tree(2, 0.8, exact_d1(0.4), seed=s)[0] for s in range(20)}
    assert len(runs) > 1


def _draw_type_sums(dist, count, size, seed=123):
    return _type_sums(generator(seed), np.full(size, count), *_type_table(dist))


def test_type_sum_of_one_draw_has_the_law_marginal():
    dist = exact_d1(0.45)
    draws = _draw_type_sums(dist, 1, 200_000)
    for k in range(1, 9):
        frac = float(np.mean(draws == k))
        q = float(dist.pmf(k))
        se = np.sqrt(q * (1 - q) / draws.size)
        assert abs(frac - q) < 4 * se


@pytest.mark.parametrize("count", [3, 40, 1000])
def test_type_sum_moments_scale_with_count(count):
    dist = exact_d1(0.45)
    mean, var = dist.mean_size, dist.second_moment - dist.mean_size ** 2
    draws = _draw_type_sums(dist, count, 100_000).astype(float)
    dev = draws - draws.mean()
    se_mean = np.sqrt(count * var / draws.size)
    se_var = np.sqrt((np.mean(dev ** 4) - np.mean(dev ** 2) ** 2) / draws.size)
    assert abs(draws.mean() - count * mean) < 4 * se_mean
    assert abs(draws.var() - count * var) < 4 * se_var


def test_type_sum_of_a_point_mass_is_exact():
    counts = np.array([0, 1, 7, 123_456])
    sums = _type_sums(generator(5), counts, *_type_table(point_mass(3)))
    assert np.array_equal(sums, 3 * counts)


def test_type_sum_skips_zero_probability_sizes():
    # zero mass first, inside and last: only sizes 2 and 5 can be drawn
    dist = from_table([1, 2, 3, 5, 8], [0.0, 0.5, 0.0, 0.5, 0.0])
    draws = _draw_type_sums(dist, 1, 20_000)
    assert set(np.unique(draws)) == {2, 5}
    pairs = _draw_type_sums(dist, 2, 20_000)
    assert set(np.unique(pairs)) == {4, 7, 10}


def test_point_mass_total_progeny_mean():
    # single-type subcritical tree: E(total particles) = 1/(1 - c)
    c = 0.5
    totals = np.array([_tree(1, c, point_mass(1), seed=s)[0] for s in range(3000)],
                      dtype=float)
    assert not np.any(totals > 1e5)  # all died out
    expected = 1.0 / (1.0 - c)
    # total-progeny variance sigma^2/(1-m)^3 with sigma^2 = m = c
    se = np.sqrt(c / (1 - c) ** 3 / totals.size)
    assert abs(totals.mean() - expected) < 4 * se


def test_subcritical_always_dies():
    dist = exact_d1(0.3)
    c = 0.3  # c * E|C| = 0.557 < 1
    for s in range(300):
        _, _, _, hit_cap = _tree(1, c, dist, seed=s, max_particles=10**6)
        assert not hit_cap


def test_caps_trigger():
    n_particles, _, _, hit_cap = _tree(5, 5.0, point_mass(1), seed=1, max_particles=50)
    assert hit_cap
    assert n_particles > 50
    _, _, generations, hit_cap = _tree(5, 5.0, point_mass(1), seed=1, max_generations=2)
    assert hit_cap
    assert generations == 2


def test_survival_matches_fixed_point():
    # rho(k) = 1 - e^(-c beta k) with beta the giant-fraction root
    dist = exact_d1(0.3)
    c = 1.0
    beta = solve_beta(dist, c)
    for k in (1, 3):
        est = estimate_survival(k, c, dist, reps=2000, seed=42,
                                max_particles=20_000)
        rho = float(rho_of_type(k, c, beta))
        assert abs(est.rho_hat - rho) < 3.5 * max(est.se, 1e-4)
        assert est.ci_lo <= est.rho_hat <= est.ci_hi
        assert est.ambiguous_frac <= 0.01
        assert est.reps == 2000 and est.root_type == k


def test_survival_zero_when_subcritical():
    est = estimate_survival(2, 0.4, exact_d1(0.2), reps=500, seed=7,
                            max_particles=50_000)
    assert est.rho_hat == 0.0
    assert est.se == 0.0
    assert est.ci_lo == 0.0 and est.ci_hi == 0.0


def test_survival_increases_with_type():
    dist = exact_d1(0.3)
    c = 1.2
    rhos = [estimate_survival(k, c, dist, reps=800, seed=3,
                              max_particles=20_000).rho_hat for k in (1, 4, 10)]
    assert rhos[0] < rhos[1] < rhos[2] <= 1.0


def test_ambiguous_fraction_counts_late_deaths(monkeypatch):
    # with a tiny ambiguity threshold some near-critical runs die late
    monkeypatch.setattr(branching, "_AMBIGUOUS_AT", 10)
    dist = exact_d1(0.3)
    c = 0.95 / dist.mean_size  # just below critical
    est = estimate_survival(1, c, dist, reps=400, seed=11,
                            max_particles=100_000)
    assert 0.0 <= est.ambiguous_frac <= 1.0
    assert est.ambiguous_frac > 0.0
    # below c_cr every run dies; one generation caps runs of a few particles
    est = estimate_survival(1, 0.5, dist, reps=10, seed=0, max_generations=1)
    assert est.rho_hat == 0.3
    assert est.ambiguous_frac == 0.3


def test_estimate_survival_validation():
    with pytest.raises(DomainError):
        estimate_survival(1, 0.5, exact_d1(0.3), reps=0)
    for caps in ({"max_particles": 0}, {"max_generations": 0},
                 {"max_particles": -5, "max_generations": -1}):
        with pytest.raises(DomainError, match="caps must be >= 1"):
            estimate_survival(1, 0.5, exact_d1(0.3), reps=10, **caps)
        with pytest.raises(DomainError, match="caps must be >= 1"):
            _tree(1, 0.5, exact_d1(0.3), seed=0, **caps)


def test_ci_quantile_is_the_normal_quantile_bit_for_bit():
    # scipy.stats is the independent oracle; the package does not import it
    assert _CI_Z == float(stats.norm.ppf(0.975))
