"""Cluster-size distribution layer: closed forms, truncation, estimators."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percograph import exact_d1, from_empirical, from_table, point_mass
from percograph.distributions import from_csv, to_csv
from percograph.errors import DivergenceError, DomainError
from percograph.lattice import build_geometry, cluster_census, sample_percolation

P_GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


def _direct_sum(p, f, kmax=200000):
    ks = np.arange(1, kmax + 1)
    pmf = (1 - p) ** 2 * ks * p ** (ks - 1.0)
    return float(np.sum(pmf * f(ks)))


@pytest.mark.parametrize("p", P_GRID)
def test_moments_match_direct_sums(p):
    d = exact_d1(p)
    assert d.mean_size == pytest.approx(_direct_sum(p, lambda k: k), abs=1e-9)
    assert d.mean_inverse_size == pytest.approx(_direct_sum(p, lambda k: 1.0 / k), abs=1e-12)
    assert d.second_moment == pytest.approx(_direct_sum(p, lambda k: k.astype(float) ** 2),
                                            rel=1e-9)


@pytest.mark.parametrize("p", P_GRID)
def test_moment_closed_forms(p):
    d = exact_d1(p)
    assert d.mean_size == pytest.approx((1 + p) / (1 - p), abs=1e-12)
    assert d.mean_inverse_size == pytest.approx(1 - p, abs=1e-15)
    assert d.second_moment == pytest.approx((1 + 4 * p + p * p) / (1 - p) ** 2, rel=1e-12)


def test_pmf_normalizes():
    for p in P_GRID:
        ks, pmf, tail = exact_d1(p).materialize(0.0, 1e-12)
        assert pmf.sum() + tail == pytest.approx(1.0, abs=1e-12)
        assert tail < 1e-10


def test_point_mass_limit():
    d = exact_d1(0.0)
    assert d.pmf(1) == 1.0
    assert d.pmf(5) == 0.0
    assert d.mean_size == 1.0
    assert d.mean_inverse_size == 1.0
    assert d.second_moment == 1.0
    pm = point_mass(1)
    assert pm.mean_size == 1.0
    assert float(pm.pmf(1)) == 1.0


def test_survival_closed_form():
    p = 0.6
    d = exact_d1(p)
    ks = np.arange(1, 40)
    direct = np.array([_direct_sum(p, lambda j, k=k: (j >= k).astype(float))
                       for k in ks])
    assert np.allclose(d.survival(ks), direct, atol=1e-10)
    assert d.survival(np.array([1]))[0] == pytest.approx(1.0, abs=1e-15)


def test_expect_exponential_matches_closed_form():
    # E e^{s|C|} = (1-p)^2 e^s / (1 - p e^s)^2 for e^s < 1/p
    p = 0.4
    d = exact_d1(p)
    for s in (-1.0, 0.0, 0.3, 0.8):
        res = d.expect(lambda k: np.exp(s * k), growth_rate=max(s, 0.0), tol=1e-12)
        q = p * math.exp(s)
        closed = (1 - p) ** 2 * math.exp(s) / (1 - q) ** 2
        assert res.value == pytest.approx(closed, rel=1e-10)
        assert abs(res.value - closed) <= max(res.tail_bound, 1e-10)


def test_expect_divergence_at_tail_rate():
    d = exact_d1(0.5)
    zeta = -math.log(0.5)
    with pytest.raises(DivergenceError):
        d.expect(lambda k: np.exp(zeta * k), growth_rate=zeta)
    with pytest.raises(DivergenceError):
        d.expect(lambda k: np.exp(2 * zeta * k), growth_rate=2 * zeta)


def test_expect_understated_growth_is_caught():
    # integrand grows at the tail rate but caller declares rate 0
    d = exact_d1(0.5)
    zeta = -math.log(0.5)
    with pytest.raises(DivergenceError):
        d.expect(lambda k: np.exp(1.2 * zeta * k), growth_rate=0.0)


def test_zeta_exact():
    assert exact_d1(0.3).estimate_zeta() == pytest.approx(-math.log(0.3), abs=1e-15)
    with pytest.raises(DomainError):
        exact_d1(0.0).estimate_zeta()


def test_zeta_fit_from_samples():
    geom = build_geometry(1, 20000, "torus")
    censuses = [cluster_census(sample_percolation(geom, 0.6, seed))
                for seed in range(30)]
    emp = from_empirical(censuses)
    zeta_hat = emp.estimate_zeta()
    # window fit carries a small polynomial bias; scale must still be right
    assert abs(zeta_hat - (-math.log(0.6))) < 0.15


def test_zeta_insufficient_tail():
    with pytest.raises(DomainError):
        point_mass(1).estimate_zeta()
    with pytest.raises(DomainError):
        from_table([1, 2, 3], [0.5, 0.3, 0.2]).estimate_zeta()


def test_from_table_validation():
    with pytest.raises(DomainError):
        from_table([1, 2], [0.6, 0.6])
    with pytest.raises(DomainError):
        from_table([2, 1], [0.5, 0.5])
    with pytest.raises(DomainError):
        from_table([0, 1], [0.5, 0.5])
    with pytest.raises(DomainError):
        from_table([1, 2], [0.7, -0.3])


def test_from_empirical_census_equals_per_site():
    geom = build_geometry(1, 500, "torus")
    cfg = sample_percolation(geom, 0.5, 71)
    by_census = from_empirical(cluster_census(cfg))
    by_sites = from_empirical(cfg.sizes_per_site())
    by_config = from_empirical(cfg)
    assert np.array_equal(by_census.ks, by_sites.ks)
    assert np.allclose(by_census.probs, by_sites.probs, atol=1e-15)
    assert np.allclose(by_census.probs, by_config.probs, atol=1e-15)
    assert by_census.n_sites == geom.n_vertices
    assert float(by_census.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_from_empirical_pooling():
    # two configs pool site counts, so n_sites doubles
    geom = build_geometry(1, 300, "torus")
    cfgs = [sample_percolation(geom, 0.4, s) for s in (1, 2)]
    pooled = from_empirical(cfgs)
    assert pooled.n_sites == 2 * geom.n_vertices
    assert pooled.n_configs == 2


@given(p=st.floats(0.02, 0.93), k=st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_survival_telescopes_to_pmf(p, k):
    d = exact_d1(p)
    step = float(d.survival(k)) - float(d.survival(k + 1))
    assert step == pytest.approx(float(d.pmf(k)), abs=1e-12)


@given(st.integers(1, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_seeded_empirical_probs_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 30, size=200)
    emp = from_empirical(sizes)
    assert float(emp.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_csv_round_trip_exact_is_tagged_not_tabulated():
    buf = io.StringIO()
    to_csv(exact_d1(0.25), buf)
    text = buf.getvalue()
    assert "kind=exact_d1" in text
    assert "p=0.25" in text
    assert len([line for line in text.splitlines()
                if line and not line.startswith("#")]) == 1  # header only
    back = from_csv(io.StringIO(text))
    assert back.tag() == exact_d1(0.25).tag()
    assert back.p == 0.25


def test_csv_round_trip_empirical():
    emp = from_empirical(np.array([1, 1, 1, 2, 2, 7]))
    buf = io.StringIO()
    to_csv(emp, buf)
    back = from_csv(io.StringIO(buf.getvalue()))
    assert back.tag() == emp.tag()
    assert np.array_equal(back.ks, emp.ks)
    assert np.allclose(back.probs, emp.probs, atol=1e-15)
    assert back.n_sites == emp.n_sites
    # table laws travel through the same format
    table = from_table([1, 3, 9], [0.5, 0.25, 0.25])
    buf = io.StringIO()
    to_csv(table, buf)
    back = from_csv(io.StringIO(buf.getvalue()))
    assert back.tag() == table.tag()
    assert np.array_equal(back.ks, table.ks)
    assert np.allclose(back.probs, table.probs, atol=1e-15)
    assert back.mean_size == pytest.approx(table.mean_size, rel=1e-12)
