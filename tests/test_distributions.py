"""Cluster-size distribution layer: closed forms, truncation, estimators."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percograph import exact_d1, from_empirical, from_table, point_mass, theory_point
from percograph.distributions import from_csv, to_csv
from percograph.errors import DivergenceError, DomainError
from percograph.lattice import Census, build_geometry, cluster_census, sample_percolation

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


def test_expect_exponential_matches_closed_form():
    # E e^{s|C|} = (1-p)^2 e^s / (1 - p e^s)^2 for e^s < 1/p
    p = 0.4
    d = exact_d1(p)
    for s in (-1.0, 0.0, 0.3, 0.8):
        res = d.expect(lambda k: np.exp(s * k), growth_rate=max(s, 0.0))
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
    # the census law is the per-site estimator: the share of sites x with |C(x)| = k
    geom = build_geometry(1, 500, "torus")
    cfg = sample_percolation(geom, 0.5, 71)
    by_census = from_empirical([cluster_census(cfg)])
    per_site = cfg.partition.sizes[cfg.partition.index]
    ks, site_counts = np.unique(per_site, return_counts=True)
    assert np.array_equal(by_census.ks, ks)
    assert np.array_equal(by_census.counts, site_counts)
    assert np.allclose(by_census.probs, site_counts / geom.n_vertices, atol=1e-15)
    assert by_census.n_sites == geom.n_vertices
    assert float(by_census.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_from_empirical_pooling():
    # two configs pool site counts, so n_sites doubles
    geom = build_geometry(1, 300, "torus")
    censuses = [cluster_census(sample_percolation(geom, 0.4, s)) for s in (1, 2)]
    pooled = from_empirical(censuses)
    assert pooled.n_sites == 2 * geom.n_vertices
    assert pooled.n_configs == 2
    with pytest.raises(DomainError):
        from_empirical([])


def _census(table):
    ks = np.array(sorted(table), dtype=np.int64)
    return Census(ks=ks, counts=np.array([table[k] for k in ks], dtype=np.int64))


_census_tables = st.dictionaries(st.integers(1, 12), st.integers(1, 50),
                                 min_size=1, max_size=6)


@given(st.lists(_census_tables, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_from_empirical_pools_site_counts(tables):
    # overlapping supports: size k gathers sum over censuses of k * N_k sites
    emp = from_empirical([_census(t) for t in tables])
    sites = {}
    for table in tables:
        for k, n_k in table.items():
            sites[k] = sites.get(k, 0) + k * n_k
    assert emp.ks.tolist() == sorted(sites)
    assert emp.counts.dtype == np.int64
    assert emp.counts.tolist() == [sites[k] for k in sorted(sites)]
    assert emp.n_configs == len(tables)


@given(st.integers(1, 10 ** 9))
@settings(max_examples=40, deadline=None)
def test_seeded_empirical_probs_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    censuses = [_census(dict(zip(rng.integers(1, 30, size=8).tolist(),
                                 rng.integers(1, 40, size=8).tolist())))
                for _ in range(3)]
    emp = from_empirical(censuses)
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


EMPIRICAL_CSV = (
    "# percograph-csv/1 cluster-dist\n# kind=empirical tail_mass=0.0\n"
    "# n_sites=6 n_configs=1\nk,prob,count\n{rows}\n")


@pytest.mark.parametrize("rows", [
    "1,0.5,3\n2,0.5,-1\n7,0.5,4",          # negative count
    "1,0,0\n2,0,0",                         # zero total
    "1,0.5,3\n2,0.5,1.5",                   # non-integer count
    "2,0.5,3\n1,0.5,3",                     # support not increasing
    "0,0.5,3\n1,0.5,3",                     # size below 1
], ids=["negative", "zero_total", "non_integer", "not_increasing", "below_one"])
def test_csv_empirical_counts_are_validated(rows):
    with pytest.raises(DomainError):
        from_csv(io.StringIO(EMPIRICAL_CSV.format(rows=rows)))


LAW_HEAD = "# percograph-csv/1 cluster-dist\n"


@pytest.mark.parametrize("text", [
    "# kind=table tail_mass=0.0\nk,prob\nabc,0.5\n2,0.5",       # k not an integer
    "# kind=table tail_mass=0.0\nk,prob\n1.5,0.5\n2,0.5",       # k not an integer
    "# kind=table tail_mass=0.0\nk,prob\n1,abc\n2,0.5",         # prob not numeric
    "# kind=table tail_mass=0.0\nk,prob\n1,nan\n2,1.0",         # prob nan
    "# kind=table tail_mass=0.0\nk,prob\n1,0.5\n2",             # short row
    "# kind=table tail_mass=abc\nk,prob\n1,0.5\n2,0.5",         # tail not numeric
    "# kind=exact_d1\nk,prob",                                     # no p
    "# kind=exact_d1 p=abc\nk,prob",                               # p not numeric
    "# kind=empirical tail_mass=0.0\n# n_sites=6\nk,prob,count\n1,0.5,3\n2,0.5,3",
    *(f"# kind=empirical tail_mass={tail}\n# n_sites=6 n_configs=1\n"
      "k,prob,count\n1,0.5,3\n2,0.5,3" for tail in ("0.5", "-3", "nan", "2.0")),
    *(f"# kind=empirical tail_mass=0.0\n# n_sites=6 n_configs={n}\n"
      "k,prob,count\n1,0.5,3\n2,0.5,3" for n in ("-4", "0")),
], ids=["k_word", "k_fraction", "prob_word", "prob_nan", "short_row", "tail_word",
        "exact_no_p", "exact_p_word", "empirical_no_n_configs",
        "empirical_tail_half", "empirical_tail_negative", "empirical_tail_nan",
        "empirical_tail_two", "empirical_n_configs_negative", "empirical_n_configs_zero"])
def test_csv_malformed_law_file_is_a_domain_error(text):
    with pytest.raises(DomainError):
        from_csv(io.StringIO(LAW_HEAD + text + "\n"))


def test_csv_round_trip_empirical():
    emp = from_empirical([_census({1: 3, 2: 1, 7: 1})])  # site counts 3, 2, 7
    buf = io.StringIO()
    to_csv(emp, buf)
    back = from_csv(io.StringIO(buf.getvalue()))
    assert back.tag() == emp.tag()
    assert np.array_equal(back.ks, emp.ks)
    assert np.array_equal(back.probs, emp.probs)
    assert back.n_sites == emp.n_sites
    for c in (0.2, 1.0):  # on both sides of c_cr = 12/56 = 3/14
        assert theory_point(back, c) == theory_point(emp, c)
    # table laws travel through the same format
    table = from_table([1, 3, 9], [0.5, 0.25, 0.25])
    buf = io.StringIO()
    to_csv(table, buf)
    back = from_csv(io.StringIO(buf.getvalue()))
    assert back.tag() == table.tag()
    assert np.array_equal(back.ks, table.ks)
    assert np.allclose(back.probs, table.probs, atol=1e-15)
    assert back.mean_size == pytest.approx(table.mean_size, rel=1e-12)
