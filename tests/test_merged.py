"""Long-range overlay, the typed quotient, and their correspondence."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import percograph.merged
from percograph import (
    build_geometry,
    build_macro_graph,
    overlay_long_range,
    sample_percolation,
    verify_correspondence,
)
from percograph.components import component_labels
from percograph.errors import DomainError
from percograph.merged import _sample_distinct_pairs, _unrank_pairs
from percograph.rng import generator


def _base(d=1, N=100, p=0.4, seed=7, boundary="torus"):
    return sample_percolation(build_geometry(d, N, boundary), p, seed)


def test_zero_density_is_identity():
    base = _base()
    merged = overlay_long_range(base, 0.0, 3)
    assert merged.n_long_edges == 0
    assert np.array_equal(merged.labels, base.labels)
    assert merged.n_components == base.n_clusters


def test_component_identities():
    base = _base(p=0.5, seed=1)
    merged = overlay_long_range(base, 1.2, 9)
    n = base.geometry.n_vertices
    assert int(merged.component_sizes.sum()) == n
    assert merged.largest >= int(base.cluster_sizes.max())
    assert merged.n_components <= base.n_clusters
    desc = np.sort(merged.component_sizes)[::-1]
    assert desc[0] == merged.largest
    assert np.all(np.diff(desc) <= 0)
    if merged.n_components >= 2:
        assert merged.second_largest == int(desc[1])


def test_long_edges_are_distinct_ordered_pairs():
    base = _base(N=300, p=0.3, seed=4)
    merged = overlay_long_range(base, 2.0, 11)
    n = base.geometry.n_vertices
    assert merged.n_long_edges > 0
    assert np.all(merged.long_u < merged.long_v)
    assert np.all((merged.long_u >= 0) & (merged.long_v < n))
    keys = merged.long_u * n + merged.long_v
    assert np.unique(keys).size == keys.size


def test_long_edge_count_mean():
    base = _base(N=200, p=0.3, seed=0)
    n = base.geometry.n_vertices
    c = 1.5
    counts = np.array([overlay_long_range(base, c, s).n_long_edges
                       for s in range(60)], dtype=float)
    mean = (n - 1) * c / 2.0
    se = np.sqrt(mean * (1 - c / n) / counts.size)
    assert abs(counts.mean() - mean) < 4 * se


def test_long_edge_count_distribution():
    # goodness of fit of the edge count against Binomial(n(n-1)/2, c/n)
    base = _base(N=50, p=0.2, seed=2)
    n = base.geometry.n_vertices
    c = 1.0
    n_pairs = n * (n - 1) // 2
    counts = np.array([overlay_long_range(base, c, s).n_long_edges
                       for s in range(200)])
    law = stats.binom(n_pairs, c / n)
    edges = np.append(law.ppf([0.0, 0.2, 0.4, 0.6, 0.8]).astype(int), n_pairs + 1)
    observed = np.histogram(counts, bins=edges)[0]
    expected = counts.size * np.array(
        [law.cdf(edges[i + 1] - 1) - law.cdf(edges[i] - 1)
         for i in range(len(edges) - 1)])
    assert np.all(expected > 5)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    pval = float(stats.chi2.sf(chi2, df=len(observed) - 1))
    assert pval > 0.01


def test_pair_marginal_uniform():
    # each specific pair appears with probability ~ c/n
    rng_checks = 400
    base = _base(N=10, p=0.0, seed=5)
    n = base.geometry.n_vertices
    c = 2.0
    hits = 0
    for s in range(rng_checks):
        merged = overlay_long_range(base, c, s)
        keys = set((merged.long_u * n + merged.long_v).tolist())
        hits += (3 * n + 7) in keys  # an arbitrary fixed pair (3, 7)
    q = c / n
    se = np.sqrt(q * (1 - q) / rng_checks)
    assert abs(hits / rng_checks - q) < 4 * se


def test_sampler_near_the_full_pair_count():
    base = _base(N=10, p=0.1, seed=6)
    n = base.geometry.n_vertices
    merged = overlay_long_range(base, 0.8 * n, 13)  # m close to the pair count
    keys = merged.long_u * n + merged.long_v
    assert np.unique(keys).size == keys.size
    assert np.all(merged.long_u < merged.long_v)


def test_sampler_rejects_excess():
    rng = generator(0, 1)
    with pytest.raises(DomainError):
        _sample_distinct_pairs(rng, 4, 7)  # only 6 pairs exist
    u, v = _sample_distinct_pairs(rng, 4, 6)
    assert sorted((a, b) for a, b in zip(u.tolist(), v.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


# (d, N, p, c, base seed, overlay seed) -> (n_long_edges, digest, n_edges_unique).
# numpy's choice without replacement samples few ranks out of many by
# Floyd's algorithm and many by a partial shuffle: d1_sparse takes the
# first path, d1_multipass (c/n ~ 0.23) the second.
GOLDEN_OVERLAYS = [
    ((1, 50_000, 0.3, 1.0, 3, 5), (50020, "c976d6cf6b3d1a70", 50019)),
    ((1, 1100, 0.2, 500.0, 4, 9), (550718, "dd11000c971401ef", 486568)),
    ((2, 30, 0.3, 40.0, 2, 7), (73921, "f127ca3e27ca088f", 62766)),
]


@pytest.mark.parametrize("case,expected", GOLDEN_OVERLAYS,
                         ids=["d1_sparse", "d1_multipass", "d2_repeats"])
def test_overlay_draws_are_pinned(case, expected):
    d, N, p, c, base_seed, overlay_seed = case
    base = sample_percolation(build_geometry(d, N, "torus"), p, base_seed)
    merged = overlay_long_range(base, c, overlay_seed)
    macro = build_macro_graph(merged)
    digest = hashlib.sha256(merged.long_u.astype("<i8").tobytes()
                            + merged.long_v.astype("<i8").tobytes()).hexdigest()[:16]
    assert (merged.n_long_edges, digest, macro.n_edges_unique) == expected


def _triangular(v):
    return v * (v - 1) // 2


_N_PAIRS_MAX = _triangular(2 ** 26)  # every pair rank of the largest box
_edge_ranks = st.integers(2, 2 ** 26).flatmap(
    lambda v: st.sampled_from([_triangular(v) - 1, _triangular(v),
                               _triangular(v) + 1]).filter(lambda k: k < _N_PAIRS_MAX))


@given(ks=st.lists(st.one_of(st.integers(0, _N_PAIRS_MAX - 1), _edge_ranks),
                   min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_unrank_pairs_matches_integer_root(ks):
    ks = ks + [0, _N_PAIRS_MAX - 1]
    u, v = _unrank_pairs(np.array(ks, dtype=np.int64))
    want_v = [(1 + math.isqrt(1 + 8 * k)) // 2 for k in ks]
    assert v.tolist() == want_v
    assert u.tolist() == [k - _triangular(w) for k, w in zip(ks, want_v)]
    assert np.all((0 <= u) & (u < v))


class _Unshuffled:
    """A generator whose ``choice`` returns its sample unshuffled."""

    def __init__(self, rng):
        self.rng = rng

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, shuffle=False, **kwargs)


def _first_pair_pvalue(wrap, m, draws=2000):
    # chi-square p-value of the first pair drawn, over the 10 pairs at n = 5
    firsts = []
    for s in range(draws):
        u, v = _sample_distinct_pairs(wrap(generator(31, m, s)), 5, m)
        firsts.append(_triangular(v[0]) + u[0])
    return stats.chisquare(np.bincount(firsts, minlength=10)).pvalue


@pytest.mark.parametrize("m", [3, 10])
def test_pairs_come_in_uniform_order(m):
    # every prefix is a uniform subset: the first pair is uniform over all
    assert _first_pair_pvalue(lambda rng: rng, m) > 0.001
    assert _first_pair_pvalue(_Unshuffled, m) < 1e-6


def test_macro_unique_edges_count_distinct_pairs():
    base = _base(N=40, p=0.3, seed=12)
    merged = overlay_long_range(base, 6.0, 2)
    macro = build_macro_graph(merged)
    mu = base.partition.index[merged.long_u]
    mv = base.partition.index[merged.long_v]
    pairs = {(min(a, b), max(a, b)) for a, b in zip(mu.tolist(), mv.tolist()) if a != b}
    assert macro.n_edges_multi > len(pairs) > 0
    assert macro.n_edges_unique == len(pairs)


def test_macro_pair_keys_do_not_wrap():
    # p = 0: every site is its own cluster, K_N = 200,001.  Keyed in int32,
    # 21475 * 200001 + 30000 wraps onto 0 * 200001 + 84179.
    merged = overlay_long_range(_base(N=100_000, p=0.0), 0.0, 0)
    merged = dataclasses.replace(
        merged, long_u=np.array([0, 21475], dtype=np.int32),
        long_v=np.array([84179, 30000], dtype=np.int32))
    assert build_macro_graph(merged).n_edges_unique == 2


def test_ids_are_int32_and_counts_int64():
    geom = build_geometry(1, 50_000, "torus")
    base = sample_percolation(geom, 0.3, 3)
    merged = overlay_long_range(base, 1.0, 5)
    ids = [base.partition.index, base.partition.first,
           merged.long_u, merged.long_v, merged.macro.index, merged.macro.first]
    sizes = [base.partition.sizes, merged.macro.sizes]
    assert all(a.dtype == np.int32 for a in ids)
    assert all(a.dtype == np.int64 for a in sizes)
    assert base.open_bonds.dtype == np.bool_
    ends = [*geom.bond_ends(np.arange(geom.n_edges)), *base.open_ends]
    assert all(a.dtype == np.int32 for a in ends)
    # the geometry numbers its bonds and holds no array
    assert [f.name for f in dataclasses.fields(geom)] == ["d", "N", "boundary"]
    held = sum(a.nbytes for a in ids + sizes + [base.open_bonds])
    assert held <= 23.1 * geom.n_vertices


def test_density_bounds():
    base = _base(N=5)
    with pytest.raises(DomainError):
        overlay_long_range(base, -0.5, 0)
    with pytest.raises(DomainError):
        overlay_long_range(base, base.geometry.n_vertices + 1.0, 0)


def test_overlay_determinism():
    base = _base(N=80, p=0.35, seed=21)
    a = overlay_long_range(base, 1.0, 5)
    b = overlay_long_range(base, 1.0, 5)
    c = overlay_long_range(base, 1.0, 6)
    assert np.array_equal(a.long_u, b.long_u)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.long_u, c.long_u)


def test_overlay_keyed_by_base_seed():
    geom = build_geometry(1, 80, "torus")
    b1 = sample_percolation(geom, 0.35, 1)
    b2 = sample_percolation(geom, 0.35, 2)
    m1 = overlay_long_range(b1, 1.0, 5)
    m2 = overlay_long_range(b2, 1.0, 5)
    assert not np.array_equal(m1.long_u, m2.long_u)


@pytest.mark.parametrize("d,N,p,c", [(1, 150, 0.4, 0.8), (2, 8, 0.45, 1.2),
                                     (1, 60, 0.0, 2.0), (2, 6, 0.9, 0.3)])
def test_quotient_correspondence(d, N, p, c):
    base = _base(d=d, N=N, p=p, seed=d * 10 + N)
    merged = overlay_long_range(base, c, 17)
    macro = build_macro_graph(merged)
    assert macro.n_macro == base.n_clusters
    assert int(macro.types.sum()) == base.geometry.n_vertices
    assert macro.n_intra + macro.n_edges_multi == merged.n_long_edges
    assert macro.n_edges_unique <= macro.n_edges_multi
    ok, report = verify_correspondence(merged, macro)
    assert ok, report
    # expanded sizes cover every site exactly once
    assert int(macro.expanded_sizes.sum()) == base.geometry.n_vertices


def test_correspondence_catches_tampering():
    base = _base(N=60, p=0.4, seed=3)
    merged = overlay_long_range(base, 1.0, 8)
    macro = build_macro_graph(merged)
    bad_sizes = macro.expanded_sizes.copy()
    bad_sizes[0] += 1
    broken = dataclasses.replace(macro, expanded_sizes=bad_sizes)
    ok, report = verify_correspondence(merged, broken)
    assert not ok
    assert "component sizes differ" in report

    fewer = dataclasses.replace(macro, component_ids=macro.component_ids[:-1])
    ok, report = verify_correspondence(merged, fewer)
    assert not ok
    assert "component counts differ" in report

    # same count and size multiset, components out of canonical order
    reordered = dataclasses.replace(macro, component_ids=macro.component_ids[::-1])
    ok, report = verify_correspondence(merged, reordered)
    assert not ok
    assert "component smallest sites differ" in report


@given(d=st.sampled_from([1, 2]), boundary=st.sampled_from(["free", "torus"]),
       p=st.floats(0.0, 0.9), density=st.sampled_from(["none", "sparse", "dense"]),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_quotient_labels_equal_direct_union(d, boundary, p, density, seed):
    base = sample_percolation(build_geometry(d, 12 if d == 2 else 60, boundary), p, seed)
    n = base.geometry.n_vertices
    # "dense" draws about 30% of all pairs
    c = {"none": 0.0, "sparse": 0.8, "dense": 0.3 * n}[density]
    merged = overlay_long_range(base, c, seed + 1)
    u, v = base.open_ends
    direct = component_labels(
        n, np.concatenate([u, merged.long_u]), np.concatenate([v, merged.long_v]))
    assert np.array_equal(merged.labels, direct.labels)
    assert np.array_equal(merged.component_sizes, direct.sizes)
    assert merged.n_components == direct.sizes.size


def test_components_are_labelled_once_on_the_quotient(monkeypatch):
    base = _base(N=200, p=0.4, seed=5)
    calls = []
    real = percograph.merged.component_labels

    def counting(n_vertices, u, v):
        calls.append(n_vertices)
        return real(n_vertices, u, v)

    monkeypatch.setattr(percograph.merged, "component_labels", counting)
    merged = overlay_long_range(base, 1.5, 3)
    assert calls == [base.n_clusters]
    build_macro_graph(merged)
    assert calls == [base.n_clusters]


def test_macro_type_histogram_matches_base_census():
    base = _base(N=120, p=0.5, seed=14)
    merged = overlay_long_range(base, 0.5, 4)
    macro = build_macro_graph(merged)
    assert np.array_equal(np.sort(macro.types), np.sort(base.cluster_sizes))
