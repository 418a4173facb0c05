"""Box geometry, bond sampling, cluster partitions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

import percograph.lattice
from percograph import (
    build_geometry,
    cluster_census,
    exact_d1,
    origin_cluster_size,
    sample_percolation,
)
from percograph.components import component_labels
from percograph.errors import DomainError
from percograph.lattice import _label_bonds
from percograph.rng import edge_uniforms


def _coords(geom, idx):
    """Lattice coordinates of flat indices, axis 0 fastest: the oracle
    for ``origin_index`` and ``bond_ends``."""
    digits = np.unravel_index(idx, (geom.side,) * geom.d, order="F")
    return np.stack(digits, axis=-1) - geom.N


def _enumerated_ends(geom):
    """Every bond's endpoints by walking the axes in turn: an independent
    reference for ``bond_ends``."""
    side = geom.side
    idx = np.arange(geom.n_vertices, dtype=np.int32)
    us, vs = [], []
    for axis in range(geom.d):
        stride = side**axis
        interior = (idx // stride) % side < side - 1
        if geom.boundary == "free":
            u = idx[interior]
            v = u + stride
        else:
            u = idx
            v = np.where(interior, idx + stride, idx - (side - 1) * stride)
        us.append(u)
        vs.append(v)
    return np.concatenate(us), np.concatenate(vs)


@pytest.mark.parametrize("d,N", [(1, 1), (1, 7), (2, 3), (3, 2)])
def test_edge_counts(d, N):
    side = 2 * N + 1
    free = build_geometry(d, N, "free")
    torus = build_geometry(d, N, "torus")
    assert free.n_vertices == torus.n_vertices == side**d
    assert free.n_edges == d * 2 * N * side ** (d - 1)
    assert torus.n_edges == d * side**d


@pytest.mark.parametrize("boundary", ["free", "torus"])
@pytest.mark.parametrize("d,N", [(d, N) for d in (1, 2, 3) for N in (1, 2, 3)])
def test_bond_ends_match_enumeration(d, N, boundary):
    geom = build_geometry(d, N, boundary)
    want_u, want_v = _enumerated_ends(geom)
    u, v = geom.bond_ends(np.arange(geom.n_edges))
    assert u.dtype == v.dtype == np.int32
    assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
    # any subset of bond numbers, in any order, maps bond by bond
    bonds = np.random.default_rng(d * 10 + N).permutation(geom.n_edges)[:geom.n_edges // 3]
    sub_u, sub_v = geom.bond_ends(bonds)
    assert np.array_equal(sub_u, want_u[bonds]) and np.array_equal(sub_v, want_v[bonds])
    # the int32 narrowing must not wrap 2**32 onto bond 0
    for bad in (-1, geom.n_edges, 2**32):
        with pytest.raises(ValueError):
            geom.bond_ends([0, bad])


def test_edges_are_valid_and_distinct():
    for boundary in ("free", "torus"):
        geom = build_geometry(2, 2, boundary)
        u, v = geom.bond_ends(np.arange(geom.n_edges))
        assert np.all(u >= 0) and np.all(u < geom.n_vertices)
        assert np.all(v >= 0) and np.all(v < geom.n_vertices)
        assert np.all(u != v)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = lo * geom.n_vertices + hi
        assert np.unique(keys).size == keys.size


def test_torus_edges_join_lattice_neighbours():
    geom = build_geometry(2, 2, "torus")
    side = geom.side
    u, v = geom.bond_ends(np.arange(geom.n_edges))
    diff = np.abs(_coords(geom, u) - _coords(geom, v))
    # each bond moves by 1 along exactly one axis, modulo wrap-around
    step = np.minimum(diff, side - diff)
    assert np.all(step.sum(axis=1) == 1)


@pytest.mark.parametrize("d,N", [(1, 3), (2, 2), (3, 2)])
def test_free_edges_join_lattice_neighbours(d, N):
    geom = build_geometry(d, N, "free")
    u, v = geom.bond_ends(np.arange(geom.n_edges))
    diff = _coords(geom, v) - _coords(geom, u)
    # each bond steps up by 1 along exactly one axis, its own, and never wraps
    axis = np.arange(geom.n_edges) // geom.n_along
    assert np.array_equal(diff, np.eye(d, dtype=diff.dtype)[axis])


def test_geometry_validation():
    with pytest.raises(DomainError):
        build_geometry(0, 3)
    with pytest.raises(DomainError):
        build_geometry(2, 0)
    with pytest.raises(DomainError):
        build_geometry(1, 1, "reflecting")
    with pytest.raises(DomainError):
        build_geometry(3, 210)  # 421^3 sites exceed the addressable limit


def test_origin_index_is_box_center():
    for d, N, boundary in itertools.product((1, 2, 3), (1, 2, 5), ("free", "torus")):
        geom = build_geometry(d, N, boundary)
        assert np.all(_coords(geom, geom.origin_index) == 0), (d, N, boundary)


def test_p_extremes():
    geom = build_geometry(2, 4, "torus")
    empty = sample_percolation(geom, 0.0, 5)
    assert np.count_nonzero(empty.open_bonds) == 0
    assert empty.n_clusters == geom.n_vertices
    assert np.array_equal(empty.labels, np.arange(geom.n_vertices))
    full = sample_percolation(geom, 1.0, 5)
    assert np.count_nonzero(full.open_bonds) == geom.n_edges
    assert full.n_clusters == 1
    assert full.cluster_sizes[0] == geom.n_vertices


def test_invalid_p():
    geom = build_geometry(1, 3)
    with pytest.raises(DomainError):
        sample_percolation(geom, -0.1, 0)
    with pytest.raises(DomainError):
        sample_percolation(geom, 1.5, 0)


def test_labels_are_canonical_minima():
    for d, N, p, seed in [(1, 50, 0.4, 3), (2, 8, 0.5, 4), (3, 3, 0.3, 5)]:
        geom = build_geometry(d, N, "torus")
        cfg = sample_percolation(geom, p, seed)
        v = np.arange(geom.n_vertices)
        assert np.all(cfg.labels <= v)
        assert np.array_equal(cfg.labels[cfg.labels], cfg.labels)
        # every open bond joins same-label endpoints
        u, v = cfg.open_ends
        assert np.array_equal(cfg.labels[u], cfg.labels[v])


def _min_labels(n, u, v):
    """Smallest vertex per component by propagating minima along edges."""
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[u], labels[v])
        nxt = labels.copy()
        np.minimum.at(nxt, u, low)
        np.minimum.at(nxt, v, low)
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


@given(n=st.integers(1, 40), data=st.data())
@settings(max_examples=200, deadline=None)
def test_partition_matches_canonical_minima(n, data):
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    part = component_labels(n, u, v)
    expected = _min_labels(n, u, v)
    assert np.array_equal(part.first[part.index], expected)
    ids, sizes = np.unique(expected, return_counts=True)
    assert np.array_equal(part.first, ids)
    assert np.array_equal(part.sizes, sizes)


@given(d=st.integers(1, 3), data=st.data(),
       boundary=st.sampled_from(["free", "torus"]),
       p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_label_bonds_equals_component_labels(d, data, boundary, p, seed):
    N = data.draw(st.integers(1, {1: 40, 2: 8, 3: 3}[d]))
    geom = build_geometry(d, N, boundary)
    keep = edge_uniforms(seed, geom.n_edges) < p
    got = _label_bonds(geom, keep)
    want = component_labels(geom.n_vertices, *geom.bond_ends(np.flatnonzero(keep)))
    for name in ("index", "sizes", "first"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


def test_label_bonds_calls_the_graph_solver_only_across_rows(monkeypatch):
    calls = []

    def spy(n_vertices, u, v):
        calls.append((n_vertices, len(u)))
        return component_labels(n_vertices, u, v)

    monkeypatch.setattr(percograph.lattice, "component_labels", spy)
    line = sample_percolation(build_geometry(1, 500, "torus"), 0.6, 6)
    # the open wrap bond joins the last site to the first without a call
    assert line.open_bonds[-1] and line.labels[-1] == 0
    assert calls == []
    geom = build_geometry(2, 30, "torus")
    cfg = sample_percolation(geom, 0.5, 3)
    assert len(calls) == 1
    n_runs, n_bonds = calls[0]
    n_along = geom.n_vertices  # torus: one axis-0 bond per site, listed first
    # the axis-0 bond of a row's last site wraps to its first
    n_wraps = int(np.count_nonzero(cfg.open_bonds[geom.side - 1:n_along:geom.side]))
    assert n_runs < geom.n_vertices and n_wraps > 0
    assert n_bonds == int(np.count_nonzero(cfg.open_bonds[n_along:])) + n_wraps


def _scipy_partition(n, u, v):
    """The oracle: scipy's connected components, renumbered here by each
    component's smallest vertex."""
    adj = sparse.coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n))
    _, raw = connected_components(adj, directed=False)
    smallest = np.full(raw.max() + 1, n, dtype=np.int64)
    np.minimum.at(smallest, raw, np.arange(n))
    order = np.argsort(smallest)
    rename = np.empty_like(order)
    rename[order] = np.arange(order.size)
    return (rename[raw].astype(np.int32), np.bincount(raw, minlength=order.size)[order],
            smallest[order].astype(np.int32))


def _oracle_graphs():
    rng = np.random.default_rng(2026)
    for n in (10, 1_000, 100_000):
        for density in (0.1, 0.5, 1.0, 2.0):
            m = int(density * n)
            yield pytest.param(n, rng.integers(0, n, m), rng.integers(0, n, m),
                               id=f"random n={n} c={density}")
    n = 100_000
    perm = rng.permutation(n)
    yield pytest.param(n, perm[:-1], perm[1:], id="shuffled path")
    yield pytest.param(n, np.arange(n - 1), np.arange(1, n), id="in-order path")
    yield pytest.param(n, np.full(n - 1, n - 1), np.arange(n - 1), id="star, largest centre")
    loops = rng.integers(0, 50, 200)
    yield pytest.param(50, np.r_[loops, [3, 3, 7]], np.r_[loops, [9, 9, 3]],
                       id="self-loops and parallel edges")
    yield pytest.param(7, np.array([], dtype=np.int32), np.array([], dtype=np.int32),
                       id="no edges")


@pytest.mark.parametrize("n, u, v", list(_oracle_graphs()))
def test_component_labels_match_the_scipy_oracle(n, u, v):
    got = component_labels(n, u, v)
    index, sizes, first = _scipy_partition(n, u, v)
    for field, want in (("index", index), ("sizes", sizes), ("first", first)):
        value = getattr(got, field)
        assert value.dtype == want.dtype, field
        assert np.array_equal(value, want), field


@pytest.mark.parametrize("bad", [2**32 + 1, -1, 3,
                                 pytest.param(np.int32(-1), id="int32(-1)"),
                                 pytest.param(np.int32(3), id="int32(3)")])
def test_endpoint_out_of_range_raises(bad):
    # the int32 narrowing must not wrap 2**32 + 1 onto vertex 1, and no
    # gather may read an int32 -1 as the last vertex
    with pytest.raises(ValueError):
        component_labels(3, np.array([bad]), [0])
    with pytest.raises(ValueError):
        component_labels(3, [0], np.array([bad]))


def test_partition_identities():
    geom = build_geometry(2, 10, "free")
    cfg = sample_percolation(geom, 0.45, 11)
    assert int(cfg.cluster_sizes.sum()) == geom.n_vertices
    census = cluster_census(cfg)
    assert np.all(np.diff(census.ks) > 0)
    assert int((census.ks * census.counts).sum()) == geom.n_vertices
    assert int(census.counts.sum()) == cfg.n_clusters
    assert int(census.ks[-1]) == int(cfg.cluster_sizes.max())
    assert int(census.counts[0]) == int(np.count_nonzero(cfg.cluster_sizes == census.ks[0]))


def test_per_site_cluster_sizes_consistent():
    geom = build_geometry(1, 100, "torus")
    cfg = sample_percolation(geom, 0.6, 9)
    per_site = cfg.cluster_sizes[cfg.partition.index]
    assert per_site.shape == (geom.n_vertices,)
    # summing 1/|C(x)| over sites counts each cluster exactly once
    assert float(np.sum(1.0 / per_site)) == pytest.approx(cfg.n_clusters, abs=1e-8)
    assert origin_cluster_size(cfg) == int(per_site[geom.origin_index])


def test_monotone_coupling():
    geom = build_geometry(2, 12, "torus")
    for seed in range(5):
        lo = sample_percolation(geom, 0.3, seed)
        hi = sample_percolation(geom, 0.55, seed)
        assert np.count_nonzero(lo.open_bonds) <= np.count_nonzero(hi.open_bonds)
        open_lo = set(zip(*(ends.tolist() for ends in lo.open_ends)))
        open_hi = set(zip(*(ends.tolist() for ends in hi.open_ends)))
        assert open_lo <= open_hi
        # clusters only merge when p grows: labels at hi factor through lo
        assert np.array_equal(hi.labels[lo.labels], hi.labels)


def test_seed_determinism():
    geom = build_geometry(2, 9, "free")
    a = sample_percolation(geom, 0.5, 123)
    b = sample_percolation(geom, 0.5, 123)
    c = sample_percolation(geom, 0.5, 124)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.open_ends, b.open_ends)
    assert not np.array_equal(a.labels, c.labels)


def test_open_edge_count_binomial():
    geom = build_geometry(2, 20, "torus")
    p = 0.37
    counts = np.array([np.count_nonzero(sample_percolation(geom, p, s).open_bonds)
                       for s in range(40)], dtype=float)
    mean = geom.n_edges * p
    se = np.sqrt(geom.n_edges * p * (1 - p) / 40)
    assert abs(counts.mean() - mean) < 4 * se


def test_d1_origin_law_matches_closed_form():
    # torus with the origin far from any wrap effect at this p
    geom = build_geometry(1, 2000, "torus")
    p = 0.4
    sizes = np.array([origin_cluster_size(sample_percolation(geom, p, s))
                      for s in range(400)])
    dist = exact_d1(p)
    for k in (1, 2, 3):
        frac = float(np.mean(sizes == k))
        q = float(dist.pmf(k))
        se = np.sqrt(q * (1 - q) / sizes.size)
        assert abs(frac - q) < 4 * se
    mean_se = np.sqrt(dist.second_moment / sizes.size)
    assert abs(sizes.mean() - dist.mean_size) < 4 * mean_se


def test_d1_free_chain_structure():
    # on a free chain every cluster is an interval of consecutive sites
    geom = build_geometry(1, 30, "free")
    cfg = sample_percolation(geom, 0.5, 2)
    labels = cfg.labels
    for cid, size in zip(cfg.partition.first, cfg.cluster_sizes):
        members = np.flatnonzero(labels == cid)
        assert members.max() - members.min() + 1 == size
