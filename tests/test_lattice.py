"""Box geometry, bond sampling, cluster partitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from percograph import (
    build_geometry,
    cluster_census,
    exact_d1,
    origin_cluster_size,
    sample_percolation,
)
from percograph.components import Partition, component_labels
from percograph.errors import DomainError


@pytest.mark.parametrize("d,N", [(1, 1), (1, 7), (2, 3), (3, 2)])
def test_edge_counts(d, N):
    side = 2 * N + 1
    free = build_geometry(d, N, "free")
    torus = build_geometry(d, N, "torus")
    assert free.n_vertices == torus.n_vertices == side**d
    assert free.n_edges == d * 2 * N * side ** (d - 1)
    assert torus.n_edges == d * side**d


def test_edges_are_valid_and_distinct():
    for boundary in ("free", "torus"):
        geom = build_geometry(2, 2, boundary)
        assert np.all(geom.edges_u >= 0) and np.all(geom.edges_u < geom.n_vertices)
        assert np.all(geom.edges_v >= 0) and np.all(geom.edges_v < geom.n_vertices)
        assert np.all(geom.edges_u != geom.edges_v)
        lo = np.minimum(geom.edges_u, geom.edges_v)
        hi = np.maximum(geom.edges_u, geom.edges_v)
        keys = lo * geom.n_vertices + hi
        assert np.unique(keys).size == keys.size


def test_torus_edges_join_lattice_neighbours():
    geom = build_geometry(2, 2, "torus")
    side = geom.side
    cu = geom.vertex_coord(geom.edges_u)
    cv = geom.vertex_coord(geom.edges_v)
    diff = np.abs(cu - cv)
    # each bond moves by 1 along exactly one axis, modulo wrap-around
    step = np.minimum(diff, side - diff)
    assert np.all(step.sum(axis=1) == 1)


def test_geometry_validation():
    with pytest.raises(DomainError):
        build_geometry(0, 3)
    with pytest.raises(DomainError):
        build_geometry(2, 0)
    with pytest.raises(DomainError):
        build_geometry(1, 1, "reflecting")
    with pytest.raises(DomainError):
        build_geometry(3, 210)  # 421^3 sites exceed the addressable limit


@given(d=st.integers(1, 3), N=st.integers(1, 5), data=st.data())
@settings(max_examples=50, deadline=None)
def test_index_coord_round_trip(d, N, data):
    geom = build_geometry(d, N, "free")
    idx = data.draw(st.integers(0, geom.n_vertices - 1))
    coord = geom.vertex_coord(idx)
    assert np.all(np.abs(coord) <= N)
    assert int(geom.vertex_index(coord)) == idx


def test_origin_index_is_box_center():
    geom = build_geometry(2, 3, "torus")
    assert np.all(geom.vertex_coord(geom.origin_index) == 0)


def test_coord_out_of_box_rejected():
    geom = build_geometry(2, 3, "free")
    with pytest.raises(DomainError):
        geom.vertex_index([4, 0])
    with pytest.raises(DomainError):
        geom.vertex_coord(geom.n_vertices)


def test_p_extremes():
    geom = build_geometry(2, 4, "torus")
    empty = sample_percolation(geom, 0.0, 5)
    assert empty.n_open_edges == 0
    assert empty.n_clusters == geom.n_vertices
    assert np.array_equal(empty.labels, np.arange(geom.n_vertices))
    full = sample_percolation(geom, 1.0, 5)
    assert full.n_open_edges == geom.n_edges
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
        assert np.array_equal(cfg.labels[cfg.open_u], cfg.labels[cfg.open_v])


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


def test_partition_guard_rejects_out_of_order_ids():
    for index in ([1, 0], [0, 2, 1], [0, 1, 3, 2]):
        with pytest.raises(RuntimeError, match="smallest vertex"):
            Partition.from_index(index)
    assert np.array_equal(Partition.from_index([0, 1, 0, 2]).first, [0, 1, 3])


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
        assert lo.n_open_edges <= hi.n_open_edges
        open_lo = set(zip(lo.open_u.tolist(), lo.open_v.tolist()))
        open_hi = set(zip(hi.open_u.tolist(), hi.open_v.tolist()))
        assert open_lo <= open_hi
        # clusters only merge when p grows: labels at hi factor through lo
        assert np.array_equal(hi.labels[lo.labels], hi.labels)


def test_seed_determinism():
    geom = build_geometry(2, 9, "free")
    a = sample_percolation(geom, 0.5, 123)
    b = sample_percolation(geom, 0.5, 123)
    c = sample_percolation(geom, 0.5, 124)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.open_u, b.open_u)
    assert not np.array_equal(a.labels, c.labels)


def test_open_edge_count_binomial():
    geom = build_geometry(2, 20, "torus")
    p = 0.37
    counts = np.array([sample_percolation(geom, p, s).n_open_edges
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
    for cid, size in zip(cfg.cluster_ids, cfg.cluster_sizes):
        members = np.flatnonzero(labels == cid)
        assert members.max() - members.min() + 1 == size
