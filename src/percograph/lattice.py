"""Finite-box bond percolation.

The vertex set is the box {-N, ..., N}^d with (2N+1)^d sites.  Nearest
neighbour bonds are retained independently with probability p, either
with free boundary (bonds only inside the box) or on the torus (bonds
wrap around).  Sampling uses one uniform per edge keyed by the seed, so
configurations at p < p' with the same seed are coupled monotonically:
raising p never closes an edge, hence never splits a cluster.
"""

from dataclasses import dataclass, field

import numpy as np

from .components import Partition, component_labels
from .errors import DomainError
from .rng import edge_uniforms

__all__ = [
    "LatticeGeometry",
    "build_geometry",
    "PercolationConfig",
    "sample_percolation",
    "Census",
    "cluster_census",
    "origin_cluster_size",
]

# Refuse boxes whose vertex arrays would not fit comfortably in memory.
MAX_VERTICES = 1 << 26


@dataclass(frozen=True)
class LatticeGeometry:
    """Box geometry and its canonical edge enumeration.

    Attributes
    ----------
    d : int
        Dimension, >= 1.
    N : int
        Box radius; side length is 2N+1.
    boundary : str
        "free" or "torus".
    n_vertices : int
        (2N+1)**d.
    edges_u, edges_v : ndarray
        Endpoints of every lattice bond, in canonical order: axis-major,
        then vertex index within axis.  Stable across runs by construction.
    """

    d: int
    N: int
    boundary: str
    n_vertices: int = field(repr=False)
    edges_u: np.ndarray = field(repr=False, compare=False)
    edges_v: np.ndarray = field(repr=False, compare=False)

    @property
    def side(self):
        return 2 * self.N + 1

    @property
    def n_edges(self):
        return self.edges_u.size

    @property
    def origin_index(self):
        """Index of the site at coordinate (0, ..., 0)."""
        return self.vertex_index(np.zeros(self.d, dtype=np.int64))

    def vertex_index(self, coords):
        """Map lattice coordinates in [-N, N]^d to a flat index.

        Accepts a single coordinate vector of length d or an (m, d) array.
        """
        coords = np.asarray(coords, dtype=np.int64)
        if np.any(np.abs(coords) > self.N):
            raise DomainError(f"coordinate outside box of radius {self.N}")
        digits = coords + self.N
        strides = self.side ** np.arange(self.d, dtype=np.int64)
        return digits @ strides

    def vertex_coord(self, index):
        """Inverse of :meth:`vertex_index`."""
        index = np.asarray(index, dtype=np.int64)
        if np.any(index < 0) or np.any(index >= self.n_vertices):
            raise DomainError("vertex index out of range")
        digits = (index[..., None] // self.side ** np.arange(self.d, dtype=np.int64)) % self.side
        return digits - self.N


def build_geometry(d, N, boundary="torus"):
    """Construct the box geometry with its edge list.

    Parameters
    ----------
    d : int
        Dimension, >= 1.
    N : int
        Box radius, >= 1.
    boundary : str
        "free": d * 2N * (2N+1)^(d-1) bonds.  "torus": d * (2N+1)^d bonds.
    """
    d = int(d)
    N = int(N)
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if N < 1:
        raise DomainError(f"box radius must be >= 1, got {N}")
    if boundary not in ("free", "torus"):
        raise DomainError(f"boundary must be 'free' or 'torus', got {boundary!r}")
    side = 2 * N + 1
    n_vertices = side**d
    if n_vertices > MAX_VERTICES:
        raise DomainError(
            f"box with {n_vertices} sites exceeds the addressable limit {MAX_VERTICES}"
        )

    idx = np.arange(n_vertices, dtype=np.int64)
    us, vs = [], []
    for axis in range(d):
        stride = side**axis
        digit = (idx // stride) % side
        interior = digit < side - 1
        if boundary == "free":
            u = idx[interior]
            v = u + stride
        else:
            u = idx
            v = np.where(interior, idx + stride, idx - (side - 1) * stride)
        us.append(u)
        vs.append(v)
    edges_u = np.concatenate(us)
    edges_v = np.concatenate(vs)
    return LatticeGeometry(d=d, N=N, boundary=boundary, n_vertices=n_vertices,
                           edges_u=edges_u, edges_v=edges_v)


@dataclass(frozen=True)
class PercolationConfig:
    """A sampled bond configuration together with its cluster partition.

    Attributes
    ----------
    geometry : LatticeGeometry
    p : float
        Bond retention probability.
    seed : int
        Stream key; the same (geometry, p, seed) always reproduces the
        same configuration.
    partition : Partition
        The clusters of the retained bonds.
    open_u, open_v : ndarray
        Endpoints of the retained bonds (needed to continue the partition
        when long-range edges are merged in later).
    """

    geometry: LatticeGeometry
    p: float
    seed: int
    partition: Partition = field(repr=False, compare=False)
    open_u: np.ndarray = field(repr=False, compare=False)
    open_v: np.ndarray = field(repr=False, compare=False)

    @property
    def labels(self):
        """``labels[x]``: the smallest vertex index in the cluster of x."""
        return self.partition.labels

    @property
    def cluster_ids(self):
        """Canonical ids (smallest vertex), one per cluster, ascending."""
        return self.partition.first

    @property
    def cluster_sizes(self):
        """Sizes aligned with ``cluster_ids``."""
        return self.partition.sizes

    @property
    def n_clusters(self):
        return self.partition.sizes.size

    @property
    def n_open_edges(self):
        return self.open_u.size


def sample_percolation(geometry, p, seed):
    """Draw one bond configuration and compute its cluster partition.

    Each bond keeps the uniform attached to its edge index under ``seed``
    and is retained iff that uniform is < p.  Configurations sampled with
    the same seed at increasing p are therefore nested.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"retention probability must lie in [0, 1], got {p}")
    uniforms = edge_uniforms(seed, geometry.n_edges)
    keep = uniforms < p
    open_u = geometry.edges_u[keep]
    open_v = geometry.edges_v[keep]
    return PercolationConfig(
        geometry=geometry, p=p, seed=int(seed),
        partition=component_labels(geometry.n_vertices, open_u, open_v),
        open_u=open_u, open_v=open_v,
    )


@dataclass(frozen=True)
class Census:
    """Cluster-size census: how many clusters of each size.

    ``ks`` is ascending; ``counts[i]`` clusters have exactly ``ks[i]``
    sites.  sum(ks * counts) is the number of sites and sum(counts) the
    number of clusters.
    """

    ks: np.ndarray
    counts: np.ndarray


def cluster_census(config):
    """Census of the cluster partition of a sampled configuration."""
    ks, counts = np.unique(config.cluster_sizes, return_counts=True)
    return Census(ks=ks.astype(np.int64), counts=counts.astype(np.int64))


def origin_cluster_size(config):
    """Size of the cluster containing the site at the coordinate origin."""
    part = config.partition
    return int(part.sizes[part.index[config.geometry.origin_index]])
