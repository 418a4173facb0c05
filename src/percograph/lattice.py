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

# Refuse boxes whose vertex arrays would not fit comfortably in memory;
# the bound also keeps every vertex and cluster id inside int32.
MAX_VERTICES = 1 << 26


@dataclass(frozen=True)
class LatticeGeometry:
    """Box geometry and its canonical bond numbering.

    Bonds are numbered, not stored: axis-major, then by lower endpoint
    within the axis.  ``bond_ends`` recovers any bond's endpoints.

    Attributes
    ----------
    d : int
        Dimension, >= 1.
    N : int
        Box radius; side length is 2N+1.
    boundary : str
        "free" or "torus".
    """

    d: int
    N: int
    boundary: str

    @property
    def side(self):
        return 2 * self.N + 1

    @property
    def n_vertices(self):
        return self.side**self.d

    @property
    def n_along(self):
        """Bonds per axis: one per site on the torus, ``side - 1`` per row
        of the axis in a free box."""
        n = self.n_vertices
        return n if self.boundary == "torus" else n // self.side * (self.side - 1)

    @property
    def n_edges(self):
        return self.d * self.n_along

    @property
    def origin_index(self):
        """Index of the site at coordinate (0, ..., 0).

        Every base-side digit of the origin is N, so its index is
        N (side**d - 1) / (side - 1) = (n_vertices - 1) / 2.
        """
        return (self.n_vertices - 1) // 2

    def bond_ends(self, bonds):
        """Endpoints (u, v) of the bonds numbered ``bonds``, as int32.

        Bond j of axis a joins u to u + side**a.  On the torus u = j, and
        a u in the top layer of the axis wraps to the bottom one; in a
        free box, which skips the top layer, u = j + side**a * floor(j /
        (side**a * (side - 1))).  int32 holds every step: as side**d is at
        most ``MAX_VERTICES``, d <= 16 and bond numbers stay below 2**30.
        """
        bonds = np.asarray(bonds)
        if bonds.size and (bonds.min() < 0 or bonds.max() >= self.n_edges):
            raise ValueError("bond number outside [0, n_edges)")
        side = self.side
        axis, j = np.divmod(bonds.astype(np.int32), self.n_along)
        stride = np.int32(side)**axis
        if self.boundary == "torus":
            u = j
            v = np.where(u // stride % side == side - 1, u - (side - 1) * stride, u + stride)
        else:
            u = j + stride * (j // (stride * (side - 1)))
            v = u + stride
        return u, v


def build_geometry(d, N, boundary="torus"):
    """Construct the box geometry.

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
    geometry = LatticeGeometry(d=d, N=N, boundary=boundary)
    if geometry.n_vertices > MAX_VERTICES:
        raise DomainError(f"box with {geometry.n_vertices} sites exceeds the "
                          f"addressable limit {MAX_VERTICES}")
    return geometry


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
    open_bonds : ndarray of bool
        ``open_bonds[e]``: whether lattice edge ``e`` (in the geometry's
        canonical order) is retained.
    """

    geometry: LatticeGeometry
    p: float
    seed: int
    partition: Partition = field(repr=False, compare=False)
    open_bonds: np.ndarray = field(repr=False, compare=False)

    @property
    def open_ends(self):
        """Endpoints (u, v) of the retained bonds, as int32."""
        return self.geometry.bond_ends(np.flatnonzero(self.open_bonds))

    @property
    def labels(self):
        """``labels[x]``: the smallest vertex index in the cluster of x."""
        return self.partition.labels

    @property
    def cluster_sizes(self):
        """Sites per cluster, clusters in order of their smallest site."""
        return self.partition.sizes

    @property
    def n_clusters(self):
        return self.partition.sizes.size


def sample_percolation(geometry, p, seed):
    """Draw one bond configuration and compute its cluster partition.

    Each bond keeps the uniform attached to its edge index under ``seed``
    and is retained iff that uniform is < p.  Configurations sampled with
    the same seed at increasing p are therefore nested.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"retention probability must lie in [0, 1], got {p}")
    keep = edge_uniforms(seed, geometry.n_edges) < p
    return PercolationConfig(geometry=geometry, p=p, seed=int(seed),
                             partition=_label_bonds(geometry, keep), open_bonds=keep)


def _label_bonds(geometry, keep):
    """Cluster partition of the bonds ``keep`` marks open, read off the
    lattice's rows; it equals ``component_labels`` on those bonds.

    A row is the ``side`` sites that differ only along axis 0, contiguous
    in the flat index.  Open axis-0 bonds cut each row into runs, which
    one cumsum numbers in order of their first site.  At d = 1 the runs
    are the clusters, once an open wrap bond on the torus folds the last
    run into the first.  Above, one ``component_labels`` call on the runs
    joins them along the open bonds off axis 0 and, on the torus, the
    open wrap bonds of the rows.  This is the row-by-row labelling of
    Hoshen and Kopelman, Phys. Rev. B 14, 3438 (1976).
    """
    side, n, n_along = geometry.side, geometry.n_vertices, geometry.n_along
    torus = geometry.boundary == "torus"
    along = keep[:n_along].reshape(n // side, -1)
    # a site starts a run unless its bond to the previous site is open
    starts = np.ones((n // side, side), dtype=bool)
    starts[:, 1:] = ~along[:, :side - 1]
    starts = starts.ravel()
    run = np.cumsum(starts, dtype=np.int32)
    run -= 1
    first = np.flatnonzero(starts).astype(np.int32)
    run_sizes = np.diff(first, append=n).astype(np.int64)
    if geometry.d == 1:
        if torus and keep[-1] and first.size > 1:
            run[first[-1]:] = 0
            run_sizes[0] += run_sizes[-1]
            first, run_sizes = first[:-1], run_sizes[:-1]
        return Partition(index=run, sizes=run_sizes, first=first)
    bonds = np.flatnonzero(keep[n_along:]) + n_along
    if torus:
        # the wrap bond of a row is the axis-0 bond numbered by its last site
        bonds = np.concatenate([np.flatnonzero(along[:, -1]) * side + (side - 1), bonds])
    u, v = geometry.bond_ends(bonds)
    quotient = component_labels(first.size, run[u], run[v])
    return Partition(index=quotient.index[run],
                     sizes=np.bincount(quotient.index, weights=run_sizes).astype(np.int64),
                     first=first[quotient.first])


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
