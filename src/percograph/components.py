"""Connected-component partitions of sparse edge lists.

The partition contract used everywhere in the package: components are
numbered 0, 1, ... in ascending order of their smallest vertex, and the
canonical label of a vertex is the smallest vertex index in its
component.  That makes labels deterministic, independent of edge order,
and directly comparable between runs.

Vertex and component ids are int32, as no graph here has more than
``lattice.MAX_VERTICES`` = 2**26 vertices; sizes are int64 counts.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

__all__ = ["Partition", "component_labels"]


@dataclass(frozen=True)
class Partition:
    """A vertex partition in canonical order.

    Attributes
    ----------
    index : ndarray of int32, shape (n_vertices,)
        ``index[x]`` is the compact id of the component of ``x``.
    sizes : ndarray of int64
        ``sizes[i]`` is the number of vertices in component ``i``.
    first : ndarray of int32
        ``first[i]`` is the smallest vertex of component ``i``; ascending.
    """

    index: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)
    first: np.ndarray = field(repr=False)

    @classmethod
    def from_index(cls, index):
        """Partition from compact ids that number components in order of
        their smallest vertex, so that their running maximum starts at 0
        and steps by at most 1.  Any other numbering raises instead of
        being relabelled.  The guard runs before the int32 cast, which
        copies nothing for scipy's int32 labels."""
        index = np.asarray(index)
        steps = np.diff(np.maximum.accumulate(index), prepend=-1)
        if np.any(steps > 1):
            raise RuntimeError(
                "component ids are not numbered in order of each "
                "component's smallest vertex")
        return cls(index=index.astype(np.int32, copy=False),
                   sizes=np.bincount(index),
                   first=np.flatnonzero(steps).astype(np.int32))

    @property
    def labels(self):
        """``labels[x]``: the smallest vertex index in the component of x."""
        return self.first[self.index]


def _int32_ids(ids, n_vertices):
    """As int32; any other dtype is range-checked first, so no cast wraps."""
    ids = np.asarray(ids)
    if ids.dtype != np.int32:
        if ids.size and (ids.min() < 0 or ids.max() >= n_vertices):
            raise ValueError("edge endpoint outside [0, n_vertices)")
        ids = ids.astype(np.int32)
    return ids


def component_labels(n_vertices, u, v):
    """Component partition of the graph on ``n_vertices`` with edges (u, v).

    Parameters
    ----------
    n_vertices : int
        Number of vertices; vertex ids are 0..n_vertices-1.
    u, v : array_like of int
        Edge endpoint arrays of equal length, each id in [0, n_vertices);
        any other id raises ``ValueError``.  Parallel edges and isolated
        vertices are fine; self-loops are ignored by the underlying solver.

    Returns
    -------
    Partition
    """
    n_vertices = int(n_vertices)
    u, v = _int32_ids(u, n_vertices), _int32_ids(v, n_vertices)
    if u.shape != v.shape:
        raise ValueError("endpoint arrays differ in length")
    data = np.ones(u.size, dtype=np.int8)
    adj = sparse.csr_matrix((data, (u, v)), shape=(n_vertices, n_vertices))
    # free edge arrays passed as temporaries before the solver copies adj
    del data, u, v
    # scipy numbers components in order of each one's smallest vertex
    _, index = connected_components(adj, directed=False)
    return Partition.from_index(index)
