"""Connected-component partitions of sparse edge lists.

The partition contract used everywhere in the package: components are
numbered 0, 1, ... in ascending order of their smallest vertex, and the
canonical label of a vertex is the smallest vertex index in its
component.  That makes labels deterministic, independent of edge order,
and directly comparable between runs.
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
    index : ndarray of int64, shape (n_vertices,)
        ``index[x]`` is the compact id of the component of ``x``.
    sizes : ndarray of int64
        ``sizes[i]`` is the number of vertices in component ``i``.
    first : ndarray of int64
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
        being relabelled."""
        index = np.asarray(index, dtype=np.int64)
        steps = np.diff(np.maximum.accumulate(index), prepend=-1)
        if np.any(steps > 1):
            raise RuntimeError(
                "component ids are not numbered in order of each "
                "component's smallest vertex")
        return cls(index=index, sizes=np.bincount(index),
                   first=np.flatnonzero(steps))

    @property
    def labels(self):
        """``labels[x]``: the smallest vertex index in the component of x."""
        return self.first[self.index]


def component_labels(n_vertices, u, v):
    """Component partition of the graph on ``n_vertices`` with edges (u, v).

    Parameters
    ----------
    n_vertices : int
        Number of vertices; vertex ids are 0..n_vertices-1.
    u, v : array_like of int
        Edge endpoint arrays of equal length.  Parallel edges and isolated
        vertices are fine; self-loops are ignored by the underlying solver.

    Returns
    -------
    Partition
    """
    n_vertices = int(n_vertices)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("endpoint arrays differ in length")
    data = np.ones(u.size, dtype=np.int8)
    adj = sparse.csr_matrix((data, (u, v)), shape=(n_vertices, n_vertices))
    # free edge arrays passed as temporaries before the solver copies adj
    del data, u, v
    # scipy numbers components in order of each one's smallest vertex
    _, index = connected_components(adj, directed=False)
    return Partition.from_index(index)
