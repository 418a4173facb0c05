"""Connected-component partitions of sparse edge lists.

The partition contract used everywhere in the package: components are
numbered 0, 1, ... in ascending order of their smallest vertex, and the
canonical label of a vertex is the smallest vertex index in its
component.  That makes labels deterministic, independent of edge order,
and directly comparable between runs.

Vertex and component ids are int32, as no graph here has more than
``lattice.MAX_VERTICES`` = 2**26 vertices; sizes are int64 counts.

The labelling is min-label hooking with pointer jumping, after Shiloach
and Vishkin, J. Algorithms 3, 57 (1982), in whole-array numpy steps.
Only the vertices that some edge touches take part, ranked in vertex
order.  Each round hooks every vertex onto its smallest neighbour, or
keeps it when it has none smaller; jumps pointers until every vertex
points at the root of its tree; numbers the roots compactly in their
order; and carries on with the edges between different roots.  Hooking
only ever points a vertex at a smaller one, so a root is the smallest
vertex of its tree and, once no edge is left, of its component: ranking
the roots numbers the components as the contract requires.
"""

from dataclasses import dataclass, field

import numpy as np

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

    @property
    def labels(self):
        """``labels[x]``: the smallest vertex index in the component of x."""
        return self.first[self.index]


def _int32_ids(ids, n_vertices):
    """As int32, range-checked first, so neither the cast nor a gather
    wraps an id outside [0, n_vertices)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= n_vertices):
        raise ValueError("edge endpoint outside [0, n_vertices)")
    return ids.astype(np.int32, copy=False)


def _smallest_roots(n_vertices, u, v):
    """``root[x]``: the smallest vertex in the component of x, on the graph
    over 0..n_vertices-1 with the int32 edges (u, v)."""
    # gathers use take: indexing with int32 ids would first widen them
    contracts = []
    alive = np.arange(n_vertices, dtype=np.int32)  # smallest vertex of each
    while u.size:
        k = alive.size
        # hook each vertex onto its smallest neighbour, if that is smaller
        parent = np.arange(k, dtype=np.int32)
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        roots = np.flatnonzero(parent == np.arange(k, dtype=np.int32))
        # jump until every vertex points at the root of its tree
        while True:
            jumped = parent.take(parent)
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        # contract each tree onto its root, numbered in the roots' order
        rank = np.empty(k, dtype=np.int32)
        rank[roots] = np.arange(roots.size, dtype=np.int32)
        contract = rank.take(parent)
        contracts.append(contract)
        alive = alive.take(roots)
        u, v = contract.take(u), contract.take(v)
        keep = u != v
        u, v = u.compress(keep), v.compress(keep)
    for contract in reversed(contracts):
        alive = alive.take(contract)
    return alive


def component_labels(n_vertices, u, v):
    """Component partition of the graph on ``n_vertices`` with edges (u, v).

    Parameters
    ----------
    n_vertices : int
        Number of vertices; vertex ids are 0..n_vertices-1.
    u, v : array_like of int
        Edge endpoint arrays of equal length, each id in [0, n_vertices);
        any other id raises ``ValueError``.  Parallel edges, self-loops
        and isolated vertices are fine.

    Returns
    -------
    Partition
    """
    n_vertices = int(n_vertices)
    u, v = _int32_ids(u, n_vertices), _int32_ids(v, n_vertices)
    if u.shape != v.shape:
        raise ValueError("endpoint arrays differ in length")
    # rank the vertices that some edge touches, in vertex order
    touched = np.zeros(n_vertices, dtype=bool)
    touched[u] = True
    touched[v] = True
    active = np.flatnonzero(touched)
    rank = np.empty(n_vertices, dtype=np.int32)
    rank[active] = np.arange(active.size, dtype=np.int32)
    root = active.take(_smallest_roots(active.size, rank.take(u), rank.take(v)))
    del u, v, rank  # frees endpoint arrays that a caller passed as temporaries
    # a vertex starts its component unless it is joined to a smaller one
    starts = np.ones(n_vertices, dtype=bool)
    starts[active] = root == active
    first = np.flatnonzero(starts)
    index = np.empty(n_vertices, dtype=np.int32)
    index[first] = np.arange(first.size, dtype=np.int32)
    index[active] = index.take(root)
    return Partition(index=index, sizes=np.bincount(index, minlength=first.size),
                     first=first.astype(np.int32))
