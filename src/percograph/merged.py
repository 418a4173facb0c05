"""Long-range overlay and the macro-vertex quotient.

The merged graph adds, on top of a sampled bond configuration, an
independent long-range edge between every unordered pair of sites with
probability c/n (n the number of sites).  Collapsing every percolation
cluster to one macro-vertex whose type is the cluster size produces a
quotient graph whose connected components correspond one-to-one to the
merged components, with sizes given by the summed types.  Both routes
are computed here independently so the correspondence can be checked,
not assumed.
"""

from dataclasses import dataclass, field

import numpy as np

from .components import Partition, component_labels
from .errors import DomainError
from .rng import STREAM_OVERLAY, generator

__all__ = [
    "MergedGraph",
    "overlay_long_range",
    "MacroGraph",
    "build_macro_graph",
    "verify_correspondence",
]

# Below this pair-count the sampler may enumerate all pairs outright.
_DENSE_PAIR_LIMIT = 1 << 21


def _first_distinct(keys):
    """Ascending positions of the first occurrence of each distinct key.

    Equal to ``np.sort(np.unique(keys, return_index=True)[1])``, but built
    on a plain sort: only the positions holding a repeated value need a
    first-occurrence pass, and at sparse densities there are few or none.
    """
    s = np.sort(keys)
    repeated = s[1:][s[1:] == s[:-1]]
    if repeated.size == 0:
        return np.arange(keys.size)
    dup = np.isin(keys, repeated)
    pos = np.flatnonzero(dup)
    sub = keys[pos]
    order = np.argsort(sub, kind="stable")
    sub = sub[order]
    lead = np.ones(sub.size, dtype=bool)
    lead[1:] = sub[1:] != sub[:-1]
    dup[pos[order[lead]]] = False
    return np.flatnonzero(~dup)


def _sample_distinct_pairs(rng, n, m):
    """m distinct unordered pairs, uniform among the n(n-1)/2 available.

    Draw-order contract: each pass draws ``max(2 * (m - distinct), 64)``
    endpoints ``a``, then as many endpoints ``b`` (``distinct`` counts
    the distinct pairs drawn so far), and drops draws with ``a == b``;
    the result is the first m distinct pairs in draw order, i.e.
    sequential rejection sampling.  So a seed fixes the pairs and the
    generator state after the call.  Dense requests enumerate the pair
    space instead.
    """
    n_pairs = n * (n - 1) // 2
    if m > n_pairs:
        raise DomainError("more distinct pairs requested than exist")
    if m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if n_pairs <= _DENSE_PAIR_LIMIT and m > n_pairs // 4:
        us, vs = np.triu_indices(n, k=1)
        pick = rng.choice(n_pairs, size=m, replace=False)
        return us[pick].astype(np.int64), vs[pick].astype(np.int64)
    keys = np.empty(0, dtype=np.int64)
    first = keys
    while first.size < m:
        batch = max(2 * (m - first.size), 64)
        a = rng.integers(0, n, size=batch, dtype=np.int64)
        b = rng.integers(0, n, size=batch, dtype=np.int64)
        ok = a != b
        lo = np.minimum(a[ok], b[ok])
        hi = np.maximum(a[ok], b[ok])
        keys = np.concatenate([keys, lo * n + hi])
        first = _first_distinct(keys)
    take = keys[first[:m]]
    return take // n, take % n


@dataclass(frozen=True)
class MergedGraph:
    """A bond configuration with its long-range overlay merged in.

    ``partition`` is the component partition of the merged graph,
    computed from the union of retained bonds and long-range edges;
    ``labels``, ``component_ids`` and ``component_sizes`` read from it.
    """

    base: object                     # PercolationConfig
    c: float
    seed: int
    long_u: np.ndarray = field(repr=False, compare=False)
    long_v: np.ndarray = field(repr=False, compare=False)
    partition: Partition = field(repr=False, compare=False)

    @property
    def labels(self):
        """``labels[x]``: the smallest vertex index in the component of x."""
        return self.partition.labels

    @property
    def component_ids(self):
        return self.partition.first

    @property
    def component_sizes(self):
        return self.partition.sizes

    @property
    def n_long_edges(self):
        return self.long_u.size

    @property
    def n_components(self):
        return self.partition.sizes.size

    def sizes_desc(self):
        """Component sizes, largest first."""
        return np.sort(self.component_sizes)[::-1]

    @property
    def largest(self):
        return int(self.component_sizes.max()) if self.component_sizes.size else 0

    @property
    def second_largest(self):
        if self.component_sizes.size < 2:
            return 0
        return int(self.sizes_desc()[1])


def overlay_long_range(base, c, seed):
    """Superpose the sparse long-range graph on a bond configuration.

    The number of long-range edges is Binomial(n(n-1)/2, c/n); the edges
    themselves are that many distinct pairs drawn uniformly.  The draw is
    keyed by (base.seed, seed), so a merged graph is reproducible from
    its base configuration and the overlay seed alone.  Long-range edges
    parallel to retained bonds are legitimate and kept.
    """
    c = float(c)
    n = int(base.geometry.n_vertices)
    if c < 0.0 or c > n:
        raise DomainError(f"long-range density must lie in [0, n={n}], got {c}")
    rng = generator(base.seed, seed, STREAM_OVERLAY)
    n_pairs = n * (n - 1) // 2
    m = int(rng.binomial(n_pairs, c / n)) if c > 0.0 else 0
    long_u, long_v = _sample_distinct_pairs(rng, n, m)
    all_u = np.concatenate([base.open_u, long_u])
    all_v = np.concatenate([base.open_v, long_v])
    return MergedGraph(
        base=base, c=c, seed=int(seed),
        long_u=long_u, long_v=long_v,
        partition=component_labels(n, all_u, all_v),
    )


@dataclass(frozen=True)
class MacroGraph:
    """Quotient of a merged graph by the base cluster partition.

    Macro-vertex i is the i-th base cluster (in canonical id order); its
    type is the cluster size.  Long-range edges project to macro edges;
    edges landing inside one cluster, and parallel macro edges, are
    tallied separately rather than silently dropped.
    """

    n_macro: int
    types: np.ndarray = field(repr=False, compare=False)
    macro_labels: np.ndarray = field(repr=False, compare=False)
    component_ids: np.ndarray = field(repr=False, compare=False)
    macro_component_sizes: np.ndarray = field(repr=False, compare=False)
    expanded_sizes: np.ndarray = field(repr=False, compare=False)
    n_edges_multi: int = 0           # projected edges between distinct clusters
    n_edges_unique: int = 0          # distinct macro pairs among them
    n_intra: int = 0                 # long edges inside one base cluster


def build_macro_graph(merged):
    """Collapse base clusters to typed macro-vertices and recompute
    components in the quotient."""
    clusters = merged.base.partition
    types = clusters.sizes
    k_n = types.size
    mu = clusters.index[merged.long_u]
    mv = clusters.index[merged.long_v]
    cross = mu != mv
    n_intra = int(np.count_nonzero(~cross))
    mu, mv = mu[cross], mv[cross]
    pair_keys = np.minimum(mu, mv) * k_n + np.maximum(mu, mv)
    n_unique = (1 + int(np.count_nonzero(np.diff(np.sort(pair_keys))))
                if pair_keys.size else 0)
    macro = component_labels(k_n, mu, mv)
    # expanded size = summed types over each macro component (float sums
    # of integers below 2**53 are exact)
    expanded = np.bincount(macro.index, weights=types).astype(np.int64)
    return MacroGraph(
        n_macro=int(k_n), types=types, macro_labels=macro.labels,
        component_ids=macro.first, macro_component_sizes=macro.sizes,
        expanded_sizes=expanded,
        n_edges_multi=int(mu.size), n_edges_unique=n_unique, n_intra=n_intra,
    )


def verify_correspondence(merged, macro=None):
    """Check that quotient components match merged components exactly.

    The construction makes this an identity, so the check is a guard
    against implementation bugs: component counts must agree and the
    multiset of merged component sizes must equal the multiset of
    type-sums over macro components.

    Returns
    -------
    (ok, report) : (bool, str)
        ``report`` is empty when ok, otherwise a short diff.
    """
    if macro is None:
        macro = build_macro_graph(merged)
    merged_sizes = np.sort(merged.component_sizes)
    expanded = np.sort(macro.expanded_sizes)
    problems = []
    if merged.n_components != macro.component_ids.size:
        problems.append(
            f"component counts differ: merged {merged.n_components}, "
            f"macro {macro.component_ids.size}"
        )
    if merged_sizes.size == expanded.size and not np.array_equal(merged_sizes, expanded):
        bad = np.nonzero(merged_sizes != expanded)[0][:5]
        diff = ", ".join(
            f"rank {i}: merged {merged_sizes[i]} vs macro {expanded[i]}" for i in bad
        )
        problems.append(f"size multisets differ: {diff}")
    ok = not problems
    return ok, "; ".join(problems)
