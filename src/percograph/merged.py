"""Long-range overlay and the macro-vertex quotient.

The merged graph adds, on top of a sampled bond configuration, an
independent long-range edge between every unordered pair of sites with
probability c/n (n the number of sites).  Collapsing every percolation
cluster to one macro-vertex whose type is the cluster size produces a
quotient graph whose connected components correspond one-to-one to the
merged components, with sizes given by the summed types.  Production
goes through the quotient; ``verify_correspondence`` holds the direct
union of bonds and long-range edges, so the correspondence can be
checked, not assumed.
"""

from dataclasses import dataclass, field
from functools import cached_property

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


def _unrank_pairs(k):
    """Pairs (u, v), u < v, of the colex ranks k = v(v-1)/2 + u: v from the
    float root of 1 + 8k, then one integer step each way (exact for k < 2**51).
    The ranks and this arithmetic are int64; u and v return as int32 ids."""
    v = ((1.0 + np.sqrt(1.0 + 8.0 * k)) / 2.0).astype(np.int64)
    v -= v * (v - 1) // 2 > k
    v += (v + 1) * v // 2 <= k
    return (k - v * (v - 1) // 2).astype(np.int32), v.astype(np.int32)


def _sample_distinct_pairs(rng, n, m):
    """m distinct pairs (u < v), a uniform m-subset of the n(n-1)/2, in
    uniformly random order: every prefix is a uniform subset of its size.
    A seed fixes the pairs and the generator state after the call."""
    n_pairs = n * (n - 1) // 2
    if m > n_pairs:
        raise DomainError("more distinct pairs requested than exist")
    return _unrank_pairs(rng.choice(n_pairs, size=m, replace=False))


@dataclass(frozen=True)
class MergedGraph:
    """A bond configuration with its long-range overlay merged in.

    ``macro`` is the component partition of the quotient: the base
    clusters, as macro-vertices, joined by the projected long-range
    edges.  Its components are the merged components, so ``labels``,
    ``component_sizes`` and ``n_components`` all read from it.
    """

    base: object                     # PercolationConfig
    c: float
    seed: int
    long_u: np.ndarray = field(repr=False, compare=False)
    long_v: np.ndarray = field(repr=False, compare=False)
    macro: Partition = field(repr=False, compare=False)

    @property
    def labels(self):
        """``labels[x]``: the smallest vertex index in the component of x.

        Clusters are numbered by their smallest site, so the smallest
        site of a merged component is that of its first cluster.
        """
        clusters = self.base.partition
        return clusters.first[self.macro.labels[clusters.index]]

    @cached_property
    def component_sizes(self):
        """Sites per merged component: the summed sizes of its clusters
        (float sums of integers below 2**53 are exact)."""
        return np.bincount(self.macro.index,
                           weights=self.base.cluster_sizes).astype(np.int64)

    @property
    def n_long_edges(self):
        return self.long_u.size

    @property
    def n_components(self):
        return self.macro.sizes.size

    @property
    def largest(self):
        return int(self.component_sizes.max()) if self.n_components else 0

    @property
    def second_largest(self):
        if self.n_components < 2:
            return 0
        return int(np.partition(self.component_sizes, -2)[-2])


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
    if not 0.0 <= c <= n:
        raise DomainError(f"long-range density must lie in [0, n={n}], got {c}")
    rng = generator(base.seed, seed, STREAM_OVERLAY)
    n_pairs = n * (n - 1) // 2
    m = int(rng.binomial(n_pairs, c / n)) if c > 0.0 else 0
    long_u, long_v = _sample_distinct_pairs(rng, n, m)
    clusters = base.partition
    macro = component_labels(base.n_clusters, clusters.index[long_u],
                             clusters.index[long_v])
    return MergedGraph(base=base, c=c, seed=int(seed),
                       long_u=long_u, long_v=long_v, macro=macro)


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
    component_ids: np.ndarray = field(repr=False, compare=False)
    expanded_sizes: np.ndarray = field(repr=False, compare=False)
    n_edges_multi: int = 0           # projected edges between distinct clusters
    n_edges_unique: int = 0          # distinct macro pairs among them
    n_intra: int = 0                 # long edges inside one base cluster


def build_macro_graph(merged):
    """Collapse base clusters to typed macro-vertices and tally how the
    long-range edges project; the components are ``merged.macro``."""
    clusters = merged.base.partition
    types = clusters.sizes
    k_n = types.size
    mu = clusters.index[merged.long_u]
    mv = clusters.index[merged.long_v]
    cross = mu != mv
    n_intra = int(np.count_nonzero(~cross))
    mu, mv = mu[cross], mv[cross]
    # int32 ids: widen before the product, which exceeds 2**31 once K_N > 46,341
    pair_keys = np.minimum(mu, mv).astype(np.int64) * k_n + np.maximum(mu, mv)
    n_unique = (1 + int(np.count_nonzero(np.diff(np.sort(pair_keys))))
                if pair_keys.size else 0)
    return MacroGraph(
        n_macro=int(k_n), types=types, component_ids=merged.macro.first,
        expanded_sizes=merged.component_sizes,
        n_edges_multi=int(mu.size), n_edges_unique=n_unique, n_intra=n_intra,
    )


def verify_correspondence(merged, macro=None):
    """Check the quotient's components against a direct labelling.

    The direct route labels the union of retained bonds and long-range
    edges over all n sites, independently of the quotient.  Both number
    components by their smallest site, so the check is exact and in
    order: the same component count, each component's smallest site
    equal to that of its first macro-vertex's cluster, and its size
    equal to the summed types.

    Returns
    -------
    (ok, report) : (bool, str)
        ``report`` is empty when ok, otherwise a short diff.
    """
    if macro is None:
        macro = build_macro_graph(merged)
    base = merged.base
    u, v = base.open_ends
    # the joined arrays go in as temporaries, which the solver frees
    direct = component_labels(base.geometry.n_vertices,
                              np.concatenate([u, merged.long_u]),
                              np.concatenate([v, merged.long_v]))
    if direct.sizes.size != macro.component_ids.size:
        return False, (f"component counts differ: merged {direct.sizes.size}, "
                       f"macro {macro.component_ids.size}")
    problems = []
    for what, got, want in (
            ("smallest sites", direct.first, base.partition.first[macro.component_ids]),
            ("sizes", direct.sizes, macro.expanded_sizes)):
        bad = np.flatnonzero(got != want)[:5]
        if bad.size:
            diff = ", ".join(f"component {i}: merged {got[i]} vs macro {want[i]}"
                             for i in bad)
            problems.append(f"component {what} differ: {diff}")
    return not problems, "; ".join(problems)
