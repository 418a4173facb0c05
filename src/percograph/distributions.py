"""Cluster-size distributions and the type measures built from them.

A cluster-size distribution is a probability law on the positive integers
describing the size of the percolation cluster containing a uniformly
chosen site.  Three kinds are supported:

* ``exact_d1(p)`` -- the closed-form law on the line,
  P{|C| = k} = (1-p)^2 k p^(k-1), including the degenerate point mass at
  1 for p = 0 (no short edges at all);
* ``from_table`` -- an explicit finite table;
* ``from_empirical`` -- the per-site estimator pooled from sampled
  configurations, P_hat{|C| = k} = (1/n) * sum_x 1{|C(x)| = k}, which for
  a census with N_k clusters of size k equals k * N_k / n.

Everything the phase-diagram solvers consume routes through
:meth:`ClusterSizeDistribution.expect`, which evaluates truncated
expectations with an explicit exponential growth-rate declaration and
returns a truncation-error estimate alongside the value.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError
from .fileio import fmt, read_csv, write_csv

__all__ = [
    "ClusterSizeDistribution",
    "exact_d1",
    "point_mass",
    "from_table",
    "from_empirical",
    "TypeMeasure",
    "type_measure",
    "ExpectResult",
]

# Hard ceiling on truncation length; a request beyond it means the
# declared growth rate sits too close to the tail decay rate.
K_CAP = 5_000_000

# Minimum occurrences per size for a point to enter the tail-slope fit.
ZETA_MIN_COUNT = 50


class ExpectResult(NamedTuple):
    value: float
    tail_bound: float


class TruncatedPmf(NamedTuple):
    ks: np.ndarray
    pmf: np.ndarray
    tail_mass: float


@dataclass(frozen=True)
class ClusterSizeDistribution:
    """Law of the size of the cluster of a uniformly chosen site.

    Do not construct directly; use :func:`exact_d1`, :func:`from_table`,
    :func:`from_empirical`, or :func:`point_mass`.
    """

    kind: str                      # "exact_d1" | "table" | "empirical"
    p: float | None = None         # exact_d1 only
    ks: np.ndarray | None = None   # table kinds: ascending support
    probs: np.ndarray | None = None
    tail_mass: float = 0.0         # declared mass beyond the table
    counts: np.ndarray | None = None   # empirical: site observations per k
    n_sites: int | None = None
    n_configs: int | None = None
    meta: tuple = ()               # ((key, value), ...) provenance, e.g. d, N, p

    # -- basic access ---------------------------------------------------

    def tag(self):
        """Short printable identifier, e.g. for CSV rows."""
        if self.kind == "exact_d1":
            return f"exact_d1(p={fmt(float(self.p))})"
        if self.kind == "empirical":
            return f"empirical(n_sites={self.n_sites},n_configs={self.n_configs})"
        return f"table(kmax={int(self.ks[-1])})"

    def pmf(self, k):
        """P{|C| = k}, vectorized over integer k >= 1."""
        k = np.asarray(k, dtype=np.int64)
        if np.any(k < 1):
            raise DomainError("cluster sizes are >= 1")
        if self.kind == "exact_d1":
            p = self.p
            if p == 0.0:
                return np.where(k == 1, 1.0, 0.0)
            return (1.0 - p) ** 2 * k * p ** (k - 1.0)
        pos = np.searchsorted(self.ks, k)
        pos = np.clip(pos, 0, self.ks.size - 1)
        hit = self.ks[pos] == k
        return np.where(hit, self.probs[pos], 0.0)

    def survival(self, k):
        """P{|C| >= k}, vectorized.  For exact_d1 this is the closed form
        p^(k-1) * (k(1-p) + p)."""
        k = np.asarray(k, dtype=np.int64)
        if self.kind == "exact_d1":
            p = self.p
            if p == 0.0:
                return np.where(k <= 1, 1.0, 0.0)
            return p ** (k - 1.0) * (k * (1.0 - p) + p)
        # reverse cumulative sum over the table
        rev = np.concatenate([np.cumsum(self.probs[::-1])[::-1], [0.0]])
        pos = np.searchsorted(self.ks, k, side="left")
        return rev[np.clip(pos, 0, self.ks.size)] + self.tail_mass

    # -- moments ----------------------------------------------------------

    @property
    def mean_size(self):
        """E|C|; (1+p)/(1-p) on the line."""
        if self.kind == "exact_d1":
            return (1.0 + self.p) / (1.0 - self.p)
        return float(np.sum(self.ks * self.probs))

    @property
    def mean_inverse_size(self):
        """E(1/|C|), the density of clusters per site; 1-p on the line."""
        if self.kind == "exact_d1":
            return 1.0 - self.p
        return float(np.sum(self.probs / self.ks))

    @property
    def second_moment(self):
        """E|C|^2; (1 + 4p + p^2)/(1-p)^2 on the line."""
        if self.kind == "exact_d1":
            p = self.p
            return (1.0 + 4.0 * p + p * p) / (1.0 - p) ** 2
        return float(np.sum(self.ks.astype(float) ** 2 * self.probs))

    # -- tail decay -------------------------------------------------------

    def zeta_exact(self):
        """Exact tail rate -log p for the line law (inf for the point mass)."""
        if self.kind != "exact_d1":
            raise DomainError("exact tail rate only defined for exact_d1")
        return math.inf if self.p == 0.0 else -math.log(self.p)

    def estimate_zeta(self):
        """Tail decay rate: exact for exact_d1, fitted for tables.

        The fit regresses -log P{|C| = k} on k over the largest decade of
        the usable support, [kmax/10, kmax].  For empirical laws only
        sizes observed at least ZETA_MIN_COUNT times enter the fit.
        Raises DomainError if the support does not reach size 20.
        """
        if self.kind == "exact_d1":
            if self.p == 0.0:
                raise DomainError("point mass has no tail to fit")
            return self.zeta_exact()
        usable = self.probs > 0
        if self.kind == "empirical" and self.counts is not None:
            usable &= self.counts >= ZETA_MIN_COUNT
        ks = self.ks[usable]
        if ks.size == 0 or ks[-1] < 20:
            raise DomainError("insufficient tail: support must reach size 20")
        kmax = ks[-1]
        window = ks >= max(1, kmax // 10)
        if np.count_nonzero(window) < 3:
            raise DomainError("insufficient tail: need >= 3 sizes in the top decade")
        x = ks[window].astype(float)
        y = -np.log(self.probs[usable][window])
        slope = np.polyfit(x, y, 1)[0]
        if not np.isfinite(slope) or slope <= 0:
            raise DomainError("tail fit produced a non-positive decay rate")
        return float(slope)

    def zeta_bound(self):
        """Best available tail rate for domain guards; inf when the law
        has bounded support and no fit is possible."""
        if self.kind == "exact_d1":
            return self.zeta_exact()
        try:
            return self.estimate_zeta()
        except DomainError:
            return math.inf

    # -- truncated expectations -------------------------------------------

    def materialize(self, growth_rate=0.0, tol=1e-12):
        """Support and pmf arrays adequate for integrands growing like
        e^(growth_rate * k), with the leftover mass recorded.

        For the exact line law the truncation point is
        10 * log(1/tol) / (zeta - growth_rate); a declared rate at or
        beyond zeta raises DivergenceError.  Tables are returned whole
        (they are treated as exact finite-support laws).
        """
        if self.kind != "exact_d1":
            return TruncatedPmf(self.ks, self.probs, self.tail_mass)
        p = self.p
        if p == 0.0:
            return TruncatedPmf(np.array([1], dtype=np.int64), np.array([1.0]), 0.0)
        zeta = -math.log(p)
        if growth_rate >= zeta:
            raise DivergenceError(
                f"growth rate {growth_rate:.6g} >= tail rate {zeta:.6g}: "
                "expectation diverges"
            )
        decay = zeta - growth_rate
        k_max = max(64, math.ceil(10.0 * math.log(1.0 / tol) / decay))
        if k_max > K_CAP:
            raise DivergenceError(
                f"growth rate {growth_rate:.6g} too close to tail rate "
                f"{zeta:.6g}: truncation at {k_max} is infeasible"
            )
        ks = np.arange(1, k_max + 1, dtype=np.int64)
        pmf = (1.0 - p) ** 2 * ks * p ** (ks - 1.0)
        tail = float(1.0 - pmf.sum())
        return TruncatedPmf(ks, pmf, max(tail, 0.0))

    def expect(self, f, growth_rate=0.0, tol=1e-12):
        """Truncated E[f(|C|)] with a truncation-error estimate.

        Parameters
        ----------
        f : callable
            Vectorized map from an int64 array of sizes to floats.  The
            caller declares that |f(k)| grows no faster than
            e^(growth_rate * k) up to polynomial factors; the truncation
            length carries a 10x decay margin to absorb those factors.
        growth_rate : float
            Declared exponential rate of f.
        tol : float
            Target truncation error.

        Returns
        -------
        ExpectResult
            ``value`` and ``tail_bound``; the bound extrapolates the
            observed geometric decay of the term sequence past the
            truncation point.
        """
        ks, pmf, tail_mass = self.materialize(growth_rate, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(ks), dtype=float)
            if vals.shape != ks.shape:
                raise ValueError("integrand must be vectorized over the size array")
            terms = np.where(pmf > 0.0, pmf * vals, 0.0)
        if not np.all(np.isfinite(terms)):
            raise DivergenceError("expectation overflowed; growth rate understated")
        value = float(terms.sum())
        if self.kind != "exact_d1" or self.p == 0.0:
            # finite support: only the declared leftover mass is unaccounted
            return ExpectResult(value, float(tail_mass) * max(1.0, float(np.abs(vals[-1]))))
        # geometric extrapolation from the observed decay of |terms|
        mags = np.abs(terms[-8:])
        if np.all(mags == 0.0):
            return ExpectResult(value, 0.0)
        nz = mags[mags > 0.0]
        if nz.size < 2:
            return ExpectResult(value, float(nz[-1]))
        ratio = float(np.max(nz[1:] / nz[:-1]))
        if ratio >= 1.0:
            raise DivergenceError("terms not decaying at the truncation point")
        bound = float(nz[-1]) * ratio / (1.0 - ratio)
        return ExpectResult(value, bound)


# -- constructors ----------------------------------------------------------


def exact_d1(p):
    """Closed-form cluster law on the line at retention probability p.

    P{|C| = k} = (1-p)^2 k p^(k-1); p = 0 degenerates to the point mass
    at 1 (the no-short-edge case).
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"exact line law needs 0 <= p < 1, got {p}")
    return ClusterSizeDistribution(kind="exact_d1", p=p)


def point_mass(k=1):
    """Degenerate law concentrated at a single size."""
    k = int(k)
    if k < 1:
        raise DomainError("cluster sizes are >= 1")
    return ClusterSizeDistribution(
        kind="table", ks=np.array([k], dtype=np.int64), probs=np.array([1.0])
    )


def from_table(ks, probs, tail_mass=0.0, meta=()):
    """Explicit finite law.  Probabilities plus tail_mass must sum to 1
    within 1e-10 and the support must be strictly increasing."""
    ks = np.asarray(ks, dtype=np.int64)
    probs = np.asarray(probs, dtype=float)
    if ks.ndim != 1 or ks.shape != probs.shape or ks.size == 0:
        raise DomainError("table needs matching 1-d size and probability arrays")
    if np.any(ks < 1) or np.any(np.diff(ks) <= 0):
        raise DomainError("table support must be strictly increasing sizes >= 1")
    if np.any(probs < 0.0) or not 0.0 <= tail_mass < 1.0:
        raise DomainError("probabilities must be nonnegative")
    total = probs.sum() + tail_mass
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"probabilities sum to {total!r}, not 1")
    return ClusterSizeDistribution(
        kind="table", ks=ks, probs=probs, tail_mass=float(tail_mass),
        meta=tuple(meta),
    )


def from_empirical(samples, meta=()):
    """Pool sampled configurations into the per-site size law.

    Parameters
    ----------
    samples : Census, PercolationConfig, array of per-site sizes, or a
        list mixing any of these.  A census with N_k clusters of size k
        contributes k * N_k site observations of size k.
    meta : iterable of (key, value)
        Provenance to carry along (dimension, radius, p, boundary ...).
    """
    if not isinstance(samples, (list, tuple)):
        samples = [samples]
    if len(samples) == 0:
        raise DomainError("no samples supplied")
    site_counts = {}
    n_sites = 0
    for item in samples:
        if hasattr(item, "counts") and hasattr(item, "ks"):          # Census
            ks, site_obs = item.ks, item.ks * item.counts
            n_sites += int(item.n_vertices)
        elif hasattr(item, "cluster_sizes"):                          # PercolationConfig
            ks, counts = np.unique(item.cluster_sizes, return_counts=True)
            site_obs = ks * counts
            n_sites += int(item.geometry.n_vertices)
        else:                                                         # per-site sizes
            sizes = np.asarray(item, dtype=np.int64)
            if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 1):
                raise DomainError("per-site size arrays must be 1-d with sizes >= 1")
            ks, site_obs = np.unique(sizes, return_counts=True)
            n_sites += int(sizes.size)
        for k, c in zip(ks, site_obs):
            site_counts[int(k)] = site_counts.get(int(k), 0) + int(c)
    ks = np.array(sorted(site_counts), dtype=np.int64)
    counts = np.array([site_counts[int(k)] for k in ks], dtype=np.int64)
    probs = counts / float(n_sites)
    return ClusterSizeDistribution(
        kind="empirical", ks=ks, probs=probs, counts=counts,
        n_sites=int(n_sites), n_configs=len(samples), meta=tuple(meta),
    )


# -- type measures ----------------------------------------------------------


@dataclass(frozen=True)
class TypeMeasure:
    """Macro-vertex type law and its tail partner.

    ``mu[i]`` is the probability that a cluster drawn uniformly among
    clusters has size ks[i]: mu(k) = P{|C| = k} / (k * kappa) with
    kappa = E(1/|C|).  ``mu_tilde[i]`` is P{|C| >= ks[i]}; consecutive
    differences of mu_tilde recover the per-site pmf.
    """

    ks: np.ndarray
    mu: np.ndarray
    mu_tilde: np.ndarray
    kappa: float
    tail_mass: float

    def mu_at(self, k):
        pos = np.searchsorted(self.ks, k)
        if pos >= self.ks.size or self.ks[pos] != k:
            return 0.0
        return float(self.mu[pos])


def type_measure(dist, tol=1e-12):
    """Build the type measure of a cluster-size distribution.

    Requires the materialized tail mass below 1e-8 so that downstream
    solvers see an (almost) normalized law.
    """
    ks, pmf, tail = dist.materialize(0.0, tol)
    if tail >= 1e-8:
        raise DomainError(f"tail mass {tail:.3g} too large for a type measure")
    kappa = dist.mean_inverse_size
    mu = pmf / (ks * kappa)
    if dist.kind == "exact_d1" and dist.p > 0.0:
        mu_tilde = np.asarray(dist.survival(ks), dtype=float)
    else:
        mu_tilde = np.cumsum(pmf[::-1])[::-1] + tail
    return TypeMeasure(ks=ks, mu=mu, mu_tilde=mu_tilde, kappa=float(kappa),
                       tail_mass=float(tail))


# -- serialization -----------------------------------------------------------


def to_csv(dist, fh, invocation=None):
    """Write a distribution as CSV.  The exact line law is carried
    entirely by its header tag (kind and p), with no table rows."""
    comments = [f"kind={dist.kind}"]
    if dist.kind == "exact_d1":
        comments.append(f"p={dist.p!r}")
        rows = []
    else:
        comments.append(f"tail_mass={dist.tail_mass!r}")
        if dist.kind == "empirical":
            comments.append(f"n_sites={dist.n_sites} n_configs={dist.n_configs}")
            rows = [(int(k), float(q), int(c))
                    for k, q, c in zip(dist.ks, dist.probs, dist.counts)]
        else:
            rows = [(int(k), float(q)) for k, q in zip(dist.ks, dist.probs)]
    cols = ["k", "prob"] + (["count"] if dist.kind == "empirical" else [])
    write_csv(fh, "cluster-dist", cols, rows, invocation, extra_comments=comments)


def from_csv(fh):
    comments, columns, rows = read_csv(fh)
    fields = {}
    for comment in comments:
        for token in comment.split():
            if "=" in token:
                key, _, val = token.partition("=")
                fields[key] = val
    kind = fields.get("kind")
    if kind == "exact_d1":
        return exact_d1(float(fields["p"]))
    ks = [int(r[0]) for r in rows]
    probs = [float(r[1]) for r in rows]
    tail = float(fields.get("tail_mass", 0.0))
    if kind == "empirical":
        counts = np.asarray([int(r[2]) for r in rows], dtype=np.int64)
        return ClusterSizeDistribution(
            kind="empirical", ks=np.asarray(ks, dtype=np.int64),
            probs=np.asarray(probs, dtype=float), counts=counts,
            n_sites=int(fields["n_sites"]), n_configs=int(fields["n_configs"]),
            tail_mass=tail,
        )
    return from_table(ks, probs, tail)
