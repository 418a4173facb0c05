"""Cluster-size laws.

A cluster-size law is a probability law on the positive integers
describing the size of the percolation cluster containing a uniformly
chosen site.  Two law types share one interface:

* :class:`LineLaw`, built by ``exact_d1(p)`` -- the closed-form law on
  the line, P{|C| = k} = (1-p)^2 k p^(k-1), including the degenerate
  point mass at 1 for p = 0 (no short edges at all);
* :class:`TableLaw` -- a finite table, built by ``from_table``,
  ``point_mass``, ``from_csv`` or ``from_empirical``.  An empirical table
  is the per-site estimator pooled from sampled configurations,
  P_hat{|C| = k} = (1/n) * sum_x 1{|C(x)| = k}, which for a census with
  N_k clusters of size k equals k * N_k / n; it also carries its site
  counts and the number of configurations pooled.

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
from .lattice import Census, PercolationConfig, cluster_census

__all__ = [
    "ClusterSizeDistribution",
    "LineLaw",
    "TableLaw",
    "exact_d1",
    "point_mass",
    "from_table",
    "from_empirical",
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


class ClusterSizeDistribution:
    """Law of the size of the cluster of a uniformly chosen site.

    Do not construct directly; use :func:`exact_d1`, :func:`from_table`,
    :func:`from_empirical`, or :func:`point_mass`.  Each law declares
    ``default_tol``, the solvers' default tolerance for it, and
    ``divergence_rate``, the growth rate at which e^(rate * |C|) stops
    being summable against it.
    """

    def zeta_bound(self):
        """Best available tail rate for domain guards: the exact or fitted
        rate, else ``divergence_rate`` (inf when no fit is possible)."""
        try:
            return self.estimate_zeta()
        except DomainError:
            return self.divergence_rate

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
            ``value`` and ``tail_bound``, the law's bound on what the
            truncation leaves out.
        """
        ks, pmf, _ = self.materialize(growth_rate, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(ks), dtype=float)
            if vals.shape != ks.shape:
                raise ValueError("integrand must be vectorized over the size array")
            terms = np.where(pmf > 0.0, pmf * vals, 0.0)
        if not np.all(np.isfinite(terms)):
            raise DivergenceError("expectation overflowed; growth rate understated")
        return ExpectResult(float(terms.sum()), self._tail_bound(vals, terms))


@dataclass(frozen=True)
class LineLaw(ClusterSizeDistribution):
    """Closed-form cluster law on the line at retention probability p."""

    p: float

    default_tol = 1e-10

    @property
    def divergence_rate(self):
        """Exact tail rate -log p (inf for the point mass at p = 0)."""
        return math.inf if self.p == 0.0 else -math.log(self.p)

    def tag(self):
        """Short printable identifier, e.g. for CSV rows."""
        return f"exact_d1(p={fmt(float(self.p))})"

    def pmf(self, k):
        """P{|C| = k}, vectorized over integer k >= 1."""
        k = np.asarray(k, dtype=np.int64)
        if np.any(k < 1):
            raise DomainError("cluster sizes are >= 1")
        p = self.p
        if p == 0.0:
            return np.where(k == 1, 1.0, 0.0)
        return (1.0 - p) ** 2 * k * p ** (k - 1.0)

    def survival(self, k):
        """P{|C| >= k} = p^(k-1) * (k(1-p) + p), vectorized."""
        k = np.asarray(k, dtype=np.int64)
        p = self.p
        if p == 0.0:
            return np.where(k <= 1, 1.0, 0.0)
        return p ** (k - 1.0) * (k * (1.0 - p) + p)

    @property
    def mean_size(self):
        """E|C| = (1+p)/(1-p)."""
        return (1.0 + self.p) / (1.0 - self.p)

    @property
    def mean_inverse_size(self):
        """E(1/|C|), the density of clusters per site: 1-p."""
        return 1.0 - self.p

    @property
    def second_moment(self):
        """E|C|^2 = (1 + 4p + p^2)/(1-p)^2."""
        p = self.p
        return (1.0 + 4.0 * p + p * p) / (1.0 - p) ** 2

    def estimate_zeta(self):
        """The exact tail rate; the point mass has no tail to fit."""
        if self.p == 0.0:
            raise DomainError("point mass has no tail to fit")
        return self.divergence_rate

    def materialize(self, growth_rate=0.0, tol=1e-12):
        """Support and pmf arrays adequate for integrands growing like
        e^(growth_rate * k), with the leftover mass recorded.

        The truncation point is 10 * log(1/tol) / (zeta - growth_rate);
        a declared rate at or beyond zeta raises DivergenceError.
        """
        p = self.p
        if p == 0.0:
            return TruncatedPmf(np.array([1], dtype=np.int64), np.array([1.0]), 0.0)
        zeta = self.divergence_rate
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

    def _tail_bound(self, vals, terms):
        """Geometric extrapolation of the observed decay of |terms| past
        the truncation point; the point mass leaves nothing out."""
        mags = np.abs(terms[-8:])
        if self.p == 0.0 or np.all(mags == 0.0):
            return 0.0
        nz = mags[mags > 0.0]
        if nz.size < 2:
            return float(nz[-1])
        ratio = float(np.max(nz[1:] / nz[:-1]))
        if ratio >= 1.0:
            raise DivergenceError("terms not decaying at the truncation point")
        return float(nz[-1]) * ratio / (1.0 - ratio)


@dataclass(frozen=True)
class TableLaw(ClusterSizeDistribution):
    """Finite table law, treated as exact on its support.

    ``ks`` is the ascending support, ``tail_mass`` the declared mass
    beyond it.  An empirical table also carries ``counts`` (site
    observations per size) and ``n_configs`` (configurations pooled).
    """

    ks: np.ndarray
    probs: np.ndarray
    tail_mass: float = 0.0
    counts: np.ndarray | None = None
    n_configs: int | None = None

    default_tol = 1e-8
    divergence_rate = math.inf

    @property
    def n_sites(self):
        """Number of site observations pooled into an empirical table."""
        return int(self.counts.sum())

    def tag(self):
        """Short printable identifier, e.g. for CSV rows."""
        if self.counts is not None:
            return f"empirical(n_sites={self.n_sites},n_configs={self.n_configs})"
        return f"table(kmax={int(self.ks[-1])})"

    def pmf(self, k):
        """P{|C| = k}, vectorized over integer k >= 1."""
        k = np.asarray(k, dtype=np.int64)
        if np.any(k < 1):
            raise DomainError("cluster sizes are >= 1")
        pos = np.searchsorted(self.ks, k)
        pos = np.clip(pos, 0, self.ks.size - 1)
        hit = self.ks[pos] == k
        return np.where(hit, self.probs[pos], 0.0)

    def survival(self, k):
        """P{|C| >= k}, vectorized: a reverse cumulative sum over the table."""
        k = np.asarray(k, dtype=np.int64)
        rev = np.concatenate([np.cumsum(self.probs[::-1])[::-1], [0.0]])
        pos = np.searchsorted(self.ks, k, side="left")
        return rev[np.clip(pos, 0, self.ks.size)] + self.tail_mass

    @property
    def mean_size(self):
        """E|C|."""
        return float(np.sum(self.ks * self.probs))

    @property
    def mean_inverse_size(self):
        """E(1/|C|), the density of clusters per site."""
        return float(np.sum(self.probs / self.ks))

    @property
    def second_moment(self):
        """E|C|^2."""
        return float(np.sum(self.ks.astype(float) ** 2 * self.probs))

    def estimate_zeta(self):
        """Tail decay rate fitted over the largest decade of the usable
        support, [kmax/10, kmax], by regressing -log P{|C| = k} on k.

        For empirical tables only sizes observed at least ZETA_MIN_COUNT
        times enter the fit.  Raises DomainError if the support does not
        reach size 20.
        """
        usable = self.probs > 0
        if self.counts is not None:
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

    def materialize(self, growth_rate=0.0, tol=1e-12):
        """The whole table and its declared tail mass."""
        return TruncatedPmf(self.ks, self.probs, self.tail_mass)

    def _tail_bound(self, vals, terms):
        """Only the declared leftover mass is unaccounted."""
        return float(self.tail_mass) * max(1.0, float(np.abs(vals[-1])))


# -- constructors ----------------------------------------------------------


def exact_d1(p):
    """Closed-form cluster law on the line at retention probability p.

    P{|C| = k} = (1-p)^2 k p^(k-1); p = 0 degenerates to the point mass
    at 1 (the no-short-edge case).
    """
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"exact line law needs 0 <= p < 1, got {p}")
    return LineLaw(p)


def point_mass(k=1):
    """Degenerate law concentrated at a single size."""
    k = int(k)
    if k < 1:
        raise DomainError("cluster sizes are >= 1")
    return TableLaw(ks=np.array([k], dtype=np.int64), probs=np.array([1.0]))


def from_table(ks, probs, tail_mass=0.0):
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
    return TableLaw(ks=ks, probs=probs, tail_mass=float(tail_mass))


def from_empirical(samples):
    """Pool sampled configurations into the per-site size law.

    ``samples`` is a Census, a PercolationConfig (taken through its
    census), an array of per-site sizes, or a list mixing any of these.
    A census with N_k clusters of size k contributes k * N_k site
    observations of size k.
    """
    if not isinstance(samples, (list, tuple)):
        samples = [samples]
    if len(samples) == 0:
        raise DomainError("no samples supplied")
    site_counts = {}
    for item in samples:
        if isinstance(item, PercolationConfig):
            item = cluster_census(item)
        if isinstance(item, Census):
            ks, site_obs = item.ks, item.ks * item.counts
        else:                                                         # per-site sizes
            sizes = np.asarray(item, dtype=np.int64)
            if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 1):
                raise DomainError("per-site size arrays must be 1-d with sizes >= 1")
            ks, site_obs = np.unique(sizes, return_counts=True)
        for k, c in zip(ks, site_obs):
            site_counts[int(k)] = site_counts.get(int(k), 0) + int(c)
    ks = np.array(sorted(site_counts), dtype=np.int64)
    counts = np.array([site_counts[int(k)] for k in ks], dtype=np.int64)
    return TableLaw(ks=ks, probs=counts / float(counts.sum()), counts=counts,
                    n_configs=len(samples))


# -- serialization -----------------------------------------------------------


def to_csv(dist, fh, invocation=None):
    """Write a law as CSV.  The line law is carried entirely by its
    header tag (kind and p), with no table rows."""
    cols = ["k", "prob"]
    if isinstance(dist, LineLaw):
        comments = ["kind=exact_d1", f"p={dist.p!r}"]
        rows = []
    elif dist.counts is None:
        comments = ["kind=table", f"tail_mass={dist.tail_mass!r}"]
        rows = [(int(k), float(q)) for k, q in zip(dist.ks, dist.probs)]
    else:
        comments = ["kind=empirical", f"tail_mass={dist.tail_mass!r}",
                    f"n_sites={dist.n_sites} n_configs={dist.n_configs}"]
        cols.append("count")
        rows = [(int(k), float(q), int(c))
                for k, q, c in zip(dist.ks, dist.probs, dist.counts)]
    write_csv(fh, "cluster-dist", cols, rows, invocation, extra_comments=comments)


def from_csv(fh):
    """Read a law written by :func:`to_csv`."""
    comments, columns, rows = read_csv(fh)
    fields = {}
    for comment in comments:
        for token in comment.split():
            if "=" in token:
                key, _, val = token.partition("=")
                fields[key] = val
    if fields.get("kind") == "exact_d1":
        return exact_d1(float(fields["p"]))
    ks = [int(r[0]) for r in rows]
    probs = [float(r[1]) for r in rows]
    tail = float(fields.get("tail_mass", 0.0))
    if "count" in columns:
        return TableLaw(
            ks=np.asarray(ks, dtype=np.int64), probs=np.asarray(probs, dtype=float),
            tail_mass=tail, counts=np.asarray([int(r[2]) for r in rows], dtype=np.int64),
            n_configs=int(fields["n_configs"]),
        )
    return from_table(ks, probs, tail)
