"""Cluster-size laws.

A cluster-size law is a probability law on the positive integers
describing the size of the percolation cluster containing a uniformly
chosen site.  Two law types share one interface:

* :class:`LineLaw`, built by ``exact_d1(p)`` -- the closed-form law on
  the line, P{|C| = k} = (1-p)^2 k p^(k-1), including the degenerate
  point mass at 1 for p = 0 (no short edges at all);
* :class:`TableLaw` -- a finite table, built by ``from_table``,
  ``point_mass``, ``from_csv`` or ``from_empirical``.  An empirical table
  is the per-site estimator pooled from the cluster censuses of sampled
  configurations, P_hat{|C| = k} = (1/n) * sum_x 1{|C(x)| = k}, which for
  a census with N_k clusters of size k equals k * N_k / n; it also
  carries its site counts and the number of configurations pooled.

The phase-diagram solvers read a law through its moments (``mean_size``,
``second_moment``, ``mean_inverse_size``), through ``materialize`` and
:meth:`ClusterSizeDistribution.expect`, which evaluates truncated
expectations with an explicit exponential growth-rate declaration and
returns a truncation-error estimate alongside the value, and through
``divergence_rate``, the rate at which E e^(s|C|) stops being finite.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, DomainError
from .fileio import fmt, read_csv, write_csv

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
    ``divergence_rate``, the growth rate at which e^(rate * |C|) stops
    being summable against it.
    """

    def expect(self, f, growth_rate=0.0):
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

        Returns
        -------
        ExpectResult
            ``value`` and ``tail_bound``, the law's bound on what the
            truncation leaves out.
        """
        ks, pmf, _ = self.materialize(growth_rate)
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


def _check_support(ks):
    if np.any(ks < 1) or np.any(np.diff(ks) <= 0):
        raise DomainError("table support must be strictly increasing sizes >= 1")


def from_table(ks, probs, tail_mass=0.0):
    """Explicit finite law.  Probabilities plus tail_mass must sum to 1
    within 1e-10 and the support must be strictly increasing."""
    ks = np.asarray(ks, dtype=np.int64)
    probs = np.asarray(probs, dtype=float)
    if ks.ndim != 1 or ks.shape != probs.shape or ks.size == 0:
        raise DomainError("table needs matching 1-d size and probability arrays")
    _check_support(ks)
    if np.any(probs < 0.0) or not 0.0 <= tail_mass < 1.0:
        raise DomainError("probabilities must be nonnegative")
    total = probs.sum() + tail_mass
    if not abs(total - 1.0) <= 1e-10:  # also rejects nan
        raise DomainError(f"probabilities sum to {total!r}, not 1")
    return TableLaw(ks=ks, probs=probs, tail_mass=float(tail_mass))


def from_empirical(censuses):
    """Pool cluster censuses into the per-site size law.

    ``censuses`` is a non-empty list of censuses of sampled
    configurations, each read through its ``ks`` (ascending sizes) and
    ``counts`` (clusters of each size).  A census with N_k clusters of
    size k contributes k * N_k site observations of size k; ``n_configs``
    is the number of censuses pooled.
    """
    if len(censuses) == 0:
        raise DomainError("no censuses supplied")
    ks, where = np.unique(np.concatenate([c.ks for c in censuses]), return_inverse=True)
    counts = np.zeros(ks.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate([c.ks * c.counts for c in censuses]))
    return TableLaw(ks=ks, probs=counts / float(counts.sum()), counts=counts,
                    n_configs=len(censuses))


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


def _parse(parse, text, name):
    """One value read from a law file, which is outside input: a missing
    or malformed value raises DomainError."""
    if text is None:
        raise DomainError(f"law file has no {name}")
    try:
        return parse(text)
    except (ValueError, OverflowError):
        raise DomainError(f"law file {name} {text!r} is not a valid {parse.__name__}") from None


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
        return exact_d1(_parse(float, fields.get("p"), "p"))
    if any(len(r) != len(columns) for r in rows):
        raise DomainError(f"law file rows must have the {len(columns)} columns {columns}")
    ks = np.array([_parse(np.int64, r[0], "k") for r in rows], dtype=np.int64)
    tail = _parse(float, fields.get("tail_mass", "0.0"), "tail_mass")
    if "count" in columns:
        # probabilities come from the exact counts, not the rounded prob column
        _check_support(ks)
        counts = np.array([_parse(np.int64, r[2], "count") for r in rows], dtype=np.int64)
        if np.any(counts < 0) or counts.sum() <= 0:
            raise DomainError("counts must be >= 0 with a positive total")
        n_configs = _parse(int, fields.get("n_configs"), "n_configs")
        return TableLaw(ks=ks, probs=counts / float(counts.sum()), tail_mass=tail,
                        counts=counts, n_configs=n_configs)
    return from_table(ks, [_parse(float, r[1], "prob") for r in rows], tail)
