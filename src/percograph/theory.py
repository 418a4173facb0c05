"""Phase-diagram solvers for the merged graph.

Given the cluster-size law of the underlying percolation and the
long-range edge density c, these routines locate the phase boundary and
solve the fixed-point equations that govern both phases:

* critical curve: the giant component appears exactly when
  c * E|C| > 1, so c_cr = 1 / E|C| (on the line, (1-p)/(1+p));
* supercritical: the giant fraction is the maximal root of
  beta = 1 - E exp(-c * beta * |C|);
* subcritical: the largest component is alpha * log(box size) to leading
  order, where 1/alpha = c + c*y - E[c * exp(c|C|y)] at the root y of
  E[c|C| * exp(c|C|y)] = 1; the same root gives the convergence radius
  z0 = exp(c * (1 + y - E exp(c|C|y))) of the component generating
  series, and alpha = 1/log(z0).

All expectations go through the law's ``expect`` with explicit
growth-rate declarations, so tail truncation is certified by the
distribution layer rather than improvised per solver.  The law also
supplies each solver's default tolerance (``default_tol``) and the rate
at which its expectations diverge (``divergence_rate``).
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import bisect

from .errors import ConvergenceError, DivergenceError, DomainError

__all__ = [
    "CRITICAL_BAND",
    "c_critical",
    "p_critical_d1",
    "phase_of",
    "solve_beta",
    "rho_of_type",
    "AlphaSolution",
    "solve_alpha",
    "beta_derivative_at_cr",
    "critical_mean_degree_d1",
    "AzResult",
    "solve_A_z",
    "TheoryPoint",
    "theory_point",
]

# |c - c_cr| below this counts as sitting on the critical curve.
CRITICAL_BAND = 1e-9

# Keep declared growth rates at least this fraction away from the tail rate.
_RATE_GAP = 0.02

_MAX_FIXED_POINT_ITER = 100_000


def c_critical(dist):
    """Long-range density at which the giant component appears: 1/E|C|."""
    mean = dist.mean_size
    if not np.isfinite(mean) or mean <= 0.0:
        raise DomainError(f"mean cluster size {mean!r} is not usable")
    return 1.0 / mean


def p_critical_d1(c):
    """Inverse of the critical curve on the line: retention probability at
    which density c becomes critical, (1-c)/(1+c) for 0 < c < 1."""
    c = float(c)
    if not 0.0 < c < 1.0:
        raise DomainError(f"critical retention only defined for 0 < c < 1, got {c}")
    return (1.0 - c) / (1.0 + c)


def phase_of(dist, c):
    """"subcritical", "critical" (within CRITICAL_BAND), or "supercritical"."""
    ccr = c_critical(dist)
    if abs(c - ccr) < CRITICAL_BAND:
        return "critical"
    return "subcritical" if c < ccr else "supercritical"


def solve_beta(dist, c, tol=None, max_iter=_MAX_FIXED_POINT_ITER):
    """Giant-component fraction: maximal root of beta = 1 - E e^(-c beta |C|).

    Iterates the right-hand side from beta = 1; the iterates decrease
    monotonically to the maximal fixed point.  Returns 0.0 at and below
    the critical density.
    """
    c = float(c)
    if c < 0.0:
        raise DomainError(f"long-range density must be >= 0, got {c}")
    if tol is None:
        tol = dist.default_tol
    if c <= c_critical(dist) + CRITICAL_BAND:
        return 0.0
    ks, pmf, _ = dist.materialize(0.0, tol * 1e-2)
    kf = ks.astype(float)
    beta = 1.0
    for _ in range(max_iter):
        nxt = 1.0 - float(np.exp(-c * beta * kf) @ pmf)
        if abs(nxt - beta) < tol:
            return min(max(nxt, 0.0), 1.0)
        beta = nxt
    raise ConvergenceError(
        f"giant-fraction iteration did not settle within {max_iter} steps",
        last=beta, residual=abs(nxt - beta),
    )


def rho_of_type(x, c, beta):
    """Survival probability of a macro-vertex of type x: 1 - e^(-c beta x)."""
    return 1.0 - np.exp(-c * beta * np.asarray(x, dtype=float))


class AlphaSolution(NamedTuple):
    y_root: float
    alpha: float
    z0: float


def solve_alpha(dist, c, tol=None):
    """Subcritical log-law constant.

    Solves E[c|C| e^(c|C|y)] = 1 for y by bracketed bisection (the left
    side is strictly increasing in y), then
    alpha = 1 / (c + c*y - E[c e^(c|C|y)]) and z0 = e^(1/alpha).
    Requires c strictly below the critical density; the bracket for y is
    confined to c*y < zeta so every expectation stays summable.
    """
    c = float(c)
    if tol is None:
        tol = dist.default_tol
    if c <= 0.0:
        raise DomainError(f"long-range density must be > 0, got {c}")
    if c >= c_critical(dist) - CRITICAL_BAND:
        raise DomainError(
            f"subcritical constant needs c < c_cr = {c_critical(dist):.6g}, got {c}"
        )

    zeta = dist.divergence_rate
    y_cap = math.inf if math.isinf(zeta) else zeta * (1.0 - _RATE_GAP) / c

    def h(y):
        val, _ = dist.expect(lambda k: c * k * np.exp(c * y * k),
                             growth_rate=c * y, tol=tol * 1e-2)
        return val - 1.0

    lo, hi = 0.0, min(1.0, y_cap * 0.5) if math.isfinite(y_cap) else 1.0
    while h(hi) < 0.0:
        if hi >= y_cap:
            raise DomainError(
                "search for the subcritical root left the finiteness domain "
                f"(c*y approaching the tail rate {zeta:.6g})"
            )
        hi = min(hi * 2.0, y_cap)
    y = float(bisect(h, lo, hi, xtol=1e-14, maxiter=300))
    residual = h(y)
    if abs(residual) > max(tol, 1e-9):
        raise ConvergenceError("subcritical root residual too large",
                               last=y, residual=residual)

    e_exp, _ = dist.expect(lambda k: np.exp(c * y * k),
                           growth_rate=c * y, tol=tol * 1e-2)
    log_z0 = c * (1.0 + y - e_exp)
    if log_z0 <= 0.0:
        raise DomainError("degenerate subcritical solution: log z0 <= 0")
    alpha = 1.0 / (c + c * y - c * e_exp)
    z0 = math.exp(log_z0)
    if abs(alpha - 1.0 / math.log(z0)) > max(tol, 1e-9) * abs(alpha):
        raise ConvergenceError("alpha and 1/log z0 disagree",
                               last=alpha, residual=alpha - 1.0 / math.log(z0))
    return AlphaSolution(y_root=y, alpha=alpha, z0=z0)


def beta_derivative_at_cr(dist):
    """Slope of the giant fraction at the critical point from inside the
    supercritical phase: 2 (E|C|)^3 / E|C|^2."""
    m1 = dist.mean_size
    m2 = dist.second_moment
    if not np.isfinite(m2) or m2 <= 0.0:
        raise DomainError("second moment of the cluster law is not usable")
    return 2.0 * m1**3 / m2


def critical_mean_degree_d1(p):
    """Mean degree of the line model on its critical curve:
    2p + (1-p)/(1+p) = 1 + 2p^2/(1+p), always in [1, 2)."""
    p = float(p)
    if not 0.0 <= p < 1.0:
        raise DomainError(f"retention probability must lie in [0, 1), got {p}")
    return 2.0 * p + (1.0 - p) / (1.0 + p)


class AzResult(NamedTuple):
    converged: bool
    value: float
    iterations: int
    reason: str


def solve_A_z(dist, c, z, tol=None, max_iter=_MAX_FIXED_POINT_ITER):
    """Component generating series by fixed-point iteration.

    Iterates A <- (1/kappa) E[z^|C| e^(c|C|(kappa A - 1))] from the
    initial value A = 1/kappa.  The iterates increase monotonically for
    z >= 1; they settle exactly when z does not exceed the convergence
    radius z0 from :func:`solve_alpha`, and blow up past it, which is
    reported as a non-converged result rather than an exception.

    z itself must satisfy z < e^zeta (log z below the tail decay rate),
    otherwise even the first expectation is infinite and a DomainError is
    raised.
    """
    c = float(c)
    z = float(z)
    if tol is None:
        tol = dist.default_tol
    if z <= 0.0:
        raise DomainError(f"generating-series argument must be > 0, got {z}")
    zeta = dist.zeta_bound()
    if math.log(z) >= zeta:
        raise DomainError(
            f"z = {z:.6g} outside the finiteness domain z < e^zeta = "
            f"{math.exp(zeta):.6g}"
        )
    kappa = dist.mean_inverse_size
    a = 1.0 / kappa
    log_z = math.log(z)
    for it in range(1, max_iter + 1):
        rate = log_z + c * (kappa * a - 1.0)
        if rate >= zeta:
            return AzResult(False, math.nan, it, "left finiteness domain")
        try:
            val, _ = dist.expect(lambda k: np.exp(rate * k),
                                 growth_rate=rate, tol=tol * 1e-2)
        except DivergenceError:
            return AzResult(False, math.nan, it, "left finiteness domain")
        nxt = val / kappa
        if not math.isfinite(nxt) or nxt > 1e12:
            return AzResult(False, math.nan, it, "iterates blew up")
        if abs(nxt - a) < tol:
            return AzResult(True, nxt, it, "converged")
        a = nxt
    return AzResult(False, a, max_iter, "iteration cap reached")


@dataclass(frozen=True)
class TheoryPoint:
    """One solved point of the phase diagram."""

    c: float
    c_cr: float
    phase: str
    beta: float
    beta_prime_cr: float
    alpha: float | None = None
    y_root: float | None = None
    z0: float | None = None
    d: int | None = None
    p: float | None = None
    dist_tag: str = ""

    def as_dict(self):
        return asdict(self)


THEORY_COLUMNS = ["d", "p", "c", "c_cr", "phase", "beta", "alpha",
                  "y_root", "z0", "beta_prime_cr", "dist_tag"]


def theory_point(dist, c, d=None, p=None, tol=None):
    """Solve every quantity of the phase diagram at one (dist, c) point.

    beta is 0 off the supercritical phase; the subcritical constants are
    None unless the point is strictly subcritical.
    """
    ccr = c_critical(dist)
    phase = phase_of(dist, c)
    beta = solve_beta(dist, c, tol=tol) if phase == "supercritical" else 0.0
    alpha = y_root = z0 = None
    if phase == "subcritical" and c > 0.0:
        sol = solve_alpha(dist, c, tol=tol)
        alpha, y_root, z0 = sol.alpha, sol.y_root, sol.z0
    return TheoryPoint(
        c=float(c), c_cr=ccr, phase=phase, beta=beta,
        beta_prime_cr=beta_derivative_at_cr(dist),
        alpha=alpha, y_root=y_root, z0=z0,
        d=d, p=p, dist_tag=dist.tag(),
    )
