"""Phase-diagram solvers for the merged graph.

Given the cluster-size law of the underlying percolation and the
long-range edge density c, these routines locate the phase boundary and
solve the scalar equations that govern both phases (m1 = E|C|):

* critical curve: the giant component appears exactly when c * m1 > 1,
  so c_cr = 1 / m1 (on the line, (1-p)/(1+p));
* supercritical: the giant fraction is the maximal root of
  beta = 1 - E exp(-c * beta * |C|);
* subcritical: the largest component is alpha * log(box size) to leading
  order, where 1/alpha = c [y (1 - c m1) - E(expm1(x) - x)], x = c y |C|,
  at the root y of E[c|C| e^(c|C|y)] = 1; z0 = e^(1/alpha) is the
  convergence radius of the component generating series A(z).

Each is the root of one scalar equation, written to keep its precision
next to c_cr and found by Brent's method on a sign-checked bracket.
Expectations go through the law's ``expect`` with declared growth rates,
so the distribution layer certifies tail truncation; the law also
supplies the rate at which its expectations diverge (``divergence_rate``),
which bounds the tangent-root search and guards the argument z of A(z).
"""

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError

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


def _density(c):
    """c as a float, checked to be a finite long-range density >= 0."""
    c = float(c)
    if not 0.0 <= c < math.inf:
        raise DomainError(f"long-range density must be finite and >= 0, got {c}")
    return c


def _root(f, lo, hi, what):
    """Root of f in [lo, hi] and the number of calls to f.  Brent's method
    runs to four ulps of the root (the absolute tolerance is far below
    every root), on a bracket whose ends must not share a sign."""
    f_lo, f_hi = f(lo), f(hi)
    if not f_lo * f_hi <= 0.0:  # also rejects nan
        raise DomainError(f"{what}: f({lo:.6g}) = {f_lo:.6g}, f({hi:.6g}) = {f_hi:.6g}")
    x, info = brentq(f, lo, hi, xtol=1e-300, full_output=True, disp=False)
    if not info.converged:
        raise ConvergenceError(f"{what}: Brent's method stopped ({info.flag})",
                               last=x, residual=f(x))
    return x, info.function_calls + 2


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


def solve_beta(dist, c):
    """Giant-component fraction: maximal root of beta = 1 - E e^(-c beta |C|).

    The root of g(b) = -E expm1(-c b |C|) - b on [1e-300, 1]: g is concave
    with g(0) = 0 and g(1) < 0, and g > 0 near 0 exactly when c > c_cr.
    Returns 0.0 at and below the critical density.
    """
    c = _density(c)
    if c <= c_critical(dist) + CRITICAL_BAND:
        return 0.0
    ks, pmf, _ = dist.materialize(0.0)
    return _root(lambda b: -float(np.expm1(-c * b * ks) @ pmf) - b,
                 1e-300, 1.0, "giant fraction")[0]


def rho_of_type(x, c, beta):
    """Survival probability of a macro-vertex of type x: 1 - e^(-c beta x)."""
    return 1.0 - np.exp(-c * beta * np.asarray(x, dtype=float))


class AlphaSolution(NamedTuple):
    y_root: float
    alpha: float
    z0: float


def _tangent_root(dist, c):
    """Root y of h(y) = (c m1 - 1) + E[c|C| expm1(c y |C|)] = E[c|C| e^(c|C|y)] - 1,
    increasing in y.  Above c_cr, h(0) > 0 and h(-1) <= 1/e - 1 bracket it.
    Below, the upper end doubles from 1 while c*y stays below the tail
    rate, so every expectation stays summable."""
    excess = c * dist.mean_size - 1.0

    def h(y):
        val, _ = dist.expect(lambda k: c * k * np.expm1(c * y * k),
                             growth_rate=max(c * y, 0.0))
        return excess + val

    if excess > 0.0:
        return _root(h, -1.0, 0.0, "tangent root")[0]
    zeta = dist.divergence_rate
    y_cap = math.inf if math.isinf(zeta) else zeta * (1.0 - _RATE_GAP) / c
    hi = min(1.0, y_cap * 0.5)
    while h(hi) < 0.0:
        if hi >= y_cap:
            raise DomainError("search for the subcritical root left the finiteness "
                              f"domain (c*y approaching the tail rate {zeta:.6g})")
        hi = min(hi * 2.0, y_cap)
    return _root(h, 0.0, hi, "tangent root")[0]


def solve_alpha(dist, c):
    """Subcritical log-law constant.

    y_root solves E[c|C| e^(c|C|y)] = 1; then 1/alpha =
    c [y (1 - c m1) - E(expm1(x) - x)] with x = c y |C|, both terms of
    order (c_cr - c)^2, and z0 = e^(1/alpha).  Requires 0 < c < c_cr.
    """
    c = _density(c)
    if not 0.0 < c < c_critical(dist) - CRITICAL_BAND:
        raise DomainError(f"subcritical constant needs 0 < c < c_cr = "
                          f"{c_critical(dist):.6g}, got {c}")
    y = _tangent_root(dist, c)
    curvature, _ = dist.expect(lambda k: np.expm1(c * y * k) - c * y * k,
                               growth_rate=c * y)
    inv_alpha = c * (y * (1.0 - c * dist.mean_size) - curvature)
    if not inv_alpha > 0.0:
        raise DomainError(f"degenerate subcritical solution: 1/alpha = {inv_alpha!r}")
    return AlphaSolution(y_root=y, alpha=1.0 / inv_alpha, z0=math.exp(inv_alpha))


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


def solve_A_z(dist, c, z):
    """Component generating series A(z): the smallest root of
    F(A) = (1/kappa) E[z^|C| e^(c|C|(kappa A - 1))] - A, kappa = E(1/|C|).

    F is convex, F(0) > 0, and F' = 0 at A_tan = (1 + y - log(z)/c)/kappa,
    y the root behind :func:`solve_alpha`.  So the series converges, to
    the root on [0, A_tan], exactly when A_tan > 0 and F(A_tan) <= 0
    (below c_cr: z <= z0); otherwise the result is not converged.  At
    c = 0, A(z) = E z^|C| / kappa.  ``iterations`` counts calls of F.

    z itself must satisfy log z < ``dist.divergence_rate``, otherwise
    even E z^|C| is infinite and a DomainError is raised.
    """
    c = _density(c)
    z = float(z)
    if not z > 0.0:
        raise DomainError(f"generating-series argument must be > 0, got {z}")
    zeta = dist.divergence_rate
    log_z = math.log(z)
    if log_z >= zeta:
        raise DomainError(
            f"z = {z:.6g} outside the finiteness domain z < e^zeta = "
            f"{math.exp(zeta):.6g}"
        )
    kappa = dist.mean_inverse_size

    def F(a):
        rate = log_z + c * (kappa * a - 1.0)
        val, _ = dist.expect(lambda k: np.exp(rate * k), growth_rate=rate)
        return val / kappa - a

    if c == 0.0:
        return AzResult(True, F(0.0), 1, "converged")
    a_tan = (1.0 + _tangent_root(dist, c) - log_z / c) / kappa
    if a_tan <= 0.0 or F(a_tan) > 0.0:
        return AzResult(False, math.nan, int(a_tan > 0.0), "beyond the convergence radius")
    a, calls = _root(F, 0.0, a_tan, "generating series")
    return AzResult(True, a, calls + 1, "converged")


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


def theory_point(dist, c, d=None, p=None):
    """Solve every quantity of the phase diagram at one (dist, c) point.

    beta is 0 off the supercritical phase; the subcritical constants are
    None unless the point is strictly subcritical.
    """
    c = _density(c)
    ccr = c_critical(dist)
    phase = phase_of(dist, c)
    beta = solve_beta(dist, c) if phase == "supercritical" else 0.0
    alpha = y_root = z0 = None
    if phase == "subcritical" and c > 0.0:
        sol = solve_alpha(dist, c)
        alpha, y_root, z0 = sol.alpha, sol.y_root, sol.z0
    return TheoryPoint(
        c=c, c_cr=ccr, phase=phase, beta=beta,
        beta_prime_cr=beta_derivative_at_cr(dist),
        alpha=alpha, y_root=y_root, z0=z0,
        d=d, p=p, dist_tag=dist.tag(),
    )
