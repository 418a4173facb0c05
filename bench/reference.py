"""Independent reference values for the d=1 workloads, computed in mpmath.

On the line the cluster-size law has the generating function
G(x) = E x^|C| = (1-p)^2 x / (1-px)^2, so each phase-diagram quantity is
the root of a scalar equation in G.  The roots are found here by plain
bisection at 60 significant digits; nothing in this file calls percograph.

    python3 bench/reference.py      # rewrites bench/refs_d1.json

The benchmark reads the JSON file, so mpmath is needed only to regenerate
it and to run the harness tests.
"""

import json
from pathlib import Path

import mpmath as mp

REFS_PATH = Path(__file__).resolve().parent / "refs_d1.json"

DPS = 60
BISECT_STEPS = 260          # 2^-260 of the bracket: far below 60 digits

P_VALUES = (0.0, 0.3, 0.9)
DELTAS = (0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# |c/c_cr - 1| at or below this is the near-critical band: the seed's
# solvers miss most of it, so it is reported, not gated (README.md).
BAND = 1e-3

# merge_d1_giant and the branching cases run on the p=0.3 line law.
LINE_P = 0.3
MERGE_C = 1.0
SURVIVAL_CASES = ((1, 1.0), (2, 1.0), (5, 1.0), (1, 0.4))


def c_critical(p):
    """Critical density (1-p)/(1+p) as the float the workloads use."""
    return (1.0 - p) / (1.0 + p)


def _G(p, x):
    return (1 - p) ** 2 * x / (1 - p * x) ** 2


def _G_prime(p, x):
    return (1 - p) ** 2 * (1 + p * x) / (1 - p * x) ** 3


def _bisect(f, lo, hi):
    """Root of f in [lo, hi], given that f changes sign there."""
    f_lo = f(lo)
    for _ in range(BISECT_STEPS):
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def beta(p, c):
    """Giant fraction: the root in (0, 1] of b = 1 - G(e^(-c b))."""
    with mp.workdps(DPS):
        p, c = mp.mpf(p), mp.mpf(c)
        g = lambda b: 1 - _G(p, mp.exp(-c * b)) - b
        lo = mp.mpf(1)
        while g(lo) <= 0:
            lo /= 2
        return _bisect(g, lo, mp.mpf(1))


def _tangent_x(p, c):
    """x > 1 with c x G'(x) = 1; exists strictly below the critical density."""
    f = lambda x: c * x * _G_prime(p, x) - 1
    if p == 0:
        hi = 2 / c
    else:
        hi = 1 + (1 / p - 1) * (1 - mp.mpf(10) ** -40)
    return _bisect(f, mp.mpf(1), hi)


def alpha(p, c):
    """Subcritical constant and root: (alpha, y, z0).

    y solves E[c|C| e^(c|C|y)] = 1, i.e. c x G'(x) = 1 at x = e^(c y);
    1/alpha = c (1 + y - G(x)) and z0 = e^(1/alpha).  At p = 0 this is
    1/alpha = c - 1 - log c.
    """
    with mp.workdps(DPS):
        p, c = mp.mpf(p), mp.mpf(c)
        x = _tangent_x(p, c)
        y = mp.log(x) / c
        inv_alpha = c * (1 + y - _G(p, x))
        return 1 / inv_alpha, y, mp.exp(inv_alpha)


def generating_series(p, c, z):
    """A(z): the smallest root of kappa A = G(z e^(c (kappa A - 1))),
    kappa = E 1/|C| = 1 - p, for 1 < z < z0."""
    with mp.workdps(DPS):
        p, c, z = mp.mpf(p), mp.mpf(c), mp.mpf(z)
        x = _tangent_x(p, c)
        u_tangent = 1 + mp.log(x / z) / c
        u = _bisect(lambda u: _G(p, z * mp.exp(c * (u - 1))) - u, mp.mpf(1), u_tangent)
        return u / (1 - p)


def build():
    """Every reference the d=1 workloads gate on, as plain floats."""
    points = []
    for p in P_VALUES:
        ccr = c_critical(p)
        for side in (-1, 1):
            for delta in DELTAS:
                c = ccr * (1.0 + side * delta)
                point = {"p": p, "side": side, "delta": delta, "c": c,
                         "c_cr": ccr, "band": delta <= BAND}
                if side > 0:
                    point["phase"] = "supercritical"
                    point["beta"] = float(beta(p, c))
                else:
                    a, y, z0 = alpha(p, c)
                    z_mid = float((1 + z0) / 2)
                    point.update(phase="subcritical", alpha=float(a), y_root=float(y),
                                 z0=float(z0), z_mid=z_mid, z_out=float(1.1 * z0),
                                 A_mid=float(generating_series(p, c, z_mid)))
                points.append(point)
    line_beta = float(beta(LINE_P, MERGE_C))
    survival = []
    for k, c in SURVIVAL_CASES:
        super_ = c > c_critical(LINE_P)
        rho = float(1 - mp.exp(-c * beta(LINE_P, c) * k)) if super_ else 0.0
        survival.append({"k": k, "c": c, "p": LINE_P,
                         "case": "super" if super_ else "sub", "rho": rho})
    return {
        "generator": "python3 bench/reference.py",
        "mpmath": mp.__version__,
        "dps": DPS,
        "merge": {"p": LINE_P, "c": MERGE_C, "beta": line_beta},
        "points": points,
        "survival": survival,
    }


def load():
    with open(REFS_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    with open(REFS_PATH, "w") as fh:
        json.dump(build(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFS_PATH}")
