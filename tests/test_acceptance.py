"""Acceptance criteria for the merged-graph toolkit.

Twelve end-to-end checks, each printing one PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Monte Carlo
criteria use fixed seeds, so every run is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from percograph import (
    build_geometry,
    c_critical,
    estimate_survival,
    exact_d1,
    load_config,
    origin_cluster_size,
    overlay_long_range,
    point_mass,
    rho_of_type,
    run_cell,
    sample_percolation,
    solve_A_z,
    solve_alpha,
    solve_beta,
    sweep,
    verify_correspondence,
)
from percograph.experiments import estimate_cluster_law

BASE_SEED = 20260817

# Giant fraction of the pure long-range graph at c=2: maximal root of
# beta = 1 - exp(-2 beta), solved independently by scalar bisection.
BETA_PURE_C2 = 0.7968121300200199


def _report(num, name, passed, detail, t0):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num:02d} ({name}): {detail} "
          f"[{time.perf_counter() - t0:.1f}s]")


def test_criterion_01_critical_curve_d1():
    t0 = time.perf_counter()
    worst = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        dev = abs(c_critical(exact_d1(p)) - (1 - p) / (1 + p))
        worst = max(worst, dev)
    passed = worst <= 1e-10
    _report(1, "critical curve d=1", passed, f"max deviation {worst:.3g}", t0)
    assert passed


def test_criterion_02_alpha_p0_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (0.2, 0.5, 0.8):
        closed = 1.0 / (c - 1.0 + abs(math.log(c)))
        dev = abs(solve_alpha(point_mass(1), c).alpha - closed)
        worst = max(worst, dev)
    passed = worst <= 1e-9
    _report(2, "alpha at p=0", passed, f"max deviation {worst:.3g}", t0)
    assert passed


def test_criterion_03_giant_fraction_d1():
    t0 = time.perf_counter()
    cfg = load_config({"d": 1, "N": 100_000, "p": 0.3, "c": 1.0,
                       "replicates": 20, "base_seed": BASE_SEED})
    cell = run_cell(cfg, 0.3, 1.0)
    beta = solve_beta(exact_d1(0.3), 1.0)
    dev = abs(cell.mean("c1_frac") - beta)
    passed = dev <= 0.01
    _report(3, "giant fraction d=1", passed,
            f"|{cell.mean('c1_frac'):.6f} - {beta:.6f}| = {dev:.2g}", t0)
    assert passed


def test_criterion_04_pure_long_range_cross_check():
    t0 = time.perf_counter()
    cfg = load_config({"d": 1, "N": 50_000, "p": 0.0, "c": 2.0,
                       "replicates": 20, "base_seed": BASE_SEED})
    cell = run_cell(cfg, 0.0, 2.0)
    dev = abs(cell.mean("c1_frac") - BETA_PURE_C2)
    passed = dev <= 0.01
    _report(4, "pure long-range giant", passed,
            f"|{cell.mean('c1_frac'):.6f} - {BETA_PURE_C2:.6f}| = {dev:.2g}", t0)
    assert passed


def test_criterion_05_cluster_density():
    t0 = time.perf_counter()
    devs = {}
    for p in (0.2, 0.5):
        cfg = load_config({"d": 1, "N": 100_000, "p": p, "c": 0.0,
                           "replicates": 20, "base_seed": BASE_SEED})
        cell = run_cell(cfg, p, 0.0)
        devs[p] = abs(cell.mean("k_frac") - (1 - p))
    passed = all(dev <= 0.005 for dev in devs.values())
    detail = ", ".join(f"p={p}: {dev:.2g}" for p, dev in devs.items())
    _report(5, "cluster density kappa", passed, detail, t0)
    assert passed


def test_criterion_06_origin_cluster_law():
    t0 = time.perf_counter()
    geom = build_geometry(1, 10_000, "torus")
    reps = 10_000
    sizes = np.array([
        origin_cluster_size(sample_percolation(geom, 0.5, BASE_SEED + i))
        for i in range(reps)
    ])
    dist = exact_d1(0.5)
    bad = []
    for k in range(1, 11):
        frac = float(np.mean(sizes == k))
        se = math.sqrt(max(frac * (1 - frac), 1e-12) / reps)
        dev = abs(frac - float(dist.pmf(k)))
        if dev > 3 * se:
            bad.append((k, dev, se))
    passed = not bad
    _report(6, "origin cluster law", passed,
            "all k <= 10 within 3 SE" if passed else f"outside 3 SE: {bad}", t0)
    assert passed, bad


def _merged_component_law(p, c, j_max=400):
    """P(T = j), j = 1..j_max, for the merged component T of one vertex in
    the d=1 model as n -> infinity, computed without the package.

    By the hitting-time theorem over lattice clusters, T = j is reached
    through m clusters with probability (1/m) Poisson(cj; m-1) P(S_m = j).
    S_m, the size of m size-biased line clusters, is m plus 2m
    Geometric(p) arms: P(S_m = j) = C(j+m-1, j-m) (1-p)^(2m) p^(j-m).
    """
    j = np.arange(1, j_max + 1, dtype=float)[:, None]
    m = j.T
    r = np.maximum(j - m, 0.0)
    log_s = (gammaln(j + m) - gammaln(r + 1) - gammaln(2 * m)
             + 2 * m * math.log1p(-p) + xlogy(r, p))
    log_pois = -c * j + xlogy(m - 1, c * j) - gammaln(m)
    terms = np.where(j >= m, np.exp(log_s + log_pois) / m, 0.0)
    return terms.sum(axis=1)


def _c1_mean_sd(pmf, n):
    """Mean and sd of C1 under the Poisson law of large components:
    P(C1 < k) = exp(-n sum_{j>=k} P(T=j)/j)."""
    j = np.arange(1, pmf.size + 1, dtype=float)
    tail = np.cumsum((pmf / j)[::-1])[::-1]
    at_least = -np.expm1(-n * tail)              # P(C1 >= k)
    mean = float(at_least.sum())
    second = float(((2 * j - 1) * at_least).sum())
    return mean, math.sqrt(second - mean ** 2)


def test_criterion_07_subcritical_scaling():
    # C1/log n rises toward alpha from below (at p=0, C1 = alpha (log n -
    # 2.5 log log n) + O_p(1)), so its 95th percentile is not monotone in
    # N; instead the mean of C1 is held to its predicted law at every N.
    t0 = time.perf_counter()
    bound_ok = True
    law_ok = True
    details = []
    for p, c in ((0.0, 0.5), (0.3, 0.2)):
        cfg = load_config({"d": 1, "N": [1_000, 10_000, 100_000], "p": p,
                           "c": c, "replicates": 50, "base_seed": BASE_SEED})
        cells = sweep(cfg).cells
        assert all(cell.theory.phase == "subcritical" for cell in cells)
        bound = 1.5 * cells[0].theory.alpha
        p95s = [cell.percentile("c1_over_logn", 95) for cell in cells]
        bound_ok &= all(p95 <= bound for p95 in p95s)

        pmf = _merged_component_law(p, c)
        j = np.arange(1, pmf.size + 1)
        if p == 0.0:
            borel = np.exp(-c * j + (j - 1) * np.log(c * j) - gammaln(j + 1))
            assert np.abs(pmf - borel).max() <= 1e-12
        m1 = (1 + p) / (1 - p)
        assert abs(pmf.sum() - 1.0) <= 1e-12
        assert math.isclose((j * pmf).sum(), m1 / (1 - c * m1), rel_tol=1e-12)

        seq = ", ".join(f"{p95:.4f}" for p95 in p95s)
        means = []
        for cell in cells:
            n = 2 * cell.N + 1
            c1 = np.rint(cell.samples["c1_frac"] * n)
            pred, sd = _c1_mean_sd(pmf, n)
            z = (c1.mean() - pred) / (sd / math.sqrt(c1.size))
            law_ok &= abs(z) <= 3.0
            means.append(f"N={cell.N}: {c1.mean():.2f}/{pred:.2f} z={z:+.2f}")
        details.append(f"(p={p}, c={c}): p95/bound={bound:.3f} "
                       f"seq=[{seq}] mean C1 obs/pred [{', '.join(means)}]")
    passed = bound_ok and law_ok
    _report(7, "subcritical scaling", passed,
            f"bound {'ok' if bound_ok else 'VIOLATED'}, "
            f"C1 law {'ok' if law_ok else 'VIOLATED'} (3 SE); "
            + "; ".join(details), t0)
    assert bound_ok, details
    assert law_ok, details


def test_criterion_08_second_order_transition():
    t0 = time.perf_counter()
    h = 1e-3
    devs = {}
    for tag, dist, slope in (("p0", point_mass(1), 2.0),
                             ("d1", exact_d1(0.5), 54.0 / 13.0)):
        fd = solve_beta(dist, c_critical(dist) + h) / h
        devs[tag] = abs(fd - slope) / slope
    passed = all(rel <= 0.10 for rel in devs.values())
    detail = ", ".join(f"{tag}: rel dev {rel:.3f}" for tag, rel in devs.items())
    _report(8, "second-order transition", passed, detail, t0)
    assert passed


def test_criterion_09_branching_graph_consistency():
    t0 = time.perf_counter()
    dist = exact_d1(0.3)
    c = 1.0
    beta = solve_beta(dist, c)
    bad = []
    # the particle cap is plain run-length economy: supercritical runs
    # explode through it while late deaths stay rare (ambiguous_frac)
    for k in (1, 2, 5):
        est = estimate_survival(k, c, dist, reps=10_000, seed=BASE_SEED,
                                max_particles=20_000)
        rho = float(rho_of_type(k, c, beta))
        dev = abs(est.rho_hat - rho)
        if dev > 3 * max(est.se, 1e-12) or est.ambiguous_frac > est.se:
            bad.append((k, dev, est.se, est.ambiguous_frac))
    passed = not bad
    _report(9, "branching consistency", passed,
            "k in {1,2,5} within 3 SE" if passed else f"outside 3 SE: {bad}", t0)
    assert passed, bad


def test_criterion_10_macro_correspondence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(BASE_SEED)
    failures = []
    for i in range(100):
        d = int(rng.integers(1, 3))
        N = int(rng.integers(50, 400)) if d == 1 else int(rng.integers(4, 20))
        p = float(rng.uniform(0.05, 0.9))
        c = float(rng.uniform(0.0, 2.0))
        boundary = "torus" if rng.random() < 0.5 else "free"
        base = sample_percolation(build_geometry(d, N, boundary), p, i)
        merged = overlay_long_range(base, c, i + 1)
        ok, report = verify_correspondence(merged)
        if not ok:
            failures.append((d, N, p, c, report))
    passed = not failures
    _report(10, "macro correspondence", passed,
            "100/100 instances exact" if passed else f"failed: {failures[:3]}", t0)
    assert passed, failures


def test_criterion_11_series_radius():
    t0 = time.perf_counter()
    sol = solve_alpha(exact_d1(0.3), 0.2)
    mid = solve_A_z(exact_d1(0.3), 0.2, (1.0 + sol.z0) / 2.0)
    past = solve_A_z(exact_d1(0.3), 0.2, 1.1 * sol.z0)
    dev = abs(sol.alpha - 1.0 / math.log(sol.z0))
    passed = mid.converged and not past.converged and dev <= 1e-9
    _report(11, "generating-series radius", passed,
            f"converged at (1+z0)/2: {mid.converged}, diverged at 1.1 z0: "
            f"{not past.converged}, |alpha - 1/log z0| = {dev:.2g}", t0)
    assert passed


def test_criterion_12_d2_plugin_pipeline():
    t0 = time.perf_counter()
    cfg = load_config({"d": 2, "N": 200, "p": 0.3, "c": 0.0,
                       "replicates": 10, "base_seed": BASE_SEED,
                       "estimation_replicates": 8})
    plug_in = estimate_cluster_law(cfg, 0.3, 200)
    c_hat = c_critical(plug_in)
    lo = run_cell(cfg, 0.3, 0.5 * c_hat, N=200, dist=plug_in)
    hi = run_cell(cfg, 0.3, 1.5 * c_hat, N=200, dist=plug_in)
    sub_frac = lo.mean("c1_frac")
    sup_frac = hi.mean("c1_frac")
    passed = sub_frac < 0.02 and sup_frac > 0.05
    _report(12, "d=2 plug-in pipeline", passed,
            f"c_cr_hat={c_hat:.4f}, giant frac {sub_frac:.4f} below / "
            f"{sup_frac:.4f} above", t0)
    assert passed


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
