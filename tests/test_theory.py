"""Phase-diagram solvers: critical curve, giant fraction, log-law constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw

from percograph import (
    CRITICAL_BAND,
    beta_derivative_at_cr,
    c_critical,
    exact_d1,
    from_table,
    phase_of,
    point_mass,
    rho_of_type,
    solve_A_z,
    solve_alpha,
    solve_beta,
    theory_point,
)
from percograph.cli import main
from percograph.experiments import estimate_cluster_law, load_config
from percograph.theory import AzResult
from percograph.distributions import LineLaw
from percograph.errors import DomainError
from percograph.fileio import read_csv

# Giant fraction of the pure long-range graph: maximal root of
# beta = 1 - exp(-c * beta), solved independently by scalar bisection.
BETA_PURE = {2.0: 0.7968121300200199, 1.5: 0.5828116438658113}

# Line law at p = 0.3, c = 0.2, solved independently with a scalar
# root finder on the closed-form tail sums.
Y_P03_C02 = 1.684490258856322
ALPHA_P03_C02 = 7.774553452111182
Z0_P03_C02 = 1.137263286894435

# Giant fractions for the line law, from the same independent solver.
BETA_P03_C1 = 0.6306946278185916
BETA_P05_C05 = 0.4410077373604524


def test_critical_curve_closed_form():
    for p in np.linspace(0.05, 0.95, 19):
        assert c_critical(exact_d1(p)) == pytest.approx((1 - p) / (1 + p), abs=1e-12)
    assert c_critical(point_mass(1)) == 1.0
    assert c_critical(from_table([2], [1.0])) == 0.5


def test_phase_classification():
    d = exact_d1(0.3)
    ccr = c_critical(d)
    assert phase_of(d, ccr - 0.01) == "subcritical"
    assert phase_of(d, ccr + 0.01) == "supercritical"
    assert phase_of(d, ccr + 0.5 * CRITICAL_BAND) == "critical"
    assert phase_of(d, ccr - 0.5 * CRITICAL_BAND) == "critical"


@pytest.mark.parametrize("c,expected", sorted(BETA_PURE.items()))
def test_beta_pure_long_range(c, expected):
    beta = solve_beta(point_mass(1), c)
    assert beta == pytest.approx(expected, abs=1e-9)
    # fixed-point residual, checked directly
    assert beta == pytest.approx(1.0 - math.exp(-c * beta), abs=1e-9)


def test_beta_line_law_frozen():
    assert solve_beta(exact_d1(0.3), 1.0) == pytest.approx(BETA_P03_C1, abs=5e-9)
    assert solve_beta(exact_d1(0.5), 0.5) == pytest.approx(BETA_P05_C05, abs=5e-9)


def test_beta_zero_at_and_below_critical():
    d = exact_d1(0.4)
    ccr = c_critical(d)
    assert solve_beta(d, 0.5 * ccr) == 0.0
    assert solve_beta(d, ccr) == 0.0
    assert solve_beta(d, 0.0) == 0.0
    with pytest.raises(DomainError):
        solve_beta(d, -0.2)


def test_beta_monotone_in_c():
    d = exact_d1(0.3)
    betas = [solve_beta(d, c) for c in (0.6, 0.9, 1.4, 2.5)]
    assert all(0 < a < b < 1 for a, b in zip(betas, betas[1:]))


def test_rho_of_type():
    assert rho_of_type(1, 2.0, BETA_PURE[2.0]) == pytest.approx(
        1 - math.exp(-2 * BETA_PURE[2.0]), abs=1e-12)
    vals = rho_of_type(np.array([1, 2, 5]), 1.0, 0.5)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 1))


def test_alpha_pure_long_range_closed_form():
    # for the point-mass law: y = -log(c)/c and alpha = 1/(c - 1 - log c)
    for c in (0.2, 0.5, 0.8):
        sol = solve_alpha(point_mass(1), c)
        assert sol.y_root == pytest.approx(-math.log(c) / c, abs=1e-10)
        assert sol.alpha == pytest.approx(1.0 / (c - 1.0 - math.log(c)), rel=1e-9)
        assert sol.z0 == pytest.approx(math.exp(1.0 / sol.alpha), rel=1e-12)


def test_alpha_line_law_frozen():
    sol = solve_alpha(exact_d1(0.3), 0.2)
    assert sol.y_root == pytest.approx(Y_P03_C02, abs=1e-9)
    assert sol.alpha == pytest.approx(ALPHA_P03_C02, rel=1e-9)
    assert sol.z0 == pytest.approx(Z0_P03_C02, rel=1e-9)


def test_alpha_root_equation_residual():
    d = exact_d1(0.3)
    c = 0.2
    sol = solve_alpha(d, c)
    lhs = d.expect(lambda k: c * k * np.exp(c * sol.y_root * k),
                   growth_rate=c * sol.y_root).value
    assert lhs == pytest.approx(1.0, abs=1e-9)


def test_alpha_rejects_wrong_phase():
    d = exact_d1(0.3)
    ccr = c_critical(d)
    with pytest.raises(DomainError):
        solve_alpha(d, ccr)
    with pytest.raises(DomainError):
        solve_alpha(d, ccr + 0.1)
    with pytest.raises(DomainError):
        solve_alpha(d, 0.0)


def test_alpha_blows_up_near_critical():
    d = exact_d1(0.3)
    ccr = c_critical(d)
    a1 = solve_alpha(d, 0.9 * ccr).alpha
    a2 = solve_alpha(d, 0.99 * ccr).alpha
    assert a2 > a1 > 0


def test_beta_derivative_at_cr():
    assert beta_derivative_at_cr(point_mass(1)) == pytest.approx(2.0, abs=1e-12)
    assert beta_derivative_at_cr(exact_d1(0.5)) == pytest.approx(54.0 / 13.0, rel=1e-12)


def test_beta_derivative_finite_difference():
    for dist, slope in ((point_mass(1), 2.0), (exact_d1(0.5), 54.0 / 13.0)):
        ccr = c_critical(dist)
        eps = 1e-3
        fd = solve_beta(dist, ccr + eps) / eps
        assert abs(fd - slope) / slope < 0.1


def test_series_fixed_point_matches_scalar_iteration():
    # point mass: A = z * exp(c * (A - 1)); iterate with plain floats
    c, z = 0.5, 1.1
    a = 1.0
    for _ in range(100000):
        nxt = z * math.exp(c * (a - 1.0))
        if abs(nxt - a) < 1e-13:
            break
        a = nxt
    res = solve_A_z(point_mass(1), c, z)
    assert res.converged
    assert res.value == pytest.approx(a, abs=1e-7)


def test_series_converges_iff_z_below_radius():
    c = 0.5
    z0 = 2.0 * math.exp(-0.5)  # radius for the point-mass law at c = 1/2
    assert solve_A_z(point_mass(1), c, 0.98 * z0).converged
    div = solve_A_z(point_mass(1), c, 1.05 * z0)
    assert not div.converged
    assert div.reason == "beyond the convergence radius"

    d = exact_d1(0.3)
    sol = solve_alpha(d, 0.2)
    assert solve_A_z(d, 0.2, 0.95 * sol.z0).converged
    assert not solve_A_z(d, 0.2, 1.1 * sol.z0).converged


def test_series_at_z_one():
    # A(1) = 1/kappa: the mean number of sites per cluster
    d = exact_d1(0.4)
    res = solve_A_z(d, 0.3, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0 / d.mean_inverse_size, rel=1e-9)


def test_series_rejects_z_outside_tail_domain():
    d = exact_d1(0.5)  # e^zeta = 2
    with pytest.raises(DomainError):
        solve_A_z(d, 0.2, 2.0)
    with pytest.raises(DomainError):
        solve_A_z(d, 0.2, 2.5)
    with pytest.raises(DomainError):
        solve_A_z(d, 0.2, -1.0)
    assert solve_A_z(d, 0.2, 1.9).converged in (True, False)  # inside domain


def test_series_on_a_plug_in_table_is_finite_for_every_z():
    # criterion 12's d = 2 plug-in law: a finite table, so E z^|C| is finite
    # for every z > 0.  A straight-line fit of -log P{|C| = k} over its top
    # decade of sizes puts e^slope near 1.088; z = 1.1 lies past it.
    cfg = load_config({"d": 2, "N": 200, "p": 0.3, "c": 0.0, "replicates": 10,
                       "base_seed": 20260817, "estimation_replicates": 8})
    law = estimate_cluster_law(cfg, 0.3, 200)
    assert math.isinf(law.divergence_rate)
    z = 1.1
    free = solve_A_z(law, 0.0, z)
    assert free.converged
    direct = float(np.sum(law.probs * z ** law.ks.astype(float)))
    assert free.value == pytest.approx(direct / law.mean_inverse_size, rel=1e-12)
    c = 0.5 * c_critical(law)
    sub = solve_A_z(law, c, z)
    assert isinstance(sub, AzResult)
    assert not sub.converged  # z is past this density's radius z0
    assert z > solve_alpha(law, c).z0


def test_theory_point_fields():
    d = exact_d1(0.3)
    sub = theory_point(d, 0.2, d=1, p=0.3)
    assert sub.phase == "subcritical"
    assert sub.beta == 0.0
    assert sub.alpha == pytest.approx(ALPHA_P03_C02, rel=1e-9)
    assert sub.d == 1 and sub.p == 0.3
    sup = theory_point(d, 1.0)
    assert sup.phase == "supercritical"
    assert sup.alpha is None and sup.y_root is None and sup.z0 is None
    assert sup.beta == pytest.approx(BETA_P03_C1, abs=5e-9)
    crit = theory_point(d, c_critical(d))
    assert crit.phase == "critical"
    assert crit.beta == 0.0
    free = theory_point(d, 0.0)
    assert free.alpha is None  # no long-range edges: no log law to report


def test_theory_points_csv(tmp_path):
    target = tmp_path / "points.csv"
    code = main(["theory", "--d1-exact", "--p", "0.3", "--c", "0.1", "1.0",
                 "--output", str(target)])
    assert code == 0
    with open(target) as fh:
        comments, columns, rows = read_csv(fh)
    assert any("theory-points" in line for line in comments)
    assert columns[:4] == ["d", "p", "c", "c_cr"]
    assert len(rows) == 2
    assert float(rows[1][5]) == pytest.approx(BETA_P03_C1, abs=1e-6)


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("solve", [
    lambda c: solve_beta(exact_d1(0.3), c),
    lambda c: solve_alpha(exact_d1(0.3), c),
    lambda c: solve_A_z(exact_d1(0.3), c, 1.0),
    lambda c: phase_of(exact_d1(0.3), c),
], ids=["beta", "alpha", "A_z", "phase_of"])
def test_solvers_reject_unusable_density(solve, c):
    with pytest.raises(DomainError, match="density"):
        solve(c)


# -- properties against closed forms ------------------------------------------

@st.composite
def laws(draw):
    """The line law, a point mass, or a small table."""
    kind = draw(st.sampled_from(["line", "point", "table"]))
    if kind == "line":
        return exact_d1(draw(st.floats(0.0, 0.9)))
    if kind == "point":
        return point_mass(draw(st.integers(1, 5)))
    ks = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True)))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(ks),
                                     max_size=len(ks))))
    return from_table(ks, weights / weights.sum())


def _pgf(law, x):
    """E x^|C|: (1-p)^2 x / (1 - p x)^2 on the line, a finite sum for a table."""
    if isinstance(law, LineLaw):
        return (1.0 - law.p) ** 2 * x / (1.0 - law.p * x) ** 2
    return float(np.sum(law.probs * x ** law.ks.astype(float)))


@given(c=st.floats(1.01, 30.0))
@settings(max_examples=60, deadline=None)
def test_beta_at_p0_is_the_lambert_w_closed_form(c):
    closed = 1.0 + lambertw(-c * math.exp(-c)).real / c
    assert solve_beta(exact_d1(0.0), c) == pytest.approx(closed, rel=1e-10)


@given(c=st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_alpha_at_p0_is_the_closed_form(c):
    assert 1.0 / solve_alpha(exact_d1(0.0), c).alpha == pytest.approx(
        c - 1.0 - math.log(c), rel=1e-9)


@given(law=laws())
@settings(max_examples=60, deadline=None)
def test_critical_scaling_of_beta_and_alpha(law):
    # one part in 1e6 from c_cr; the corrections are of relative order 1e-6
    m1, m2 = law.mean_size, law.second_moment
    ccr = c_critical(law)
    delta = 1e-6
    c_up, c_down = ccr * (1.0 + delta), ccr * (1.0 - delta)
    assert solve_beta(law, c_up) / (c_up - ccr) == pytest.approx(2.0 * m1**3 / m2, rel=1e-4)
    assert solve_alpha(law, c_down).alpha * (ccr - c_down) ** 2 == pytest.approx(
        2.0 * m2 / m1**3, rel=1e-4)


@given(law=laws(), ratio=st.floats(1.05, 5.0), z=st.floats(0.5, 1.0))
@settings(max_examples=60, deadline=None)
def test_supercritical_series_is_a_root_below_one_over_kappa(law, ratio, z):
    c = ratio * c_critical(law)
    kappa = law.mean_inverse_size
    res = solve_A_z(law, c, z)
    assert res.converged
    assert 0.0 < res.value < 1.0 / kappa
    x = z * math.exp(c * (kappa * res.value - 1.0))
    assert _pgf(law, x) / kappa == pytest.approx(res.value, rel=1e-10)
