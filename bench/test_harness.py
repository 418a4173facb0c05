"""Tests of the benchmark harness's own arithmetic.

    python3 -m pytest bench

Covers span self time, per-layer aggregation, operation counting and
fail_frac, the mpmath references against the values quoted in the
package README, and the agreement of BENCHMARK.json with the code.
"""

import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_children_and_not_grandchildren():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 6.0, 7.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0), Span("a", 1.0, 5.0, parent=0),
             Span("b", 3.0, 6.0, parent=0), Span("c", 9.0, 12.0, parent=0)]
    # children cover [1, 6] and [9, 10] of the root
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_parents_errors_and_counts():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(x):
        clock.advance(2.0)
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap(leaf, "leaf", counts=lambda a, k, r: {"value": r})

    def outer():
        clock.advance(1.0)
        traced_leaf(3)
        with pytest.raises(ValueError):
            traced_leaf(-1)
        clock.advance(0.5)

    tracer.wrap(outer, "outer")()
    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [("outer", None, None), ("leaf", 0, None), ("leaf", 0, "ValueError")]
    assert tracer.spans[1].attrs == {"value": 3}
    assert tracer.spans[2].attrs == {}
    assert self_times(tracer.spans) == pytest.approx([1.5, 2.0, 2.0])


def test_patch_and_unpatch_restore_module_attribute():
    import percograph.theory as theory

    original = theory.solve_beta
    tracer = Tracer()
    tracer.patch([("percograph.theory", "solve_beta", "theory.solve_beta", None)])
    assert theory.solve_beta is not original
    tracer.unpatch()
    assert theory.solve_beta is original


# -- per-layer aggregation ---------------------------------------------------

def test_component_labels_split_by_caller_and_divided_per_unit():
    label = "components.component_labels"
    spans = [
        Span("lattice.sample_percolation", 0.0, 2.0, attrs={"sites": 100}),
        Span(label, 0.5, 1.5, parent=0, attrs={"edges": 40}),
        Span("merged.overlay_long_range", 2.0, 5.0, attrs={"long_edges": 50}),
        Span(label, 3.0, 5.0, parent=2, attrs={"edges": 90}),
    ]
    out = layers.layer_metrics(spans, units=2, overhead_frac=0.01)
    assert out[f"{label}.bond.s"] == pytest.approx(0.5)
    assert out[f"{label}.bond.edges"] == pytest.approx(20)
    assert out[f"{label}.bond.edges_per_s"] == pytest.approx(40.0)
    assert out[f"{label}.overlay.calls"] == pytest.approx(0.5)
    assert out[f"{label}.overlay.edges_per_s"] == pytest.approx(45.0)
    assert out[f"{label}.macro.calls"] == 0.0
    assert out["lattice.sample_percolation.self_s"] == pytest.approx(0.5)
    assert out["merged.overlay_long_range.self_s"] == pytest.approx(0.5)
    assert out["lattice.sites"] == pytest.approx(50)
    assert out["merged.long_edges"] == pytest.approx(25)
    assert out["trace.overhead_frac"] == 0.01
    assert set(out) == {name for name, _, _ in layers.PER_LAYER}


def test_failed_calls_and_branching_cases():
    spans = [
        Span("theory.theory_point", 0.0, 1.0),
        Span("theory.solve_beta", 0.0, 1.0, parent=0, error="ConvergenceError"),
        Span("branching.estimate_survival", 1.0, 3.0,
             attrs={"case": "super", "reps": 100, "survived": 40, "ambiguous": 1}),
        Span("branching.estimate_survival", 3.0, 3.5,
             attrs={"case": "sub", "reps": 100, "survived": 0, "ambiguous": 0}),
    ]
    out = layers.layer_metrics(spans, units=1, overhead_frac=0.0)
    assert out["theory.solve_beta.failed"] == 1
    assert out["theory.theory_point.failed"] == 0
    assert out["branching.estimate_survival.super.s"] == pytest.approx(2.0)
    assert out["branching.super.survived_frac"] == pytest.approx(0.4)
    assert out["branching.super.ambiguous_frac"] == pytest.approx(0.01)
    assert out["branching.estimate_survival.sub.reps"] == 100
    assert out["branching.sub.survived_frac"] == 0.0


# -- operation counting ------------------------------------------------------

def test_tally_separates_gated_failures_from_band_misses():
    tally = workloads.Tally()
    tally.add(True, "ok")
    tally.add(False, "gated miss")
    tally.add(False, "band miss", band=True)
    tally.add(True, "band ok", band=True)
    assert (tally.attempted, tally.failed, tally.missed) == (4, 1, 1)
    assert tally.notes == ["gated miss"]


def test_summarize_sums_units_and_rates():
    first = workloads.Tally(work={"sites_per_s": [100, 2.0]})
    first.add(False, "bad")
    second = workloads.Tally(work={"sites_per_s": [100, 3.0]})
    second.add(True, "good")
    second.add(False, "band", band=True)
    attempted, failed, missed, notes, figures = run.summarize([(2.0, first), (3.0, second)])
    assert (attempted, failed, missed, notes) == (3, 1, 1, ["bad"])
    assert figures == {"sites_per_s": pytest.approx(40.0)}


class FakeWorkload:
    """Units of about 2 ms; every third one raises."""

    def inputs(self, i):
        return i

    def run(self, i):
        time.sleep(0.002)
        if i % 3 == 2:
            raise RuntimeError("boom")
        return i

    def check(self, i, out, seconds):
        tally = workloads.Tally(work={"units_per_s": [1, seconds]})
        tally.add(True, "")
        return tally


def test_measure_counts_raising_units_and_spreads_probes():
    calls = []
    units, setup = run.measure(FakeWorkload(), 0.05, probe=lambda: calls.append(1) or 1.0)
    attempted, failed, _, notes, _ = run.summarize(units)
    assert attempted == len(units) >= 10
    assert failed == len(units) // 3
    assert notes[0].startswith("unit 2 raised RuntimeError")
    assert setup == [1.0] * run.SETUP_PROBES


def _cell(N, c, c_cr, beta, c1, n_failed=0):
    return {"N": N, "c": c, "n_failed": n_failed, "c1_frac_mean": c1,
            "theory": {"c_cr": c_cr, "beta": beta}}


def _summary():
    cells = []
    for N in (50, 200):
        cells += [_cell(N, 0.05, 0.147, 0.0, 0.01), _cell(N, 0.1, 0.147, 0.0, 0.02),
                  _cell(N, 0.2, 0.147, 0.23, 0.22), _cell(N, 0.4, 0.147, 0.59, 0.58)]
    return {"cells": cells,
            "crossings": [{"N": 50, "c_at_crossing": 0.2, "within_one_step": True},
                          {"N": 200, "c_at_crossing": 0.2, "within_one_step": True}]}


def test_sweep_gate_counts_each_violation():
    gate = workloads.SweepD2Plugin(ROOT, seed=0)._gate
    assert gate(_summary()) == []

    summary = _summary()
    summary["cells"][0]["c1_frac_mean"] = 0.05           # subcritical too large
    summary["cells"][3]["c1_frac_mean"] = 0.5            # |C1/n - beta| = 0.09
    summary["cells"][5]["n_failed"] = 2
    summary["crossings"][1]["within_one_step"] = False
    assert len(gate(summary)) == 4

    summary = _summary()
    summary["cells"] = [c for c in summary["cells"] if c["c"] in (0.1, 0.2)]
    problems = gate(summary)
    assert any("gate covers 0 cells" in p for p in problems)


def test_phase_check_gates_off_band_and_counts_band_misses():
    wl = workloads.PhaseBranchD1(ROOT, seed=0)
    refs = wl.points
    from percograph.errors import ConvergenceError
    from percograph.theory import AzResult, TheoryPoint

    def exact(ref):
        if ref["phase"] == "supercritical":
            return TheoryPoint(c=ref["c"], c_cr=ref["c_cr"], phase=ref["phase"],
                               beta=ref["beta"], beta_prime_cr=1.0)
        return TheoryPoint(c=ref["c"], c_cr=ref["c_cr"], phase=ref["phase"], beta=0.0,
                           beta_prime_cr=1.0, alpha=ref["alpha"], y_root=ref["y_root"],
                           z0=ref["z0"])

    points = [exact(r) for r in refs]
    band = [i for i, r in enumerate(refs) if r["band"]]
    gated = [i for i, r in enumerate(refs) if not r["band"]]
    points[band[0]] = ConvergenceError("cap")
    off = refs[gated[0]]
    assert off["phase"] == "subcritical"
    points[gated[0]] = exact(dict(off, alpha=off["alpha"] * 1.01))
    series = []
    for r in wl.series_points:
        series += [AzResult(True, r["A_mid"], 10, "converged"),
                   AzResult(False, math.nan, 3, "iterates blew up")]

    class Est:
        def __init__(self, rho, se):
            self.rho_hat, self.se, self.ambiguous_frac = rho, se, 0.0

    survival = [Est(case["rho"], 0.01 if case["rho"] else 0.0) for case in wl.cases]
    survival[0] = Est(wl.cases[0]["rho"] + 0.05, 0.01)       # 5 SE away
    out = workloads.PhasePass(points, series, survival, theory_s=1.0, branch_s=2.0)
    tally = wl.check([0] * len(wl.cases), out, 3.0)
    assert tally.attempted == len(refs) + len(series) + len(wl.cases)
    assert (tally.failed, tally.missed) == (2, 1)
    assert tally.work["theory_points_per_s"] == [len(refs), 1.0]


# -- references --------------------------------------------------------------

def test_references_match_the_package_readme():
    assert reference.c_critical(0.3) == pytest.approx(0.538461538462, abs=5e-13)
    # The README prints the package's beta, converged to 1e-10.
    assert float(reference.beta(0.3, 1.0)) == pytest.approx(0.630694627914, abs=2e-10)
    alpha, _, z0 = reference.alpha(0.3, 0.2)
    assert float(alpha) == pytest.approx(7.77455345211, rel=1e-11)
    assert float(z0) == pytest.approx(math.exp(1.0 / float(alpha)), rel=1e-15)


def test_alpha_closed_form_at_p0():
    for c in (0.2, 0.5, 0.999):
        alpha, _, _ = reference.alpha(0.0, c)
        assert float(alpha) == pytest.approx(1.0 / (c - 1.0 - math.log(c)), rel=1e-12)


def test_generating_series_is_a_fixed_point():
    p, c, z = 0.3, 0.2, 1.05
    a = reference.generating_series(p, c, z)
    u = a * (1 - p)
    x = z * math.exp(c * (float(u) - 1.0))
    assert float(u) == pytest.approx((1 - p) ** 2 * x / (1 - p * x) ** 2, rel=1e-12)


def test_committed_references_are_regenerated_exactly():
    assert reference.load() == json.loads(json.dumps(reference.build()))


# -- BENCHMARK.json ------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
