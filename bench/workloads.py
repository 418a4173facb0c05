"""The benchmark workloads.

Each workload is a closed loop of identical units run by one client in
one process.  Unit i gets seeds derived from (workload, --seed, i), so
no result can be reused between units.  Per unit:

    inputs(i)               the unit's inputs               (not timed)
    run(inputs)             the calls into percograph       (timed)
    check(inputs, out, s)   gates on the outputs -> Tally   (not timed)

Gates compare against references that do not come from the code under
test: mpmath values in refs_d1.json, binomial moments, or agreement of
two independent routes (simulation against the solved theory).
"""

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from percograph import branching, cli, distributions, lattice, merged, theory
from percograph.errors import ConvergenceError, DomainError

REFS_PATH = Path(__file__).resolve().parent / "refs_d1.json"


def unit_seed(*key):
    """64-bit seed from a key such as (workload, seed, unit index)."""
    digest = hashlib.blake2b(":".join(map(str, key)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def load_refs():
    with open(REFS_PATH) as fh:
        return json.load(fh)


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)


@dataclass
class Tally:
    """Operations of one unit against their gates.

    ``failed`` counts gated operations outside their gate.  ``missed``
    counts operations in phase_branch_d1's near-critical band that miss
    their gate: known solver defects that are measured (ok_frac) but not
    gated.  ``work`` maps a figure name to [count, seconds].
    """

    attempted: int = 0
    failed: int = 0
    missed: int = 0
    notes: list = field(default_factory=list)
    work: dict = field(default_factory=dict)

    def add(self, ok, what, band=False):
        self.attempted += 1
        if ok:
            return
        if band:
            self.missed += 1
        else:
            self.failed += 1
            self.notes.append(what)


class MergeD1Giant:
    """`percograph merge --verify` at n = 1 000 001 sites: one giant
    component; the long-range layer does most of the work."""

    name = "merge_d1_giant"
    d, N, p, c = 1, 500_000, 0.3, 1.0
    beta_atol = 0.01
    edge_sigmas = 6.0

    def __init__(self, root, seed):
        self.seed = seed
        self.beta = load_refs()["merge"]["beta"]

    def prepare(self):
        self.geometry = lattice.build_geometry(self.d, self.N, "torus")
        small = lattice.build_geometry(self.d, 1000, "torus")
        self._sample(small, unit_seed(self.name, self.seed, "warm-up"))

    def close(self):
        pass

    def _sample(self, geometry, seed):
        base = lattice.sample_percolation(geometry, self.p, seed)
        graph = merged.overlay_long_range(base, self.c, seed)
        macro = merged.build_macro_graph(graph)
        ok, report = merged.verify_correspondence(graph, macro)
        return graph, ok, report

    def inputs(self, i):
        return unit_seed(self.name, self.seed, i)

    def run(self, seed):
        return self._sample(self.geometry, seed)

    def check(self, seed, out, seconds):
        graph, ok, report = out
        n = self.geometry.n_vertices
        q = self.c / n
        pairs = n * (n - 1) // 2
        mean, sd = pairs * q, math.sqrt(pairs * q * (1.0 - q))
        c1_frac = graph.largest / n
        problems = []
        if not ok:
            problems.append(f"correspondence: {report}")
        if abs(c1_frac - self.beta) > self.beta_atol:
            problems.append(f"C1/n = {c1_frac:.6f}, beta = {self.beta:.6f}")
        if abs(graph.n_long_edges - mean) > self.edge_sigmas * sd:
            problems.append(f"{graph.n_long_edges} long edges, mean {mean:.0f} sd {sd:.0f}")
        tally = Tally(work={"sites_per_s": [n, seconds]})
        tally.add(not problems, f"seed {seed}: " + "; ".join(problems))
        return tally


class SweepD2Plugin:
    """`percograph experiment` in d=2 with the plug-in law; the c grid
    straddles c_cr_hat ~ 0.147.  Many small clusters, no closed form."""

    name = "sweep_d2_plugin"
    config = {"d": 2, "N": [50, 200], "boundary": "torus", "p": 0.3,
              "c": [0.05, 0.1, 0.2, 0.4], "replicates": 16,
              "estimation_replicates": 8, "threads": 1}
    beta_atol = 0.03
    subcritical_c1_max = 0.02

    def __init__(self, root, seed):
        self.seed = seed
        self.workdir = root / ".bench_out" / f"work-{os.getpid()}"
        cfg = self.config
        per_slice = len(cfg["c"]) * cfg["replicates"] + cfg["estimation_replicates"]
        self.sites = sum(per_slice * (2 * N + 1) ** cfg["d"] for N in cfg["N"])

    def prepare(self):
        warm = dict(self.config, N=[5], c=[0.05, 0.4], replicates=2, estimation_replicates=2)
        unit_dir = self._write(warm, "warm-up")
        self.run(unit_dir)
        shutil.rmtree(unit_dir)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _write(self, config, tag):
        unit_dir = self.workdir / f"unit-{tag}"
        unit_dir.mkdir(parents=True)
        config = dict(config, base_seed=unit_seed(self.name, self.seed, tag))
        with open(unit_dir / "config.json", "w") as fh:
            json.dump(config, fh)
        return unit_dir

    def inputs(self, i):
        return self._write(self.config, i)

    def run(self, unit_dir):
        return cli.main(["experiment", "--config", str(unit_dir / "config.json"),
                         "--out-dir", str(unit_dir / "out")])

    def check(self, unit_dir, code, seconds):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            with open(unit_dir / "out" / "summary.json") as fh:
                summary = json.load(fh)
            problems += self._gate(summary)
        shutil.rmtree(unit_dir)
        tally = Tally(work={"sites_per_s": [self.sites, seconds]})
        tally.add(not problems, f"{unit_dir.name}: " + "; ".join(problems))
        return tally

    def _gate(self, summary):
        problems = []
        cells = summary["cells"]
        if len(cells) != len(self.config["N"]) * len(self.config["c"]):
            problems.append(f"{len(cells)} cells")
        above = below = 0
        for cell in cells:
            where = f"N={cell['N']} c={cell['c']}"
            c_cr = cell["theory"]["c_cr"]
            if cell["n_failed"]:
                problems.append(f"{where}: {cell['n_failed']} replicates failed")
            if cell["c"] >= 2.0 * c_cr:
                above += 1
                gap = abs(cell["c1_frac_mean"] - cell["theory"]["beta"])
                if gap > self.beta_atol:
                    problems.append(f"{where}: |C1/n - beta| = {gap:.4f}")
            if cell["c"] <= 0.5 * c_cr:
                below += 1
                if cell["c1_frac_mean"] > self.subcritical_c1_max:
                    problems.append(f"{where}: C1/n = {cell['c1_frac_mean']:.4f}")
        if not above or not below:
            problems.append(f"gate covers {above} cells above 2 c_cr, {below} below c_cr/2")
        for cross in summary["crossings"]:
            if not cross["within_one_step"]:
                problems.append(f"N={cross['N']}: crossing at {cross['c_at_crossing']}")
        return problems


@dataclass
class PhasePass:
    points: list
    series: list
    survival: list
    theory_s: float
    branch_s: float


class PhaseBranchD1:
    """The solvers and the branching sampler on the exact line law:
    42 phase-diagram points down to 1e-6 from c_cr on both sides, A(z)
    inside and outside its radius at 9 subcritical points, and four
    survival estimates."""

    name = "phase_branch_d1"
    rel_tol = 1e-6
    se_gate = 4.0
    reps = 2000
    max_particles = 20_000

    def __init__(self, root, seed):
        self.seed = seed
        refs = load_refs()
        self.points = refs["points"]
        # A(z) only off the band: there its fixed-point iteration takes
        # up to 7 s a call at the seed, and the work must not depend on
        # which points the solvers return.
        self.series_points = [r for r in self.points
                              if r["phase"] == "subcritical" and not r["band"]]
        self.cases = refs["survival"]

    def prepare(self):
        self.laws = {p: distributions.exact_d1(p) for p in sorted({r["p"] for r in self.points})}
        law = self.laws[self.cases[0]["p"]]
        theory.theory_point(law, 0.2)
        theory.solve_A_z(law, 0.2, 1.01)
        branching.estimate_survival(1, 1.0, law, reps=20, max_particles=self.max_particles,
                                    seed=unit_seed(self.name, self.seed, "warm-up"))

    def close(self):
        pass

    @staticmethod
    def _attempt(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConvergenceError, DomainError) as exc:
            return exc

    def inputs(self, i):
        return [unit_seed(self.name, self.seed, i, j) for j in range(len(self.cases))]

    def run(self, seeds):
        t0 = time.perf_counter()
        points = [self._attempt(theory.theory_point, self.laws[r["p"]], r["c"], p=r["p"])
                  for r in self.points]
        t1 = time.perf_counter()
        series = [self._attempt(theory.solve_A_z, self.laws[r["p"]], r["c"], z)
                  for r in self.series_points for z in (r["z_mid"], r["z_out"])]
        t2 = time.perf_counter()
        survival = [branching.estimate_survival(case["k"], case["c"], self.laws[case["p"]],
                                                reps=self.reps, seed=seed,
                                                max_particles=self.max_particles)
                    for case, seed in zip(self.cases, seeds)]
        return PhasePass(points, series, survival, t1 - t0, time.perf_counter() - t2)

    def _point_ok(self, ref, got):
        if isinstance(got, Exception) or got.phase != ref["phase"]:
            return False
        if rel_err(got.c_cr, ref["c_cr"]) > self.rel_tol:
            return False
        if ref["phase"] == "supercritical":
            return got.alpha is None and rel_err(got.beta, ref["beta"]) <= self.rel_tol
        return (got.beta == 0.0 and rel_err(got.alpha, ref["alpha"]) <= self.rel_tol
                and rel_err(got.y_root, ref["y_root"]) <= self.rel_tol)

    def check(self, seeds, out, seconds):
        tally = Tally(work={"theory_points_per_s": [len(out.points), out.theory_s],
                            "branch_reps_per_s": [self.reps * len(self.cases), out.branch_s]})
        for ref, got in zip(self.points, out.points):
            tally.add(self._point_ok(ref, got),
                      f"theory_point p={ref['p']} c={ref['c']!r}: {got!r}", ref["band"])
        inside = out.series[0::2]
        outside = out.series[1::2]
        for ref, mid, beyond in zip(self.series_points, inside, outside):
            mid_ok = (not isinstance(mid, Exception) and mid.converged
                      and rel_err(mid.value, ref["A_mid"]) <= self.rel_tol)
            tally.add(mid_ok, f"solve_A_z p={ref['p']} c={ref['c']!r} z={ref['z_mid']!r}: {mid!r}")
            beyond_ok = isinstance(beyond, Exception) or not beyond.converged
            tally.add(beyond_ok, f"solve_A_z p={ref['p']} c={ref['c']!r} z={ref['z_out']!r} "
                      "converged past the radius")
        for case, est, seed in zip(self.cases, out.survival, seeds):
            ok = (abs(est.rho_hat - case["rho"]) <= self.se_gate * est.se
                  and est.ambiguous_frac <= est.se)
            tally.add(ok, f"estimate_survival k={case['k']} c={case['c']} seed {seed}: "
                      f"rho_hat {est.rho_hat} se {est.se} ambiguous {est.ambiguous_frac}, "
                      f"rho {case['rho']}")
        return tally


WORKLOADS = {w.name: w for w in (MergeD1Giant, SweepD2Plugin, PhaseBranchD1)}
