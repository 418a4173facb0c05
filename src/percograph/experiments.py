"""Monte Carlo experiment cells, sweeps, and their acceptance checks.

An experiment is a grid of cells over (N, p, c).  Every replicate gets
derived seeds keyed by the actual parameter values (not their positions
in the grid), so enlarging a grid never perturbs the draws of cells that
were already there, and reruns are byte-identical.  The bond draw is
keyed on (base_seed, d, N, p, replicate) alone: one configuration per
replicate is sampled and labelled for an (N, p) slice, and every c of
the slice lays its own long-range draw, keyed on c as well, over it.  So
within a slice the cluster count and the per-size frequencies are equal
across c and aggregated once; only the merged observables move with c.
A replicate that raises fails the whole run.

Observables per replicate: the two largest merged components and the
percolation cluster count, all relative to the box size, plus the
largest component measured against log(box size) for subcritical cells,
and the per-size cluster frequencies N_k / K_N.

Theory columns are joined from the solvers: on the line the exact
cluster law is used directly; in higher dimensions a plug-in law is
estimated first from pure percolation runs (no long-range edges) and
then fed to the same solvers.
"""

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .branching import _CI_Z
from .distributions import exact_d1, from_empirical
from .errors import CheckFailure, ConfigError, DomainError
from .fileio import dump_json, write_csv
from .lattice import build_geometry, cluster_census, sample_percolation
from .merged import overlay_long_range
from .rng import STREAM_EXPERIMENT, derive_seed
from .theory import theory_point

__all__ = [
    "ExperimentConfig",
    "load_config",
    "CellSummary",
    "run_cell",
    "estimate_cluster_law",
    "SweepResult",
    "sweep",
    "CheckResult",
    "evaluate_checks",
    "run_experiment",
]

_METRICS = ("c1_frac", "c2_frac", "k_frac", "c1_over_logn", "n_long")

# mean C1/n at or above this marks a cell as having a giant component, both
# in the summary's `giant` column and in the sweep's crossing
_GIANT_FRACTION = 0.05

# seed stream stages
_STAGE_PERC = 0
_STAGE_OVERLAY = 1
_STAGE_ESTIMATE = 2


def _float_bits(x):
    return int(np.float64(x).view(np.uint64))


def _rep_seed(base_seed, d, N, p, c, stage, rep):
    return derive_seed(base_seed, STREAM_EXPERIMENT, d, N,
                       _float_bits(p), _float_bits(c), stage, rep)


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    N_values: tuple
    p_values: tuple
    c_values: tuple
    boundary: str = "torus"
    replicates: int = 20
    base_seed: int = 0
    k_max_report: int = 20
    threads: int = 1
    estimation_replicates: int = 8
    checks: tuple = ()


_CONFIG_KEYS = {
    "d", "N", "boundary", "p", "c", "replicates", "base_seed",
    "k_max_report", "threads", "estimation_replicates", "checks",
}

_CHECK_KEYS = {"N", "p", "c", "metric", "target", "op", "atol", "factor"}
_CHECK_METRICS = {"c1_frac_mean", "c2_frac_mean", "k_frac_mean",
                  "c1_over_logn_p95", "n_long_mean"}
_CHECK_TARGETS = {"beta", "alpha", "kappa", "c_cr"}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_number_list(value, name, kind=float):
    if _is_number(value):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field '{name}': expected a number or non-empty list")
    out = []
    for item in value:
        if not _is_number(item):
            raise ConfigError(f"field '{name}': {item!r} is not a number")
        if kind is int and not isinstance(item, int):
            raise ConfigError(f"field '{name}': {item!r} is not an integer")
        out.append(kind(item))
    if len(set(out)) < len(out):
        raise ConfigError(f"field '{name}': repeated values in {value!r}")
    return tuple(out)


def load_config(source):
    """Parse and validate an experiment config (path, JSON text handle
    content, or dict).  Validation happens before any computation; every
    error names the offending field."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("d", "N", "p", "c"):
        if key not in raw:
            raise ConfigError(f"field '{key}' is required")

    d = raw["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ConfigError(f"field 'd': expected integer >= 1, got {d!r}")
    N_values = _as_number_list(raw["N"], "N", int)
    if any(n < 1 for n in N_values):
        raise ConfigError("field 'N': radii must be >= 1")
    p_values = _as_number_list(raw["p"], "p")
    if any(not 0.0 <= p <= 1.0 for p in p_values):
        raise ConfigError("field 'p': probabilities must lie in [0, 1]")
    if d == 1 and 1.0 in p_values:
        raise ConfigError("field 'p': the exact line law needs p < 1 at d = 1")
    c_values = _as_number_list(raw["c"], "c")
    if any(not 0.0 <= c < math.inf for c in c_values):
        raise ConfigError("field 'c': densities must be finite and >= 0")
    n_min = (2 * min(N_values) + 1) ** d
    if max(c_values) > n_min:
        raise ConfigError(f"field 'c': densities must not exceed the {n_min} "
                          f"sites of the smallest box, got {max(c_values)!r}")

    boundary = raw.get("boundary", "torus")
    if boundary not in ("free", "torus"):
        raise ConfigError(f"field 'boundary': must be 'free' or 'torus', got {boundary!r}")
    for N in N_values:
        try:
            build_geometry(d, N, boundary)  # allocates nothing
        except DomainError as exc:
            raise ConfigError(f"field 'N': {exc}") from exc

    def _int_field(name, default, minimum):
        val = raw.get(name, default)
        if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
            raise ConfigError(f"field '{name}': expected integer >= {minimum}, got {val!r}")
        return val

    replicates = _int_field("replicates", 20, 1)
    base_seed = _int_field("base_seed", 0, 0)
    k_max_report = _int_field("k_max_report", 20, 1)
    threads = _int_field("threads", 1, 1)
    estimation_replicates = _int_field("estimation_replicates", 8, 1)

    checks = raw.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("field 'checks': expected a list")
    for i, chk in enumerate(checks):
        where = f"checks[{i}]"
        if not isinstance(chk, dict):
            raise ConfigError(f"{where}: expected an object")
        unknown = set(chk) - _CHECK_KEYS
        if unknown:
            raise ConfigError(f"{where}: unknown fields {sorted(unknown)}")
        metric = chk.get("metric")
        if metric not in _CHECK_METRICS:
            raise ConfigError(f"{where}: metric must be one of {sorted(_CHECK_METRICS)}")
        target = chk.get("target")
        if not _is_number(target) and target not in _CHECK_TARGETS:
            raise ConfigError(f"{where}: target must be a number or one of "
                              f"{sorted(_CHECK_TARGETS)}")
        op = chk.get("op", "abs")
        if op not in ("abs", "le", "ge"):
            raise ConfigError(f"{where}: op must be 'abs', 'le', or 'ge'")
        if op == "abs" and "atol" not in chk:
            raise ConfigError(f"{where}: op 'abs' needs an 'atol'")
        atol = chk.get("atol", 0.0)
        if not _is_number(atol) or not 0.0 <= atol < math.inf:
            raise ConfigError(f"{where}: 'atol' must be a finite number >= 0")
        factor = chk.get("factor", 1.0)
        if not _is_number(factor) or not math.isfinite(factor):
            raise ConfigError(f"{where}: 'factor' must be a finite number")
        if "N" in chk and (not isinstance(chk["N"], int) or isinstance(chk["N"], bool)):
            raise ConfigError(f"{where}: 'N' must be an integer")
        for key in ("p", "c"):
            if key in chk and not _is_number(chk[key]):
                raise ConfigError(f"{where}: '{key}' must be a number")
        _select_cell(itertools.product(N_values, p_values, c_values), chk, where)

    return ExperimentConfig(
        d=d, N_values=N_values, p_values=p_values, c_values=c_values,
        boundary=boundary, replicates=replicates, base_seed=base_seed,
        k_max_report=k_max_report, threads=threads,
        estimation_replicates=estimation_replicates, checks=tuple(checks),
    )


@dataclass
class CellSummary:
    """Aggregated observables of one (N, p, c) cell with theory joined."""

    d: int
    N: int
    boundary: str
    p: float
    c: float
    replicates: int
    theory: object                     # TheoryPoint
    kappa_theory: float
    samples: dict = field(repr=False)  # metric name -> per-replicate array
    per_k_ks: np.ndarray = field(repr=False, default=None)
    per_k_mean: np.ndarray = field(repr=False, default=None)
    per_k_se: np.ndarray = field(repr=False, default=None)
    per_k_mu: np.ndarray = field(repr=False, default=None)

    n_failed = 0    # a failing replicate fails the run, so no cell has any

    def mean(self, name):
        return float(self.samples[name].mean())

    def std(self, name):
        x = self.samples[name]
        return float(x.std(ddof=1)) if x.size > 1 else 0.0

    def ci_half(self, name):
        """Half-width of the 95% normal interval for the metric's mean."""
        return _CI_Z * self.std(name) / math.sqrt(self.samples[name].size)

    def percentile(self, name, q):
        return float(np.percentile(self.samples[name], q))

    def as_dict(self):
        out = {
            "d": self.d, "N": self.N, "boundary": self.boundary,
            "p": self.p, "c": self.c, "replicates": self.replicates,
            "n_failed": self.n_failed,
            "theory": self.theory.as_dict(),
            "kappa_theory": self.kappa_theory,
        }
        for name in _METRICS:
            out[f"{name}_mean"] = self.mean(name)
            out[f"{name}_std"] = self.std(name)
        out["c1_over_logn_p95"] = self.percentile("c1_over_logn", 95)
        out["per_k"] = {
            "k": [int(k) for k in self.per_k_ks],
            "nk_frac_mean": [float(x) for x in self.per_k_mean],
            "nk_frac_se": [float(x) for x in self.per_k_se],
            "mu_theory": [float(x) for x in self.per_k_mu],
        }
        return out


def estimate_cluster_law(config, p, N):
    """Stage-1 plug-in: pool pure percolation censuses (no overlay) into
    an empirical cluster-size law."""
    geom = build_geometry(config.d, N, config.boundary)
    censuses = []
    for rep in range(config.estimation_replicates):
        seed = _rep_seed(config.base_seed, config.d, N, p, 0.0, _STAGE_ESTIMATE, rep)
        censuses.append(cluster_census(sample_percolation(geom, p, seed)))
    return from_empirical(censuses)


def _run_slice(config, p, c_values, N=None):
    """Run all replicates of one (N, p) slice at every density in
    ``c_values`` and join the solved theory values; one ``CellSummary``
    per c, in the order given.

    Each replicate samples and labels its bond configuration once and
    overlays every c on it in turn, so at most ``config.threads``
    configurations are alive at once.  The bond layer's aggregates
    (``k_frac`` and the per-k columns) are computed once and shared by
    every cell of the slice.  Any exception from a replicate propagates,
    with a note that names the replicate and the seeds that reproduce
    it: ``sample_percolation`` at seed_p, then ``overlay_long_range`` at
    c and seed_o when an overlay raised.
    """
    N = int(N if N is not None else config.N_values[0])
    p = float(p)
    c_values = tuple(float(c) for c in c_values)
    geom = build_geometry(config.d, N, config.boundary)
    n = geom.n_vertices
    kmax = config.k_max_report

    def one_rep(rep):
        # the c slot is fixed at 0.0, not dropped, so the seed tuple keeps
        # its width (see rng.derive_seed) and every c shares this draw
        seed_p = _rep_seed(config.base_seed, config.d, N, p, 0.0, _STAGE_PERC, rep)
        overlay = ""
        try:
            base = sample_percolation(geom, p, seed_p)
            sizes = base.cluster_sizes
            nk = np.bincount(sizes[sizes <= kmax], minlength=kmax + 1)[1:]
            per_c = []
            for c in c_values:
                seed_o = _rep_seed(config.base_seed, config.d, N, p, c, _STAGE_OVERLAY, rep)
                overlay = f", c={c!r}, seed_o={seed_o}"
                merged = overlay_long_range(base, c, seed_o)
                per_c.append((merged.largest / n, merged.second_largest / n,
                              merged.largest / math.log(n), float(merged.n_long_edges)))
        except Exception as exc:
            exc.add_note(f"in replicate {rep} of N={N}, p={p!r}: "
                         f"seed_p={seed_p}{overlay}")
            raise
        return base.n_clusters / n, nk / base.n_clusters, per_c

    # the pool starts its workers on first submit, so one thread runs the
    # replicates on the calling thread and no worker is ever started
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        mapper = map if config.threads == 1 else pool.map
        k_fracs, nk_rows, per_c_rows = zip(*mapper(one_rep, range(config.replicates)))

    k_frac = np.array(k_fracs)
    nk_mat = np.vstack(nk_rows)
    per_k_mean = nk_mat.mean(axis=0)
    per_k_se = (nk_mat.std(axis=0, ddof=1) / math.sqrt(nk_mat.shape[0])
                if nk_mat.shape[0] > 1 else np.zeros(kmax))

    dist = exact_d1(p) if config.d == 1 else estimate_cluster_law(config, p, N)
    kappa = dist.mean_inverse_size
    ks = np.arange(1, kmax + 1, dtype=np.int64)
    mu_k = np.asarray(dist.pmf(ks), dtype=float) / (ks * kappa)

    cells = []
    for j, c in enumerate(c_values):
        c1, c2, c1_logn, n_long = map(np.array, zip(*(row[j] for row in per_c_rows)))
        samples = {"c1_frac": c1, "c2_frac": c2, "k_frac": k_frac,
                   "c1_over_logn": c1_logn, "n_long": n_long}
        cells.append(CellSummary(
            d=config.d, N=N, boundary=config.boundary, p=p, c=c,
            replicates=config.replicates,
            theory=theory_point(dist, c, d=config.d, p=p),
            kappa_theory=float(kappa),
            samples=samples, per_k_ks=ks, per_k_mean=per_k_mean,
            per_k_se=per_k_se, per_k_mu=mu_k,
        ))
    return cells


def run_cell(config, p, c, N=None):
    """Run all replicates of one cell and join the solved theory values.

    The one-density case of the slice runner.  The bond draw of replicate
    r depends only on (base_seed, d, N, p, r) and the overlay draw also on
    c, so a cell gives the same samples here as in any ``sweep`` whose
    grid contains it.  Any exception from a replicate propagates.
    """
    return _run_slice(config, p, (c,), N)[0]


@dataclass(frozen=True)
class Crossing:
    """Coarse transition localization along the c grid of one (N, p) slice."""

    N: int
    p: float
    c_at_crossing: float | None
    c_cr: float
    grid_step: float | None    # the grid gap just below the crossing
    within_one_step: bool


@dataclass
class SweepResult:
    cells: list
    crossings: list


def sweep(config):
    """Run the full (N, p, c) grid.

    Each (N, p) slice runs once: every replicate's bond configuration is
    drawn and labelled once and shared by all c cells of the slice, which
    differ only in their long-range overlays, so ``k_frac`` and the per-k
    columns are equal across c within a slice.  For d >= 2 the plug-in
    law is likewise estimated once per slice (two-stage pipeline).  Each
    cell's draws depend on its own (N, p, c) values only, so enlarging
    the grid leaves existing cells unchanged.  For each slice the coarse
    transition location is recorded: the first grid c at which the mean
    giant fraction reaches the detection threshold, and the gap between
    it and the grid c just below it (just above, when the crossing is the
    smallest c; 0.0 on a one-value grid).
    """
    cells, crossings = [], []
    for N in config.N_values:
        for p in config.p_values:
            c_sorted = tuple(sorted(config.c_values))
            slice_cells = _run_slice(config, p, c_sorted, N)
            cells.extend(slice_cells)
            ccr = slice_cells[0].theory.c_cr
            hit = next((i for i, cell in enumerate(slice_cells)
                        if cell.mean("c1_frac") >= _GIANT_FRACTION), None)
            cross = step = None
            if hit is not None:
                cross, i = c_sorted[hit], max(hit, 1)
                step = c_sorted[i] - c_sorted[i - 1] if len(c_sorted) > 1 else 0.0
            within = (cross is not None and abs(cross - ccr) <= step + 1e-12)
            crossings.append(Crossing(N=N, p=p, c_at_crossing=cross, c_cr=ccr,
                                      grid_step=step, within_one_step=within))
    return SweepResult(cells=cells, crossings=crossings)


@dataclass(frozen=True)
class CheckResult:
    description: str
    passed: bool
    value: float
    target: float
    detail: str = ""


def _resolve_target(cell, target):
    if _is_number(target):
        return float(target)
    if target == "beta":
        return cell.theory.beta
    if target == "alpha":
        if cell.theory.alpha is None:
            raise CheckFailure(
                f"cell (p={cell.p}, c={cell.c}) is {cell.theory.phase}: no alpha")
        return cell.theory.alpha
    if target == "kappa":
        return cell.kappa_theory
    if target == "c_cr":
        return cell.theory.c_cr
    raise ConfigError(f"unknown check target {target!r}")


def _selects(chk, N, p, c):
    """Whether every N/p/c selector a check sets names this cell."""
    return (("N" not in chk or N == chk["N"])
            and ("p" not in chk or abs(p - chk["p"]) <= 1e-12)
            and ("c" not in chk or abs(c - chk["c"]) <= 1e-12))


def _select_cell(grid, chk, where):
    """Index of the one (N, p, c) of ``grid`` that the check selects."""
    hits = [i for i, cell in enumerate(grid) if _selects(chk, *cell)]
    if len(hits) != 1:
        count = f"{len(hits)} cells" if hits else "no cell"
        raise ConfigError(f"{where} matches {count} of the grid, not exactly one")
    return hits[0]


def evaluate_checks(cells, checks):
    """Evaluate config-embedded acceptance checks against run cells.

    Returns (results, all_passed).
    """
    results = []
    grid = [(cell.N, cell.p, cell.c) for cell in cells]
    for chk in checks:
        cell = cells[_select_cell(grid, chk, f"check {chk!r}")]
        metric = chk["metric"]
        if metric == "c1_over_logn_p95":
            value = cell.percentile("c1_over_logn", 95)
        else:
            value = cell.mean(metric.removesuffix("_mean"))
        target = _resolve_target(cell, chk["target"])
        op = chk.get("op", "abs")
        factor = float(chk.get("factor", 1.0))
        atol = float(chk.get("atol", 0.0))
        if op == "abs":
            passed = abs(value - factor * target) <= atol
            detail = f"|{value:.6g} - {factor * target:.6g}| <= {atol:.3g}"
        elif op == "le":
            passed = value <= factor * target + atol
            detail = f"{value:.6g} <= {factor:.3g} * {target:.6g} + {atol:.3g}"
        else:
            passed = value >= factor * target - atol
            detail = f"{value:.6g} >= {factor:.3g} * {target:.6g} - {atol:.3g}"
        desc = (f"cell(N={cell.N}, p={cell.p}, c={cell.c}) {metric} "
                f"vs {chk['target']}")
        results.append(CheckResult(description=desc, passed=passed,
                                   value=value, target=target, detail=detail))
    return results, all(r.passed for r in results)


SUMMARY_COLUMNS = [
    "d", "N", "boundary", "p", "c", "replicates", "n_failed",
    "c_cr", "phase", "beta_theory", "alpha_theory", "kappa_theory",
    "c1_frac_mean", "c1_frac_std", "c1_frac_ci",
    "c2_frac_mean", "k_frac_mean", "k_frac_std", "k_frac_ci",
    "c1_over_logn_mean", "c1_over_logn_p95", "n_long_mean", "giant",
]

PER_K_COLUMNS = ["d", "N", "p", "c", "k", "nk_frac_mean", "nk_frac_se", "mu_theory"]


def _summary_row(cell):
    t = cell.theory
    return [
        cell.d, cell.N, cell.boundary, cell.p, cell.c, cell.replicates,
        cell.n_failed, t.c_cr, t.phase, t.beta, t.alpha, cell.kappa_theory,
        cell.mean("c1_frac"), cell.std("c1_frac"), cell.ci_half("c1_frac"),
        cell.mean("c2_frac"), cell.mean("k_frac"), cell.std("k_frac"),
        cell.ci_half("k_frac"), cell.mean("c1_over_logn"),
        cell.percentile("c1_over_logn", 95), cell.mean("n_long"),
        cell.mean("c1_frac") >= _GIANT_FRACTION,
    ]


def write_summary_csv(cells, fh, invocation=None):
    rows = [_summary_row(cell) for cell in cells]
    write_csv(fh, "experiment-summary", SUMMARY_COLUMNS, rows, invocation)


def write_per_k_csv(cells, fh, invocation=None):
    rows = []
    for cell in cells:
        for i, k in enumerate(cell.per_k_ks):
            rows.append([cell.d, cell.N, cell.p, cell.c, int(k),
                         float(cell.per_k_mean[i]), float(cell.per_k_se[i]),
                         float(cell.per_k_mu[i])])
    write_csv(fh, "experiment-per-k", PER_K_COLUMNS, rows, invocation)


def run_experiment(config, out_dir=None, check=False, invocation=None):
    """Run a sweep, write its CSV/JSON outputs, optionally evaluate the
    config's embedded checks.  Returns (SweepResult, check results or None).
    Asking to check a config that has no checks is a ConfigError, raised
    before any replicate runs."""
    if check and not config.checks:
        raise ConfigError("the config has no checks to evaluate")
    result = sweep(config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
            write_summary_csv(result.cells, fh, invocation)
        with open(os.path.join(out_dir, "per_k.csv"), "w") as fh:
            write_per_k_csv(result.cells, fh, invocation)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            dump_json({
                "cells": [cell.as_dict() for cell in result.cells],
                "crossings": [vars(x) for x in result.crossings],
            }, fh)
    check_results = None
    if check:
        check_results, _ = evaluate_checks(result.cells, config.checks)
    return result, check_results
