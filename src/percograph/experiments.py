"""Monte Carlo experiment cells, sweeps, and their acceptance checks.

An experiment is a grid of cells over (N, p, c).  Every replicate of a
cell gets its own derived seed keyed by the cell's actual parameter
values (not its position in the grid), so enlarging a grid never
perturbs the draws of cells that were already there, and reruns are
byte-identical.

Observables per replicate: the two largest merged components and the
percolation cluster count, all relative to the box size, plus the
largest component measured against log(box size) for subcritical cells,
and the per-size cluster frequencies N_k / K_N.

Theory columns are joined from the solvers: on the line the exact
cluster law is used directly; in higher dimensions a plug-in law is
estimated first from pure percolation runs (no long-range edges) and
then fed to the same solvers.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

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
    "ScalingResult",
    "subcritical_scaling",
    "concentration_check",
    "CheckResult",
    "evaluate_checks",
    "run_experiment",
]

_METRICS = ("c1_frac", "c2_frac", "k_frac", "c1_over_logn", "n_long")

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
    ci_level: float = 0.95
    k_max_report: int = 20
    threads: int = 1
    giant_threshold: float = 0.05
    estimation_replicates: int = 8
    checks: tuple = ()
    output: tuple = (("summary", "summary.csv"), ("per_k", "per_k.csv"),
                     ("json", "summary.json"))

    def output_name(self, key):
        return dict(self.output)[key]


_CONFIG_KEYS = {
    "d", "N", "boundary", "p", "c", "replicates", "base_seed", "ci_level",
    "k_max_report", "threads", "giant_threshold", "estimation_replicates",
    "checks", "output",
}

_CHECK_KEYS = {"N", "p", "c", "metric", "target", "op", "atol", "factor"}
_CHECK_METRICS = {"c1_frac_mean", "c2_frac_mean", "k_frac_mean",
                  "c1_over_logn_p95", "n_long_mean"}
_CHECK_TARGETS = {"beta", "alpha", "kappa", "c_cr"}


def _as_number_list(value, name, kind=float):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field '{name}': expected a number or non-empty list")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"field '{name}': {item!r} is not a number")
        out.append(kind(item))
    return tuple(out)


def load_config(source):
    """Parse and validate an experiment config (path, JSON text handle
    content, or dict).  Validation happens before any computation; every
    error names the offending field."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
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
    c_values = _as_number_list(raw["c"], "c")
    if any(c < 0.0 for c in c_values):
        raise ConfigError("field 'c': densities must be >= 0")

    boundary = raw.get("boundary", "torus")
    if boundary not in ("free", "torus"):
        raise ConfigError(f"field 'boundary': must be 'free' or 'torus', got {boundary!r}")

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

    ci_level = raw.get("ci_level", 0.95)
    if not isinstance(ci_level, (int, float)) or not 0.0 < ci_level < 1.0:
        raise ConfigError(f"field 'ci_level': expected a level in (0, 1), got {ci_level!r}")
    giant_threshold = raw.get("giant_threshold", 0.05)
    if not isinstance(giant_threshold, (int, float)) or not 0.0 < giant_threshold < 1.0:
        raise ConfigError("field 'giant_threshold': expected a fraction in (0, 1)")

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
        if not (isinstance(target, (int, float)) and not isinstance(target, bool)) \
                and target not in _CHECK_TARGETS:
            raise ConfigError(f"{where}: target must be a number or one of "
                              f"{sorted(_CHECK_TARGETS)}")
        op = chk.get("op", "abs")
        if op not in ("abs", "le", "ge"):
            raise ConfigError(f"{where}: op must be 'abs', 'le', or 'ge'")
        if op == "abs" and "atol" not in chk:
            raise ConfigError(f"{where}: op 'abs' needs an 'atol'")

    output = raw.get("output", {})
    if not isinstance(output, dict) or set(output) - {"summary", "per_k", "json"}:
        raise ConfigError("field 'output': expected keys among summary/per_k/json")
    out = {"summary": "summary.csv", "per_k": "per_k.csv", "json": "summary.json"}
    out.update({k: str(v) for k, v in output.items()})

    return ExperimentConfig(
        d=d, N_values=N_values, p_values=p_values, c_values=c_values,
        boundary=boundary, replicates=replicates, base_seed=base_seed,
        ci_level=ci_level, k_max_report=k_max_report, threads=threads,
        giant_threshold=giant_threshold,
        estimation_replicates=estimation_replicates,
        checks=tuple(checks), output=tuple(sorted(out.items())),
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
    n_failed: int
    ci_level: float
    theory: object                     # TheoryPoint
    kappa_theory: float
    samples: dict = field(repr=False)  # metric name -> per-replicate array
    per_k_ks: np.ndarray = field(repr=False, default=None)
    per_k_mean: np.ndarray = field(repr=False, default=None)
    per_k_se: np.ndarray = field(repr=False, default=None)
    per_k_mu: np.ndarray = field(repr=False, default=None)

    def mean(self, name):
        return float(self.samples[name].mean())

    def std(self, name):
        x = self.samples[name]
        return float(x.std(ddof=1)) if x.size > 1 else 0.0

    def ci_half(self, name):
        z = float(stats.norm.ppf(0.5 + self.ci_level / 2.0))
        return z * self.std(name) / math.sqrt(self.samples[name].size)

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


def _cell_dist(config, p, N, dist):
    if dist is not None:
        return dist
    if config.d == 1:
        return exact_d1(p)
    return estimate_cluster_law(config, p, N)


def run_cell(config, p, c, N=None, dist=None):
    """Run all replicates of one cell and join the solved theory values.

    Replicate seeds depend only on (base_seed, d, N, p, c, replicate), so
    results are reproducible cell by cell.  A replicate that leaves the
    model's domain (``DomainError``) is recorded in ``n_failed`` and
    excluded from the aggregates; the cell fails if more than 10% do.
    Any other exception is a bug and propagates.
    """
    N = int(N if N is not None else config.N_values[0])
    p = float(p)
    c = float(c)
    geom = build_geometry(config.d, N, config.boundary)
    n = geom.n_vertices
    kmax = config.k_max_report

    def one_rep(rep):
        seed_p = _rep_seed(config.base_seed, config.d, N, p, c, _STAGE_PERC, rep)
        seed_o = _rep_seed(config.base_seed, config.d, N, p, c, _STAGE_OVERLAY, rep)
        try:
            base = sample_percolation(geom, p, seed_p)
            merged = overlay_long_range(base, c, seed_o)
        except DomainError as exc:
            return exc
        sizes = base.cluster_sizes
        nk = np.bincount(sizes[sizes <= kmax], minlength=kmax + 1)[1:]
        return {
            "c1_frac": merged.largest / n,
            "c2_frac": merged.second_largest / n,
            "k_frac": base.n_clusters / n,
            "c1_over_logn": merged.largest / math.log(n),
            "n_long": float(merged.n_long_edges),
            "nk_frac": nk / base.n_clusters,
        }

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        outcomes = list(pool.map(one_rep, range(config.replicates)))
    results = [out for out in outcomes if not isinstance(out, DomainError)]
    errors = [out for out in outcomes if isinstance(out, DomainError)]
    if len(errors) > 0.1 * config.replicates:
        raise RuntimeError(
            f"cell (N={N}, p={p}, c={c}): {len(errors)} of "
            f"{config.replicates} replicates failed; first: {errors[0]!r}"
        )

    samples = {name: np.array([r[name] for r in results]) for name in _METRICS}
    nk_mat = np.vstack([r["nk_frac"] for r in results])
    per_k_mean = nk_mat.mean(axis=0)
    per_k_se = (nk_mat.std(axis=0, ddof=1) / math.sqrt(nk_mat.shape[0])
                if nk_mat.shape[0] > 1 else np.zeros(kmax))

    the_dist = _cell_dist(config, p, N, dist)
    point = theory_point(the_dist, c, d=config.d, p=p)
    kappa = the_dist.mean_inverse_size
    ks = np.arange(1, kmax + 1, dtype=np.int64)
    mu_k = np.asarray(the_dist.pmf(ks), dtype=float) / (ks * kappa)

    return CellSummary(
        d=config.d, N=N, boundary=config.boundary, p=p, c=c,
        replicates=config.replicates, n_failed=len(errors),
        ci_level=config.ci_level, theory=point, kappa_theory=float(kappa),
        samples=samples, per_k_ks=ks, per_k_mean=per_k_mean,
        per_k_se=per_k_se, per_k_mu=mu_k,
    )


@dataclass(frozen=True)
class Crossing:
    """Coarse transition localization along the c grid of one (N, p) slice."""

    N: int
    p: float
    c_at_crossing: float | None
    c_cr: float
    grid_step: float
    within_one_step: bool


@dataclass
class SweepResult:
    cells: list
    crossings: list


def sweep(config, dist=None):
    """Run the full (N, p, c) grid.

    For d >= 2 the plug-in law is estimated once per (N, p) slice and
    shared by every c cell in that slice (two-stage pipeline).  For each
    slice the coarse transition location is recorded: the first grid c at
    which the mean giant fraction reaches the detection threshold.
    """
    cells, crossings = [], []
    for N in config.N_values:
        for p in config.p_values:
            slice_dist = _cell_dist(config, p, N, dist)
            c_sorted = tuple(sorted(config.c_values))
            slice_cells = [run_cell(config, p, c, N, slice_dist) for c in c_sorted]
            cells.extend(slice_cells)
            ccr = slice_cells[0].theory.c_cr
            cross = next(
                (cell.c for cell in slice_cells
                 if cell.mean("c1_frac") >= config.giant_threshold), None)
            step = (max(c_sorted) - min(c_sorted)) / max(1, len(c_sorted) - 1)
            within = (cross is not None and abs(cross - ccr) <= step + 1e-12)
            crossings.append(Crossing(N=N, p=p, c_at_crossing=cross, c_cr=ccr,
                                      grid_step=step, within_one_step=within))
    return SweepResult(cells=cells, crossings=crossings)


@dataclass
class ScalingRow:
    p: float
    c: float
    N: int
    n_sites: int
    p95: float
    alpha: float
    bound: float
    ok: bool
    c1: np.ndarray = field(repr=False)   # per-replicate largest component


@dataclass
class ScalingResult:
    rows: list


def subcritical_scaling(config, dist=None):
    """Largest-component log law across the N grid.

    Every (p, c) cell must be strictly subcritical; for each one the 95th
    percentile of C1/log(box size) over replicates is compared against
    1.5 * alpha.
    """
    rows = []
    for p in config.p_values:
        for c in config.c_values:
            base_dist = _cell_dist(config, p, max(config.N_values), dist)
            point = theory_point(base_dist, c, d=config.d, p=p)
            if point.phase != "subcritical" or point.alpha is None:
                raise DomainError(
                    f"scaling study needs strictly subcritical cells; "
                    f"(p={p}, c={c}) is {point.phase}"
                )
            for N in sorted(config.N_values):
                cell = run_cell(config, p, c, N, base_dist)
                p95 = cell.percentile("c1_over_logn", 95)
                bound = 1.5 * point.alpha
                n_sites = (2 * N + 1) ** config.d
                rows.append(ScalingRow(
                    p=p, c=c, N=N, n_sites=n_sites,
                    p95=p95, alpha=point.alpha, bound=bound, ok=p95 <= bound,
                    c1=np.rint(cell.samples["c1_over_logn"] * math.log(n_sites)),
                ))
    return ScalingResult(rows=rows)


def concentration_check(config):
    """Per-size cluster frequencies against the exact type measure (line
    model): flags |mean(N_k/K_N) - mu(k)| beyond 3 SE and beyond the
    coarse envelope 0.5 * k^3 * mu_tilde(k)."""
    if config.d != 1:
        raise DomainError("the exact type measure is only available for d = 1")
    out = []
    for N in config.N_values:
        for p in config.p_values:
            dist = exact_d1(p)
            cell = run_cell(config, p, 0.0, N, dist)
            ks = cell.per_k_ks
            mu = cell.per_k_mu
            mu_tilde = np.asarray(dist.survival(ks), dtype=float)
            dev = np.abs(cell.per_k_mean - mu)
            rows = {
                "N": N, "p": p, "k": ks,
                "mean": cell.per_k_mean, "se": cell.per_k_se, "mu": mu,
                "within_3se": dev <= 3.0 * np.maximum(cell.per_k_se, 1e-15),
                "envelope_ok": dev <= 0.5 * ks.astype(float) ** 3 * mu_tilde,
            }
            out.append(rows)
    return out


@dataclass(frozen=True)
class CheckResult:
    description: str
    passed: bool
    value: float
    target: float
    detail: str = ""


def _resolve_target(cell, target):
    if isinstance(target, (int, float)) and not isinstance(target, bool):
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


def _find_cell(cells, chk):
    for cell in cells:
        if "p" in chk and abs(cell.p - chk["p"]) > 1e-12:
            continue
        if "c" in chk and abs(cell.c - chk["c"]) > 1e-12:
            continue
        if "N" in chk and cell.N != chk["N"]:
            continue
        return cell
    raise ConfigError(f"check matches no cell: {chk!r}")


def evaluate_checks(cells, checks):
    """Evaluate config-embedded acceptance checks against run cells.

    Returns (results, all_passed).
    """
    results = []
    for chk in checks:
        cell = _find_cell(cells, chk)
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


def _summary_row(cell, threshold):
    t = cell.theory
    return [
        cell.d, cell.N, cell.boundary, cell.p, cell.c, cell.replicates,
        cell.n_failed, t.c_cr, t.phase, t.beta, t.alpha, cell.kappa_theory,
        cell.mean("c1_frac"), cell.std("c1_frac"), cell.ci_half("c1_frac"),
        cell.mean("c2_frac"), cell.mean("k_frac"), cell.std("k_frac"),
        cell.ci_half("k_frac"), cell.mean("c1_over_logn"),
        cell.percentile("c1_over_logn", 95), cell.mean("n_long"),
        cell.mean("c1_frac") >= threshold,
    ]


def write_summary_csv(cells, fh, threshold=0.05, invocation=None):
    rows = [_summary_row(cell, threshold) for cell in cells]
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
    config's embedded checks.  Returns (SweepResult, check results or None)."""
    result = sweep(config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, config.output_name("summary")), "w") as fh:
            write_summary_csv(result.cells, fh, config.giant_threshold, invocation)
        with open(os.path.join(out_dir, config.output_name("per_k")), "w") as fh:
            write_per_k_csv(result.cells, fh, invocation)
        with open(os.path.join(out_dir, config.output_name("json")), "w") as fh:
            dump_json({
                "cells": [cell.as_dict() for cell in result.cells],
                "crossings": [vars(x) for x in result.crossings],
            }, fh)
    check_results = None
    if check:
        check_results, _ = evaluate_checks(result.cells, config.checks)
    return result, check_results
