"""Experiment cells, sweeps, and config-driven checks."""

import io
import json
import math

import numpy as np
import pytest
from scipy import stats

from percograph import (
    evaluate_checks,
    exact_d1,
    experiments,
    load_config,
    run_cell,
    run_experiment,
    sweep,
    theory_point,
)
from percograph.errors import ConfigError
from percograph.experiments import (
    CellSummary,
    estimate_cluster_law,
    write_per_k_csv,
    write_summary_csv,
)
from percograph.fileio import read_csv
from percograph.rng import derive_seed


def _config(**overrides):
    raw = {"d": 1, "N": 400, "p": 0.3, "c": 0.2, "replicates": 6,
           "base_seed": 99}
    raw.update(overrides)
    return load_config(raw)


def test_load_config_defaults_and_lists():
    cfg = _config(N=[100, 200], p=[0.1, 0.2], c=0.5)
    assert cfg.N_values == (100, 200)
    assert cfg.p_values == (0.1, 0.2)
    assert cfg.c_values == (0.5,)
    assert cfg.boundary == "torus"


_CHECK = {"metric": "c1_frac_mean", "target": 0.1, "atol": 0.01}


@pytest.mark.parametrize("mutation,fragment", [
    ({"d": None}, "'d'"),
    ({"d": 0}, "'d'"),
    ({"N": []}, "'N'"),
    ({"N": 0}, "'N'"),
    ({"p": 1.5}, "'p'"),
    ({"c": -0.1}, "'c'"),
    ({"boundary": "open"}, "'boundary'"),
    ({"replicates": 0}, "'replicates'"),
    # retired keys are unknown fields, even at their old defaults
    ({"ci_level": 0.95}, "'ci_level'"),
    ({"giant_threshold": 0.05}, "'giant_threshold'"),
    ({"threads": "four"}, "'threads'"),
    ({"typo_field": 1}, "typo_field"),
    ({"checks": [{"metric": "bogus", "target": 1}]}, "metric"),
    ({"checks": [{"metric": "c1_frac_mean", "target": "gamma"}]}, "target"),
    ({"checks": [{"metric": "c1_frac_mean", "target": 0.1, "op": "lt"}]}, "op"),
    ({"checks": [{"metric": "c1_frac_mean", "target": 0.1}]}, "atol"),
    ({"output": {"summary": "summary.csv"}}, "output"),
    ({"ci_level": 0.95, "giant_threshold": 0.05, "output": {}},
     "unknown config fields: ['ci_level', 'giant_threshold', 'output']"),
    ({"c": math.nan}, "'c'"),
    ({"c": [0.2, math.inf]}, "'c'"),
    ({"N": 1, "c": 5.0}, "smallest box"),
    ({"N": [10, 2], "c": 25.5}, "smallest box"),
    ({"N": 10.7}, "'N'"),
    ({"checks": [_CHECK | {"atol": "x"}]}, "'atol'"),
    ({"checks": [_CHECK | {"atol": -0.1}]}, "'atol'"),
    ({"checks": [_CHECK | {"atol": math.inf}]}, "'atol'"),
    ({"checks": [_CHECK | {"factor": math.nan}]}, "'factor'"),
    ({"checks": [_CHECK | {"factor": "2"}]}, "'factor'"),
    ({"checks": [_CHECK | {"N": 50.0}]}, "'N'"),
    ({"checks": [_CHECK | {"p": "a"}]}, "'p'"),
    ({"checks": [_CHECK | {"c": None}]}, "'c'"),
    ({"checks": [_CHECK | {"p": 0.3 + 1e-9}]}, "no cell"),
    ({"checks": [_CHECK | {"c": 0.5}]}, "no cell"),
    ({"checks": [_CHECK | {"N": 60}]}, "no cell"),
])
def test_load_config_rejects(mutation, fragment):
    raw = {"d": 1, "N": 50, "p": 0.3, "c": 0.2}
    raw.update(mutation)
    for key, val in list(mutation.items()):
        if val is None:
            del raw[key]
    with pytest.raises(ConfigError) as err:
        load_config(raw)
    assert fragment in str(err.value)


def test_load_config_missing_required():
    with pytest.raises(ConfigError, match="'c'"):
        load_config({"d": 1, "N": 50, "p": 0.3})


def test_load_config_from_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"d": 1, "N": 50, "p": 0.3, "c": 0.2}))
    cfg = load_config(path)
    assert cfg.d == 1 and cfg.N_values == (50,)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


def test_run_cell_deterministic():
    cfg = _config()
    a = run_cell(cfg, 0.3, 0.2)
    b = run_cell(cfg, 0.3, 0.2)
    for name in a.samples:
        assert np.array_equal(a.samples[name], b.samples[name])
    assert np.array_equal(a.per_k_mean, b.per_k_mean)


def test_cell_seeds_keyed_by_values_not_grid_position():
    # enlarging the grid must not change the draws of existing cells
    small = sweep(_config(c=[0.2]))
    large = sweep(_config(c=[0.2, 1.0]))
    cell_small = small.cells[0]
    cell_large = next(c for c in large.cells if c.c == 0.2)
    for name in cell_small.samples:
        assert np.array_equal(cell_small.samples[name], cell_large.samples[name])


def test_slice_cells_share_one_bond_configuration():
    # within an (N, p) slice only the overlay moves with c
    result = sweep(_config(N=[200, 300], p=[0.3, 0.5], c=[0.0, 0.2, 1.0]))
    assert len(result.cells) == 12
    for i in range(0, 12, 3):
        first, *rest = result.cells[i:i + 3]
        for cell in rest:
            assert (cell.N, cell.p) == (first.N, first.p)
            assert np.array_equal(cell.samples["k_frac"], first.samples["k_frac"])
            assert np.array_equal(cell.per_k_mean, first.per_k_mean)
            assert np.array_equal(cell.per_k_se, first.per_k_se)
        assert not np.array_equal(rest[-1].samples["c1_frac"], first.samples["c1_frac"])


def test_run_cell_equals_its_sweep_cell():
    cfg = _config(d=2, N=[6, 8], p=[0.3, 0.6], c=[0.05, 0.4], replicates=4,
                  estimation_replicates=3)
    for cell in sweep(cfg).cells:
        dist = estimate_cluster_law(cfg, cell.p, cell.N)
        alone = run_cell(cfg, cell.p, cell.c, cell.N, dist)
        for name in cell.samples:
            assert np.array_equal(alone.samples[name], cell.samples[name])
        assert np.array_equal(alone.per_k_mean, cell.per_k_mean)
        assert np.array_equal(alone.per_k_mu, cell.per_k_mu)
        assert alone.theory == cell.theory


def test_sweep_samples_each_bond_configuration_once(monkeypatch):
    real_sample, real_overlay = experiments.sample_percolation, experiments.overlay_long_range
    calls = {"sample": 0, "overlay": 0}

    def sample(geom, p, seed):
        calls["sample"] += 1
        return real_sample(geom, p, seed)

    def overlay(base, c, seed):
        calls["overlay"] += 1
        return real_overlay(base, c, seed)

    monkeypatch.setattr(experiments, "sample_percolation", sample)
    monkeypatch.setattr(experiments, "overlay_long_range", overlay)
    sweep(_config(d=2, N=[5, 6], p=[0.3, 0.5], c=[0.05, 0.1, 0.2], replicates=3,
                  estimation_replicates=2))
    slices = 2 * 2
    assert calls == {"sample": slices * (3 + 2), "overlay": slices * 3 * 3}
    calls.update(sample=0, overlay=0)
    sweep(_config(N=[100, 200], p=[0.3, 0.5], c=[0.05, 0.1, 0.2], replicates=3))
    assert calls == {"sample": slices * 3, "overlay": slices * 3 * 3}


def test_zero_density_cells_keep_their_draws():
    # cluster counts and largest clusters of run_cell(cfg, 0.3, 0.0) with
    # the configuration of _config(), as drawn when the bond seed still
    # carried c: its c slot is fixed at 0.0, so c = 0 cells are unchanged
    cell = run_cell(_config(), 0.3, 0.0)
    n = 2 * 400 + 1
    assert np.array_equal(cell.samples["k_frac"],
                          np.array([562, 548, 564, 576, 540, 565]) / n)
    assert np.array_equal(cell.samples["c1_frac"], np.array([8, 6, 7, 6, 6, 8]) / n)


def test_rep_seeds_are_pairwise_distinct():
    stages = (experiments._STAGE_PERC, experiments._STAGE_OVERLAY,
              experiments._STAGE_ESTIMATE)
    seeds = [experiments._rep_seed(99, 1, 400, p, c, stage, rep)
             for p in (0.0, 0.3) for c in (0.0, 0.2)
             for stage in stages for rep in range(4)]
    assert len(seeds) == 48
    assert len(set(seeds)) == len(seeds)


def test_derive_seed_collides_across_tuple_widths():
    # the documented limit: SeedSequence hashes 32-bit words, not tuples
    assert derive_seed(7) == derive_seed(7, 0)
    assert derive_seed(2**32 + 5) == derive_seed(5, 1)
    assert derive_seed(7, 1) != derive_seed(7, 2)


def test_run_cell_no_edges_at_all():
    cfg = _config(p=0.0, c=0.0, replicates=3)
    cell = run_cell(cfg, 0.0, 0.0)
    n = (2 * 400 + 1)
    assert cell.mean("k_frac") == 1.0          # every site its own cluster
    assert cell.mean("c1_frac") == pytest.approx(1.0 / n)
    assert cell.mean("n_long") == 0.0
    assert cell.kappa_theory == 1.0
    assert cell.n_failed == 0


def test_replicate_bug_is_not_tallied_as_failure(monkeypatch):
    # one replicate in 20 is within the 10% failure allowance, so only a
    # propagating exception shows the bug
    real = experiments.overlay_long_range
    calls = []

    def buggy(base, c, seed):
        calls.append(seed)
        if len(calls) == 7:
            raise TypeError("bug in one replicate")
        return real(base, c, seed)

    monkeypatch.setattr(experiments, "overlay_long_range", buggy)
    with pytest.raises(TypeError, match="bug in one replicate"):
        run_cell(_config(replicates=20), 0.3, 0.2)


def test_cell_theory_join_matches_solvers():
    cfg = _config()
    cell = run_cell(cfg, 0.3, 0.2)
    point = theory_point(exact_d1(0.3), 0.2, d=1, p=0.3)
    assert cell.theory.alpha == pytest.approx(point.alpha, rel=1e-12)
    assert cell.theory.c_cr == pytest.approx(point.c_cr, rel=1e-12)
    assert cell.kappa_theory == pytest.approx(0.7, abs=1e-12)


def test_cell_statistics_shapes():
    cfg = _config(replicates=5, k_max_report=7)
    cell = run_cell(cfg, 0.4, 0.1)
    assert cell.per_k_ks.shape == (7,)
    assert cell.per_k_mean.shape == (7,)
    assert np.all(cell.per_k_mean >= 0)
    assert cell.samples["c1_frac"].shape == (5,)
    assert cell.std("c1_frac") >= 0
    assert cell.ci_half("c1_frac") >= cell.std("c1_frac") / math.sqrt(5)
    p95 = cell.percentile("c1_over_logn", 95)
    assert p95 >= cell.mean("c1_over_logn") - 1e-12


def test_ci_half_uses_the_normal_quantile_bit_for_bit():
    # scipy.stats is the independent oracle; the package does not import it
    # std is exactly 2 = sqrt(n) for these samples, so ci_half is z itself
    x = np.array([3.0, -1.0, -1.0, -1.0])
    cell = CellSummary(d=1, N=10, boundary="free", p=0.3, c=0.2, replicates=4,
                       n_failed=0, theory=None, kappa_theory=0.7,
                       samples={"x": x})
    assert cell.std("x") == 2.0
    assert cell.ci_half("x") == float(stats.norm.ppf(0.975))


def test_threads_do_not_change_results():
    serial = run_cell(_config(threads=1, replicates=8), 0.3, 0.6)
    threaded = run_cell(_config(threads=4, replicates=8), 0.3, 0.6)
    for name in serial.samples:
        assert np.array_equal(serial.samples[name], threaded.samples[name])


def test_estimate_cluster_law_matches_exact_in_d1():
    cfg = _config(N=2000, estimation_replicates=10)
    emp = estimate_cluster_law(cfg, 0.3, 2000)
    ex = exact_d1(0.3)
    assert emp.tag() == f"empirical(n_sites={10 * 4001},n_configs=10)"
    assert emp.n_configs == 10
    assert emp.mean_size == pytest.approx(ex.mean_size, rel=0.05)
    assert emp.mean_inverse_size == pytest.approx(ex.mean_inverse_size, rel=0.01)
    for k in (1, 2, 3):
        assert float(emp.pmf(k)) == pytest.approx(float(ex.pmf(k)), abs=0.01)


def test_sweep_crossing_localization():
    cfg = _config(N=5000, p=0.3, c=[0.3, 0.45, 0.6, 0.75, 0.9], replicates=8)
    result = sweep(cfg)
    assert len(result.cells) == 5
    assert [cell.c for cell in result.cells] == [0.3, 0.45, 0.6, 0.75, 0.9]
    cross = result.crossings[0]
    assert cross.c_cr == pytest.approx(0.7 / 1.3, abs=1e-12)
    assert cross.c_at_crossing is not None
    assert abs(cross.c_at_crossing - cross.c_cr) <= cross.grid_step + 1e-12
    assert cross.within_one_step


def test_sweep_no_crossing_when_all_subcritical():
    cfg = _config(N=1000, p=0.3, c=[0.1, 0.2], replicates=4)
    result = sweep(cfg)
    cross = result.crossings[0]
    assert cross.c_at_crossing is None
    assert not cross.within_one_step


def test_run_cell_per_k_concentration_d1():
    # N_k/K_N against the exact type measure mu(k) of the line model
    cfg = _config(N=3000, p=0.4, c=0.0, replicates=40, k_max_report=8)
    cell = run_cell(cfg, 0.4, 0.0)
    ks = cell.per_k_ks
    dev = np.abs(cell.per_k_mean - cell.per_k_mu)
    # P{|C| >= k} = p^(k-1) (k(1-p) + p) on the line, at p = 0.4
    envelope = 0.5 * ks.astype(float) ** 3 * 0.4 ** (ks - 1.0) * (ks * 0.6 + 0.4)
    assert np.all(dev <= envelope)
    assert np.mean(dev <= 3.0 * np.maximum(cell.per_k_se, 1e-15)) >= 0.75


def test_evaluate_checks_ops():
    cfg = _config(N=2000, p=0.3, c=[0.2, 1.0], replicates=10)
    cells = sweep(cfg).cells
    checks = (
        {"metric": "k_frac_mean", "target": "kappa", "op": "abs", "atol": 0.01},
        {"c": 1.0, "metric": "c1_frac_mean", "target": "beta", "op": "abs",
         "atol": 0.05},
        {"c": 0.2, "metric": "c1_frac_mean", "target": 0.02, "op": "le"},
        {"c": 1.0, "metric": "c1_frac_mean", "target": 0.5, "op": "ge"},
        {"c": 0.2, "metric": "c1_over_logn_p95", "target": "alpha", "op": "le",
         "factor": 1.5},
    )
    results, all_passed = evaluate_checks(cells, checks)
    assert len(results) == 5
    assert all_passed, [r for r in results if not r.passed]
    # an impossible tolerance must fail, not error out
    bad = ({"metric": "k_frac_mean", "target": "kappa", "op": "abs", "atol": 0.0},)
    results, all_passed = evaluate_checks(cells, bad)
    assert not all_passed and not results[0].passed


def test_evaluate_checks_missing_cell():
    cfg = _config(replicates=3)
    cells = [run_cell(cfg, 0.3, 0.2)]
    with pytest.raises(ConfigError, match="matches no cell"):
        evaluate_checks(cells, ({"p": 0.9, "metric": "k_frac_mean",
                                 "target": "kappa", "op": "abs", "atol": 1},))


def test_summary_csv_round_trip():
    cfg = _config(replicates=4, c=[0.0, 0.2])
    cells = sweep(cfg).cells
    buf = io.StringIO()
    write_summary_csv(cells, buf, invocation="unit")
    buf.seek(0)
    comments, columns, rows = read_csv(buf)
    assert any("experiment-summary" in c for c in comments)
    assert "c1_frac_mean" in columns
    assert len(rows) == 2
    k_frac = float(rows[0][columns.index("k_frac_mean")])
    assert k_frac == pytest.approx(cells[0].mean("k_frac"), rel=1e-10)
    assert rows[0][columns.index("phase")] == "subcritical"


def test_per_k_csv_and_mu_join():
    cfg = _config(replicates=4, k_max_report=5)
    cell = run_cell(cfg, 0.3, 0.2)
    buf = io.StringIO()
    write_per_k_csv([cell], buf)
    buf.seek(0)
    _, columns, rows = read_csv(buf)
    assert len(rows) == 5
    mu1 = float(rows[0][columns.index("mu_theory")])
    ex = exact_d1(0.3)
    assert mu1 == pytest.approx(float(ex.pmf(1)) / ex.mean_inverse_size, rel=1e-9)


def test_per_k_mu_geometric_at_half():
    # at p = 1/2 the type law mu(k) = P{|C| = k} / (k E(1/|C|)) is exactly 2^-k
    cell = run_cell(_config(p=0.5, replicates=2, k_max_report=6), 0.5, 0.2)
    assert np.allclose(cell.per_k_mu, 0.5 ** np.arange(1, 7), atol=1e-12)
    assert cell.kappa_theory == pytest.approx(0.5, abs=1e-15)


def test_run_experiment_writes_outputs(tmp_path):
    cfg = _config(N=300, replicates=4, c=[0.2],
                  checks=[{"metric": "k_frac_mean", "target": "kappa",
                           "op": "abs", "atol": 0.05}])
    out = tmp_path / "run"
    result, checks = run_experiment(cfg, out_dir=str(out), check=True,
                                    invocation="unit test")
    assert (out / "summary.csv").exists()
    assert (out / "per_k.csv").exists()
    assert (out / "summary.json").exists()
    assert len(result.cells) == 1
    assert checks is not None and checks[0].passed
    payload = json.loads((out / "summary.json").read_text())
    assert payload["cells"][0]["p"] == 0.3
    assert payload["crossings"][0]["c_cr"] == pytest.approx(0.7 / 1.3)
    # reruns are byte-identical
    first = (out / "summary.csv").read_bytes()
    run_experiment(cfg, out_dir=str(out), invocation="unit test")
    assert (out / "summary.csv").read_bytes() == first
