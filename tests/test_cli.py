"""Command-line interface: output formats, determinism, exit codes."""

import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import percograph
from percograph import cli
from percograph.cli import main
from percograph.errors import ConvergenceError
from percograph.fileio import read_csv


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv_text(text):
    return read_csv(io.StringIO(text))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "percograph" in capsys.readouterr().out


def test_percolate_census_identity(capsys):
    code, out, _ = _run(capsys, "percolate", "--d", "1", "--N", "100",
                        "--p", "0.4", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# percograph-csv/1 percolation-census")
    assert "percolate --d 1 --N 100" in lines[0]
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    total = sum(int(k) * int(nk) for k, nk in rows)
    assert total == 201


def test_percolate_deterministic_bytes(capsys):
    argv = ("percolate", "--d", "2", "--N", "6", "--p", "0.5", "--seed", "9")
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second


def test_merge_row_and_verify(capsys):
    code, out, _ = _run(capsys, "merge", "--d", "1", "--N", "200", "--p", "0.3",
                        "--c", "1.0", "--seed", "4", "--verify")
    assert code == 0
    comments, columns, rows = read_csv_text(out)
    row = dict(zip(columns, rows[0]))
    assert int(row["n_sites"]) == 401
    assert int(row["C1"]) >= int(row["C2"])
    assert int(row["K_N"]) <= 401
    assert row["boundary"] == "torus"


README_MERGE = (
    '# percograph-csv/1 merged-summary | percograph merge --d 1 --N 1000 --p 0.3 --c 1.0 --seed 7 --verify\n'
    'seed,d,N,boundary,p,c,n_sites,K_N,C1,C2,n_long_edges\n'
    '7,1,1000,torus,0.3,1,2001,1390,1275,15,984\n'
)
README_THEORY = (
    '# percograph-csv/1 theory-points | percograph theory --d1-exact --p 0.3 --c 0.2 0.6 1.0\n'
    'd,p,c,c_cr,phase,beta,alpha,y_root,z0,beta_prime_cr,dist_tag\n'
    ',0.3,0.2,0.538461538462,subcritical,0,7.77455345211,1.68449025886,1.13726328689,2.74111041797,exact_d1(p=0.3)\n'
    ',0.3,0.6,0.538461538462,supercritical,0.149398868115,,,,2.74111041797,exact_d1(p=0.3)\n'
    ',0.3,1,0.538461538462,supercritical,0.630694627819,,,,2.74111041797,exact_d1(p=0.3)\n'
)
README_THEORY_JSON = (
    '{\n'
    '  "invocation": "percograph theory --d1-exact --p 0.3 --c 0.2 0.6 1.0 --format json",\n'
    '  "rows": [\n'
    '    {\n'
    '      "alpha": 7.774553452111203,\n'
    '      "beta": 0.0,\n'
    '      "beta_prime_cr": 2.741110417966314,\n'
    '      "c": 0.2,\n'
    '      "c_cr": 0.5384615384615383,\n'
    '      "d": null,\n'
    '      "dist_tag": "exact_d1(p=0.3)",\n'
    '      "p": 0.3,\n'
    '      "phase": "subcritical",\n'
    '      "y_root": 1.6844902588563213,\n'
    '      "z0": 1.1372632868944348\n'
    '    },\n'
    '    {\n'
    '      "alpha": null,\n'
    '      "beta": 0.1493988681154409,\n'
    '      "beta_prime_cr": 2.741110417966314,\n'
    '      "c": 0.6,\n'
    '      "c_cr": 0.5384615384615383,\n'
    '      "d": null,\n'
    '      "dist_tag": "exact_d1(p=0.3)",\n'
    '      "p": 0.3,\n'
    '      "phase": "supercritical",\n'
    '      "y_root": null,\n'
    '      "z0": null\n'
    '    },\n'
    '    {\n'
    '      "alpha": null,\n'
    '      "beta": 0.6306946278185912,\n'
    '      "beta_prime_cr": 2.741110417966314,\n'
    '      "c": 1.0,\n'
    '      "c_cr": 0.5384615384615383,\n'
    '      "d": null,\n'
    '      "dist_tag": "exact_d1(p=0.3)",\n'
    '      "p": 0.3,\n'
    '      "phase": "supercritical",\n'
    '      "y_root": null,\n'
    '      "z0": null\n'
    '    }\n'
    '  ],\n'
    '  "schema": "theory-points"\n'
    '}\n'
)
README_BRANCH = (
    '# percograph-csv/1 branching-survival | percograph branch --p0 --k 1 --c 2.0 --reps 2000 --seed 11\n'
    'k,c,dist,reps,rho_hat,se,ci_lo,ci_hi,ambiguous_frac\n'
    '1,2,exact_d1(p=0),2000,0.799,0.00896099882826,0.781436765031,0.816563234969,0\n'
)
README_PERCOLATE_HEAD = (
    '# percograph-csv/1 percolation-census | percograph percolate --d 1 --N 100 --p 0.3 --seed 7\n'
    'k,N_k\n'
    '1,86\n'
    '2,27\n'
)


def test_readme_examples_exact_bytes(capsys):
    # the same seed gives the same bytes: pinned from the README examples
    examples = [
        ("merge --d 1 --N 1000 --p 0.3 --c 1.0 --seed 7 --verify", README_MERGE),
        ("theory --d1-exact --p 0.3 --c 0.2 0.6 1.0", README_THEORY),
        ("theory --d1-exact --p 0.3 --c 0.2 0.6 1.0 --format json",
         README_THEORY_JSON),
        ("branch --p0 --k 1 --c 2.0 --reps 2000 --seed 11", README_BRANCH),
    ]
    for argv, expected in examples:
        code, out, _ = _run(capsys, *argv.split())
        assert code == 0
        assert out == expected, argv
    code, out, _ = _run(capsys, *"percolate --d 1 --N 100 --p 0.3 --seed 7".split())
    assert code == 0
    assert out.startswith(README_PERCOLATE_HEAD)


D2_PLUGIN_CONFIG = {"d": 2, "N": [10, 20], "boundary": "torus", "p": 0.3,
                    "c": [0.05, 0.1, 0.2, 0.4], "replicates": 8,
                    "estimation_replicates": 4, "threads": 1, "base_seed": 2024}
D2_PLUGIN_DIGESTS = {
    "per_k.csv": "3c30d2bc8aa11751",
    "summary.csv": "233377618cc80585",
    "summary.json": "9e2041b27e210e63",
}


def test_d2_plugin_experiment_exact_bytes(tmp_path, monkeypatch, capsys):
    # d = 2 with the plug-in law, c grid across c_cr_hat ~ 0.13-0.16
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(D2_PLUGIN_CONFIG))
    code, _, _ = _run(capsys, "experiment", "--config", "config.json", "--out-dir", "out")
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()[:16]
               for name in D2_PLUGIN_DIGESTS}
    assert digests == D2_PLUGIN_DIGESTS


def test_theory_csv_values(capsys):
    code, out, _ = _run(capsys, "theory", "--d1-exact", "--p", "0.3",
                        "--c", "0.2", "1.0")
    assert code == 0
    _, columns, rows = read_csv_text(out)
    sub = dict(zip(columns, rows[0]))
    sup = dict(zip(columns, rows[1]))
    assert sub["phase"] == "subcritical"
    assert float(sub["alpha"]) == pytest.approx(7.774553452111182, rel=1e-9)
    assert float(sub["c_cr"]) == pytest.approx(0.7 / 1.3, rel=1e-10)
    assert sup["phase"] == "supercritical"
    assert float(sup["beta"]) == pytest.approx(0.6306946278185916, abs=1e-6)
    assert sup["alpha"] == ""


def test_theory_p0_matches_closed_form(capsys):
    code, out, _ = _run(capsys, "theory", "--p0", "--c", "0.5",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["p"] == 0.0
    closed = 1.0 / (0.5 - 1.0 - math.log(0.5))
    assert row["alpha"] == pytest.approx(closed, rel=1e-9)
    assert payload["schema"] == "theory-points"


def test_theory_output_file(tmp_path, capsys):
    target = tmp_path / "points.csv"
    code, out, _ = _run(capsys, "theory", "--d1-exact", "--p", "0.5",
                        "--c", "0.1", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# percograph-csv/1 theory-points")


def test_branch_row(capsys):
    argv = ("branch", "--p0", "--k", "1", "--c", "2.0", "--reps", "300",
            "--seed", "8", "--max-particles", "5000")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    _, columns, rows = read_csv_text(out)
    row = dict(zip(columns, rows[0]))
    rho = float(row["rho_hat"])
    assert 0.0 <= float(row["ci_lo"]) <= rho <= float(row["ci_hi"]) <= 1.0
    # survival of the pure long-range branching at c=2
    assert rho == pytest.approx(0.7968121300200199, abs=0.08)
    _, again, _ = _run(capsys, *argv)
    assert again == out


def test_experiment_runs_and_checks(tmp_path, capsys):
    config = {"d": 1, "N": 400, "p": 0.3, "c": [0.2], "replicates": 5,
              "base_seed": 7,
              "checks": [{"metric": "k_frac_mean", "target": "kappa",
                          "op": "abs", "atol": 0.02}]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, "experiment", "--config", str(path),
                        "--out-dir", str(out_dir), "--check")
    assert code == 0
    assert "PASS" in out
    assert "1/1 checks passed" in out
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "per_k.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_experiment_failing_check_exit_code(tmp_path, capsys):
    config = {"d": 1, "N": 200, "p": 0.3, "c": [0.2], "replicates": 3,
              "checks": [{"metric": "k_frac_mean", "target": "kappa",
                          "op": "abs", "atol": 0.0}]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "experiment", "--config", str(path), "--check")
    assert code == 1
    assert "FAIL" in out


def test_experiment_summary_to_stdout(tmp_path, capsys):
    config = {"d": 1, "N": 150, "p": 0.2, "c": [0.1], "replicates": 3}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "experiment", "--config", str(path))
    assert code == 0
    assert out.startswith("# percograph-csv/1 experiment-summary")


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 1, "N": 50, "p": 0.3, "c": 0.2,
                                "bogus": True}))
    code, _, err = _run(capsys, "experiment", "--config", str(path))
    assert code == 2
    assert "bogus" in err
    code, _, err = _run(capsys, "experiment", "--config",
                        str(tmp_path / "missing.json"))
    assert code == 2


def test_invalid_config_fails_before_any_run(tmp_path, capsys):
    # json writes NaN, which json.load reads back; the bad check names no cell
    for mutation in ({"c": math.nan}, {"giant_threshold": 0.05},
                     {"checks": [{"metric": "c1_frac_mean", "target": 0.1,
                                  "atol": 0.1, "c": 0.3}]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d": 1, "N": 50, "p": 0.3, "c": 0.2} | mutation))
        out_dir = tmp_path / "out"
        code, out, err = _run(capsys, "experiment", "--config", str(path),
                              "--out-dir", str(out_dir), "--check")
        assert code == 2, mutation
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert out == ""
        assert not out_dir.exists()


def test_usage_error_without_dist_choice(capsys):
    code, _, err = _run(capsys, "theory", "--d1-exact", "--c", "0.2")
    assert code == 2
    assert "--p" in err


def test_p_without_d1_exact_is_a_config_error(tmp_path, capsys):
    # --p sets the line law only; next to --p0 or --dist it would be ignored
    law = tmp_path / "law.csv"
    law.write_text("# percograph-csv/1 cluster-dist\n# kind=table tail_mass=0.0\n"
                   "k,prob\n1,1.0\n")
    for argv in (["theory", "--p0", "--p", "0.7", "--c", "0.5"],
                 ["theory", "--dist", str(law), "--p", "0.7", "--c", "0.5"],
                 ["branch", "--p0", "--p", "0.7", "--k", "1", "--c", "0.5",
                  "--reps", "10"],
                 ["branch", "--dist", str(law), "--p", "0.3", "--k", "1",
                  "--c", "0.5", "--reps", "10"]):
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "config error: --p goes with --d1-exact only\n"


def test_domain_error_exit_code(tmp_path, capsys):
    code, _, err = _run(capsys, "theory", "--d1-exact", "--p", "1.5",
                        "--c", "0.2")
    assert code == 3
    assert "domain error" in err
    code, _, err = _run(capsys, "percolate", "--d", "1", "--N", "20",
                        "--p", "-0.2")
    assert code == 3
    # a malformed law file is outside input, not a crash
    law = tmp_path / "law.csv"
    law.write_text("# percograph-csv/1 cluster-dist\n# kind=table tail_mass=0.0\n"
                   "k,prob\nabc,1.0\n")
    code, _, err = _run(capsys, "theory", "--dist", str(law), "--c", "0.1")
    assert code == 3
    assert "law file k 'abc'" in err
    # densities that are negative or not finite
    for argv in (["merge", "--d", "1", "--N", "100", "--p", "0.3", "--c", "nan",
                  "--seed", "1"],
                 ["branch", "--d1-exact", "--p", "0.3", "--k", "1", "--c", "nan",
                  "--reps", "10"],
                 ["theory", "--d1-exact", "--p", "0.3", "--c", "-1"],
                 ["theory", "--d1-exact", "--p", "0.3", "--c", "nan"]):
        code, out, err = _run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("domain error: ") and "density" in err
    # a cap below 1 would count every tree as surviving
    for cap in ("--max-particles", "--max-generations"):
        code, out, err = _run(capsys, "branch", "--d1-exact", "--p", "0.3", "--k", "1",
                              "--c", "0.5", "--reps", "10", cap, "0")
        assert code == 3, cap
        assert out == ""
        assert err.startswith("domain error: branching caps must be >= 1")


def test_convergence_error_exit_code(capsys, monkeypatch):
    # a root search that does not settle ends in one line and exit 3
    def unsettled(*args, **kwargs):
        raise ConvergenceError("giant fraction: Brent's method stopped", last=0.5)

    monkeypatch.setattr(cli, "theory_point", unsettled)
    code, out, err = _run(capsys, "theory", "--d1-exact", "--p", "0.3",
                          "--c", "0.5384616")
    assert code == 3
    assert out == ""
    assert err.startswith("convergence error: ") and err.count("\n") == 1


def test_branch_density_past_poisson_limit_exit_code(capsys):
    code, out, err = _run(capsys, "branch", "--d1-exact", "--p", "0.3", "--k", "1",
                          "--c", "1e19", "--reps", "10")
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: ") and "density" in err


def test_dist_csv_round_trip_through_cli(tmp_path, capsys):
    dist_path = tmp_path / "law.csv"
    code, out, _ = _run(capsys, "theory", "--d1-exact", "--p", "0.3",
                        "--c", "0.2")
    assert code == 0
    from percograph.distributions import exact_d1, to_csv
    with open(dist_path, "w") as fh:
        to_csv(exact_d1(0.3), fh)
    code2, out2, _ = _run(capsys, "theory", "--dist", str(dist_path),
                          "--c", "0.2")
    assert code2 == 0
    _, cols1, rows1 = read_csv_text(out)
    _, cols2, rows2 = read_csv_text(out2)
    a1 = float(dict(zip(cols1, rows1[0]))["alpha"])
    a2 = float(dict(zip(cols2, rows2[0]))["alpha"])
    assert a1 == pytest.approx(a2, rel=1e-12)


def test_check_subcommand_with_custom_config(tmp_path, capsys):
    config = {"d": 1, "N": 300, "p": 0.3, "c": [0.2], "replicates": 4,
              "base_seed": 5,
              "checks": [{"metric": "k_frac_mean", "target": "kappa",
                          "op": "abs", "atol": 0.05}]}
    path = tmp_path / "chk.json"
    path.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "check", "--config", str(path))
    assert code == 0
    assert "1/1 checks passed" in out


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PERCOGRAPH_THREADS", "2")
    config = {"d": 1, "N": 100, "p": 0.3, "c": [0.2], "replicates": 4}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    code, out, _ = _run(capsys, "experiment", "--config", str(path))
    assert code == 0
    # threaded and serial runs agree byte for byte
    monkeypatch.delenv("PERCOGRAPH_THREADS")
    _, serial, _ = _run(capsys, "experiment", "--config", str(path))
    assert out == serial
    # a malformed or non-positive count is a config error that names its source
    for env, flags, origin in (("abc", (), "PERCOGRAPH_THREADS"),
                               ("-5", (), "PERCOGRAPH_THREADS"),
                               ("2", ("--threads", "0"), "--threads")):
        monkeypatch.setenv("PERCOGRAPH_THREADS", env)
        code, out, err = _run(capsys, "experiment", "--config", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ") and origin in err


def test_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "percograph", "--version"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert "percograph" in proc.stdout


def test_package_import_does_not_load_scipy_stats():
    # a fresh interpreter: this one may have scipy.stats loaded by other tests
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import percograph, percograph.cli, sys; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_exported_name_resolves():
    modules = [percograph] + [importlib.import_module(f"percograph.{info.name}")
                              for info in pkgutil.iter_modules(percograph.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
