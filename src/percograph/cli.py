"""Command-line interface.

Subcommands: percolate, merge, theory, branch, experiment, check.
Exit codes: 0 success, 1 failed acceptance checks, 2 usage or config
errors, 3 numeric domain errors or solver non-convergence.  Output is
CSV by default (stdout or --output), with a JSON mirror behind --format
json.  Reruns of the same invocation produce byte-identical output.
"""

import argparse
import dataclasses
import io
import json
import sys
from importlib import resources

from . import __version__, distributions, experiments
from .branching import estimate_survival
from .errors import CheckFailure, ConfigError, ConvergenceError, DomainError
from .fileio import dump_json, fmt, write_csv
from .lattice import build_geometry, cluster_census, sample_percolation
from .merged import overlay_long_range, verify_correspondence
from .theory import THEORY_COLUMNS, theory_point


def _add_output_args(sub):
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_dist_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--d1-exact", action="store_true",
                       help="use the exact line cluster law at --p "
                            "(--p 0: no bonds, point mass at size 1)")
    group.add_argument("--dist", help="load a cluster-size law from CSV")
    sub.add_argument("--p", type=float,
                     help="retention probability for --d1-exact")


def _resolve_dist(args):
    if args.p is not None and not args.d1_exact:
        raise ConfigError("--p goes with --d1-exact only")
    if args.d1_exact:
        if args.p is None:
            raise ConfigError("--d1-exact needs --p")
        return distributions.exact_d1(args.p)
    with open(args.dist, encoding="utf-8") as fh:
        return distributions.from_csv(fh)


def _emit(args, invocation, schema, columns, rows):
    text = io.StringIO()
    if args.format == "json":
        payload = {
            "schema": schema,
            "invocation": invocation,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        dump_json(payload, text)
    else:
        write_csv(text, schema, columns, rows, invocation)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text.getvalue())
    else:
        sys.stdout.write(text.getvalue())


def _cmd_percolate(args, invocation):
    geom = build_geometry(args.d, args.N, args.boundary)
    config = sample_percolation(geom, args.p, args.seed)
    census = cluster_census(config)
    rows = [[int(k), int(c)] for k, c in zip(census.ks, census.counts)]
    _emit(args, invocation, "percolation-census", ["k", "N_k"], rows)
    return 0


def _cmd_merge(args, invocation):
    geom = build_geometry(args.d, args.N, args.boundary)
    base = sample_percolation(geom, args.p, args.seed)
    merged = overlay_long_range(base, args.c, args.seed)
    if args.verify:
        ok, report = verify_correspondence(merged)
        if not ok:
            raise CheckFailure(f"macro correspondence failed: {report}")
    columns = ["seed", "d", "N", "boundary", "p", "c", "n_sites",
               "K_N", "C1", "C2", "n_long_edges"]
    rows = [[args.seed, args.d, args.N, args.boundary, args.p, args.c,
             geom.n_vertices, base.n_clusters, merged.largest,
             merged.second_largest, merged.n_long_edges]]
    _emit(args, invocation, "merged-summary", columns, rows)
    return 0


def _cmd_theory(args, invocation):
    dist = _resolve_dist(args)
    points = [theory_point(dist, c, p=args.p) for c in args.c]
    rows = [[getattr(pt, col) for col in THEORY_COLUMNS] for pt in points]
    _emit(args, invocation, "theory-points", THEORY_COLUMNS, rows)
    return 0


def _cmd_branch(args, invocation):
    dist = _resolve_dist(args)
    est = estimate_survival(
        args.k, args.c, dist, reps=args.reps, seed=args.seed,
        max_particles=args.max_particles, max_generations=args.max_generations,
    )
    columns = ["k", "c", "dist", "reps", "rho_hat", "se", "ci_lo", "ci_hi",
               "ambiguous_frac"]
    rows = [[est.root_type, est.c, est.dist_tag, est.reps, est.rho_hat,
             est.se, est.ci_lo, est.ci_hi, est.ambiguous_frac]]
    _emit(args, invocation, "branching-survival", columns, rows)
    return 0


def _report_checks(results):
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.description}: value={fmt(res.value)} "
              f"target={fmt(res.target)} ({res.detail})")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return failed == 0


def _cmd_experiment(args, invocation):
    """Run a config (`experiment`, or `check` on the bundled one), write
    its outputs and report its checks."""
    source = args.config
    if source is None:
        ref = resources.files("percograph.configs").joinpath("acceptance_d1.json")
        source = json.loads(ref.read_text())
    config = experiments.load_config(source)
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        config = dataclasses.replace(config, threads=args.threads)
    result, checks = experiments.run_experiment(
        config, out_dir=args.out_dir, check=args.check, invocation=invocation)
    if args.command == "experiment" and args.out_dir is None:
        experiments.write_summary_csv(result.cells, sys.stdout, invocation)
    if args.check and not _report_checks(checks):
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="percograph",
        description="Percolation merged with a sparse random graph: "
                    "simulation and phase-diagram numerics.",
    )
    parser.add_argument("--version", action="version",
                        version=f"percograph {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("percolate", help="sample one bond configuration")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--boundary", choices=("free", "torus"), default="torus")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_percolate)

    sub = subs.add_parser("merge", help="sample a merged configuration")
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--c", type=float, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--boundary", choices=("free", "torus"), default="torus")
    sub.add_argument("--verify", action="store_true",
                     help="check the macro-vertex correspondence first")
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_merge)

    sub = subs.add_parser("theory", help="solve phase-diagram quantities")
    _add_dist_args(sub)
    sub.add_argument("--c", type=float, nargs="+", required=True)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_theory)

    sub = subs.add_parser("branch", help="branching survival estimate")
    _add_dist_args(sub)
    sub.add_argument("--k", type=int, required=True, help="root type")
    sub.add_argument("--c", type=float, required=True)
    sub.add_argument("--reps", type=int, default=10_000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--max-particles", type=int, default=1_000_000)
    sub.add_argument("--max-generations", type=int, default=10_000)
    _add_output_args(sub)
    sub.set_defaults(func=_cmd_branch)

    sub = subs.add_parser("experiment", help="run an experiment config")
    sub.add_argument("--config", required=True)
    sub.add_argument("--out-dir", default=None)
    sub.add_argument("--check", action="store_true",
                     help="evaluate the config's embedded checks")
    sub.add_argument("--threads", type=int, default=None,
                     help="replicate parallelism (default: the config's threads)")
    sub.set_defaults(func=_cmd_experiment)

    sub = subs.add_parser("check", help="run the bundled acceptance config")
    sub.add_argument("--config", default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.set_defaults(func=_cmd_experiment, out_dir=None, check=True)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    invocation = "percograph " + " ".join(argv)
    try:
        return args.func(args, invocation)
    except CheckFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
