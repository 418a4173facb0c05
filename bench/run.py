"""percograph benchmark: one workload in one fresh single-threaded process.

    python3 bench/run.py --workload merge_d1_giant --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  A report goes to stderr and a record with the environment
manifest to ``.bench_out/``.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process and prints one
table.  See README.md.
"""

import os

# Pin every thread pool before numpy is imported, here and in children.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "PERCOGRAPH_THREADS")
for _var in PINNED_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("merge_d1_giant", "sweep_d2_plugin", "phase_branch_d1")

# (name, unit, better); BENCHMARK.json carries the same list with bounds.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("unit_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "ratio", "higher"),
]
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (one setup_s probe)")
    return parser.parse_args(argv)


def measure(workload, seconds, first=0, probe=None):
    """Closed loop: start units until ``seconds`` have passed (at least
    one).  Returns [(unit seconds, Tally)] and the ``probe()`` results.

    The machine's speed drifts by tens of percent over seconds, so the
    SETUP_PROBES set-up probes are spread evenly over the run, between
    units; their own time does not count against ``seconds``.
    """
    from workloads import Tally

    units, setup = [], []
    probes = SETUP_PROBES if probe else 0
    busy = 0.0
    while not units or busy < seconds:
        while len(setup) < probes and len(setup) * seconds / probes <= busy:
            setup.append(probe())
        start = time.perf_counter()
        inputs = workload.inputs(first + len(units))
        t0 = time.perf_counter()
        try:
            out = workload.run(inputs)
        except Exception as exc:      # a unit that raises is one failed operation
            elapsed = time.perf_counter() - t0
            tally = Tally()
            tally.add(False, f"unit {first + len(units)} raised {exc!r}")
        else:
            elapsed = time.perf_counter() - t0
            tally = workload.check(inputs, out, elapsed)
            del out               # free the unit's arrays before the next one
        units.append((elapsed, tally))
        del inputs
        busy += time.perf_counter() - start
    while len(setup) < probes:
        setup.append(probe())
    return units, setup


def probe_setup(args):
    """Wall seconds of one fresh process that starts the interpreter,
    imports percograph and sets the workload up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def _read_first_line(path, prefix):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _caches():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "percograph").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args):
    import numpy
    import percograph
    import scipy

    try:
        mpmath = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath,
        "percograph": percograph.__version__, "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _read_first_line("/proc/cpuinfo", "model name"),
        "caches": _caches(),
        "thread_env": {var: os.environ.get(var) for var in PINNED_ENV},
    }


def summarize(units):
    """attempted, failed, missed and notes summed over units; the figures
    (rates named as in the workload's Tally.work)."""
    attempted = sum(t.attempted for _, t in units)
    failed = sum(t.failed for _, t in units)
    missed = sum(t.missed for _, t in units)
    notes = [note for _, t in units for note in t.notes]
    work = {}
    for _, tally in units:
        for name, (count, seconds) in tally.work.items():
            acc = work.setdefault(name, [0.0, 0.0])
            acc[0] += count
            acc[1] += seconds
    figures = {name: count / seconds for name, (count, seconds) in work.items()}
    return attempted, failed, missed, notes, figures


def run_workload(args):
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        try:
            workload.prepare()
        finally:
            workload.close()
        return 0

    setup = []
    tracer = None
    try:
        workload.prepare()
        if args.trace:
            import layers
            from spans import Tracer

            plain, _ = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.patch(layers.TARGETS)
            try:
                traced, _ = measure(workload, args.seconds / 2, first=len(plain))
            finally:
                tracer.unpatch()
            units = plain + traced
            overhead = (statistics.median(s for s, _ in traced)
                        / statistics.median(s for s, _ in plain) - 1.0)
            values = layers.layer_metrics(tracer.spans, len(traced), overhead)
            catalogue = layers.PER_LAYER
        else:
            units, setup = measure(workload, args.seconds, probe=lambda: probe_setup(args))
            catalogue = END_TO_END
    finally:
        workload.close()

    attempted, failed, missed, notes, figures = summarize(units)
    if not args.trace:
        values = {
            "setup_s": statistics.median(setup),
            "unit_s_p50": statistics.median(s for s, _ in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - failed - missed) / attempted,
        }
    figures["fail_frac"] = failed / attempted
    figures["band_missed"] = missed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit, _ in catalogue}}
    record = {"manifest": manifest(args), "result": result, "figures": figures,
              "unit_s": [s for s, _ in units], "setup_s": setup, "violations": notes[:100]}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            tracer.dump(fh)

    report(record, catalogue)
    print(json.dumps(result))
    return 0


def report(record, catalogue):
    result, man = record["result"], record["manifest"]
    err = sys.stderr
    print(f"== {man['workload']} seed={man['seed']} trace={man['trace']} "
          f"units={len(record['unit_s'])}", file=err)
    for name, unit, better in catalogue:
        print(f"  {name:<48} {result['metrics'][name]['value']:>14.6g} {unit:<8} "
              f"({better} is better)", file=err)
    for name, value in sorted(record["figures"].items()):
        print(f"  [figure] {name:<39} {value:>14.6g}", file=err)
    gate = "PASS" if result["correct"] else "FAIL"
    print(f"  gate: {gate} ({result['failed']} of {result['attempted']} operations failed, "
          f"{record['figures']['band_missed']} near-critical misses)", file=err)
    for note in record["violations"][:10]:
        print(f"    violation: {note}", file=err)
    print(f"  env: python {man['python']} numpy {man['numpy']} scipy {man['scipy']} "
          f"mpmath {man['mpmath']} percograph {man['percograph']} "
          f"commit {man['git_commit']} nproc {man['nproc']} cpu {man['cpu_model']} "
          f"caches {man['caches']}", file=err)


def run_all(args):
    """Every workload in its own process; one table of every metric."""
    catalogue = END_TO_END
    if args.trace:
        import layers
        catalogue = layers.PER_LAYER
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'metric':<48} {'unit':<8} {'better':<7}"
          + "".join(f"{name:>17}" for name in WORKLOAD_NAMES))
    for metric, unit, better in catalogue:
        print(f"{metric:<48} {unit:<8} {better:<7}" + "".join(
            f"{results[name]['metrics'][metric]['value']:>17.6g}" for name in WORKLOAD_NAMES))
    gates = [f"{'PASS' if r['correct'] else 'FAIL'} {r['failed']}/{r['attempted']}"
             for r in results.values()]
    print(f"{'gate':<65}" + "".join(f"{gate:>17}" for gate in gates))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "percograph" / "__init__.py").is_file():
        print(f"error: {SRC / 'percograph'} not found; run from the root of a "
              "percograph checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
