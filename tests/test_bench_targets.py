"""Every function the benchmark calls still lives where it is looked up.

``python3 bench/run.py --trace 1`` replaces each ``bench/layers.py``
``TARGETS`` entry by a recording wrapper, and each workload in
``bench/workloads.py`` calls the package directly, some of it untraced.
A refactor that moves or renames one of those functions would otherwise
only fail in a benchmark run.
"""

import importlib
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("target", layers.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_traced_target_patches_and_unpatches(target):
    module = importlib.import_module(target[0])
    original = getattr(module, target[1])
    assert callable(original)
    tracer = Tracer()
    tracer.patch([target])
    try:
        assert getattr(module, target[1]).__wrapped__ is original
    finally:
        tracer.unpatch()
    assert getattr(module, target[1]) is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_unit_of_each_workload_runs(name, tmp_path):
    # phase_branch_d1 may fail its survival gate on a correct estimate,
    # so only the others must pass every operation
    workload = workloads.WORKLOADS[name](tmp_path, 1)
    workload.prepare()
    try:
        inputs = workload.inputs(0)
        t0 = time.perf_counter()
        out = workload.run(inputs)
        tally = workload.check(inputs, out, time.perf_counter() - t0)
    finally:
        workload.close()
    assert tally.attempted > 0
    if name != "phase_branch_d1":
        assert tally.failed == 0, tally.notes
