"""Every function the traced benchmark wraps still lives where it is looked up.

``python3 bench/run.py --trace 1`` replaces each ``bench/layers.py``
``TARGETS`` entry by a recording wrapper.  A refactor that moves or
renames one of those functions would otherwise only fail in that run.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
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
