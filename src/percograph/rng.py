"""Seed derivation and per-edge randomness.

All randomness in the package flows through counter-based Philox streams.
Two properties matter:

* ``edge_uniforms(seed, m)[i]`` is a pure function of ``(seed, i)``.  The
  uniform attached to edge ``i`` does not depend on how many other edges
  exist, the order they are visited in, or any thread count, so raising
  the retention probability with the same seed can only open more edges.
* ``derive_seed`` hashes a tuple of integers into a fresh 64-bit stream
  key.  Replicates, overlay draws, and branching estimates each get their
  own derived key, so adding cells or replicates to an experiment never
  perturbs the draws of existing ones.  Each consumer passes tuples of
  one fixed width, because tuples of different widths can collide (see
  ``derive_seed``).
"""

import numpy as np

__all__ = ["derive_seed", "edge_uniforms", "generator"]

# Fixed stream tags so distinct consumers of the same base seed never
# collide (overlay pairs vs. branching runs vs. experiment replicates).
STREAM_OVERLAY = 0x2B88
STREAM_BRANCHING = 0x3C99
STREAM_EXPERIMENT = 0x4DAA


def _as_entropy(part):
    # SeedSequence wants nonnegative ints; fold sign bit in reproducibly.
    part = int(part)
    return part & 0xFFFFFFFFFFFFFFFF


def derive_seed(*parts):
    """Hash a tuple of integers into a single 64-bit seed.

    Built on :class:`numpy.random.SeedSequence`, which hashes the parts'
    32-bit words, not the tuple: each part (taken mod 2**64) becomes one
    word below 2**32 and two words otherwise, the words are concatenated,
    and a sequence shorter than 4 words is zero-padded.  Tuples with the
    same word sequence give the same seed, so ``(7,)`` and ``(7, 0)``
    collide, and so do ``(2**32 + 5,)`` and ``(5, 1)``.  Tuples whose
    word sequences differ give decorrelated seeds, stable across numpy
    versions in practice.  Each caller therefore keeps one tuple width
    per stream; the encoding stays as it is because changing it would
    change every draw in the package.
    """
    entropy = [_as_entropy(p) for p in parts]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


def generator(*parts):
    """Philox generator keyed by the hash of ``parts``."""
    return np.random.Generator(np.random.Philox(key=derive_seed(*parts)))


def edge_uniforms(seed, n_edges):
    """One uniform per edge index, keyed by ``seed``.

    The i-th entry depends only on ``(seed, i)``: Philox is counter-based
    and the block is drawn in a single vectorized call.
    """
    rng = np.random.Generator(np.random.Philox(key=_as_entropy(seed)))
    return rng.random(n_edges)
