"""Deterministic stream derivation for parallel-safe sampling.

Every random draw in a run is made on a Philox stream keyed by
``(seed, kind, barrier, particle)``.  Streams are independent of execution
order, so the order in which particles are advanced never changes the
output.  Key packing limits: barrier < 2**16, particle < 2**32.
"""

from __future__ import annotations

import numpy as np

# kind tags for the packed key
KIND_PROPOSAL = 0
KIND_RESAMPLE = 1

_MAX_BARRIERS = 1 << 16
_MAX_PARTICLES = 1 << 32


def stream(seed: int, kind: int, barrier: int, particle: int = 0) -> np.random.Generator:
    """Independent generator for one (barrier, particle) slot of a run."""
    if not 0 <= barrier < _MAX_BARRIERS:
        raise ValueError(f"barrier index {barrier} out of range (max {_MAX_BARRIERS - 1})")
    if not 0 <= particle < _MAX_PARTICLES:
        raise ValueError(f"particle index {particle} out of range")
    key = np.empty(2, dtype=np.uint64)
    key[0] = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    key[1] = np.uint64((kind << 48) | (barrier << 32) | particle)
    return np.random.Generator(np.random.Philox(key=key))


def run_seed(seed: int, run_index: int) -> int:
    """Derive a fresh 64-bit master seed for one run of a multi-run command."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, run_index])
    return int(ss.generate_state(1, np.uint64)[0])
