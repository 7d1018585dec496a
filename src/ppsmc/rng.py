"""Deterministic stream derivation for parallel-safe sampling.

Every random draw in a run is made on a Philox stream keyed by
``(seed, kind, barrier, particle)``.  Streams are independent of execution
order, so the order in which particles are advanced never changes the
output.  Key packing limits: kind < 2**16, barrier < 2**16, particle < 2**32.

A counter-based generator needs only a new key per stream (Salmon et al.
2011, "Parallel Random Numbers: As Easy as 1, 2, 3"), so each thread keeps
one Philox-backed generator and re-keys it in place rather than building a
new one: a fresh ``Philox(key=...)`` also seeds an OS-entropy
``SeedSequence`` it never uses for these draws.  The reset state it assigns
holds plain Python ints, not numpy arrays: numpy's ``Philox.state`` setter
converts every key, counter and buffer word one by one, and reading a numpy
scalar out of an array for each of them cost more than the rest of a re-key.
"""

from __future__ import annotations

import threading

import numpy as np

# kind tags for the packed key
KIND_PROPOSAL = 0
KIND_RESAMPLE = 1

_MAX_KINDS = 1 << 16
_MAX_BARRIERS = 1 << 16
_MAX_PARTICLES = 1 << 32
_SEED_MASK = (1 << 64) - 1

_thread = threading.local()


def _thread_generator() -> tuple[list, dict, np.random.Philox, np.random.Generator]:
    """The calling thread's key list, reset state, bit generator and generator."""
    key = [0, 0]
    # the state of a fresh Philox(key=key): counter 0, empty buffer; it holds
    # the key list itself, so writing the key in place re-keys the state
    state = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bits = np.random.Philox(key=key)
    _thread.slot = key, state, bits, np.random.Generator(bits)
    return _thread.slot


def stream(seed: int, kind: int, barrier: int, particle: int = 0) -> np.random.Generator:
    """Generator for one (kind, barrier, particle) slot of a run.

    Its draws are exactly those of a fresh ``Generator(Philox(key=k))`` with
    k = (seed mod 2**64, kind << 48 | barrier << 32 | particle).  The object
    returned is the calling thread's one generator, re-keyed: it is valid
    only until the thread's next ``stream()`` call, which resets it.
    """
    if not 0 <= kind < _MAX_KINDS:
        raise ValueError(f"stream kind {kind} out of range (max {_MAX_KINDS - 1})")
    if not 0 <= barrier < _MAX_BARRIERS:
        raise ValueError(f"barrier index {barrier} out of range (max {_MAX_BARRIERS - 1})")
    if not 0 <= particle < _MAX_PARTICLES:
        raise ValueError(f"particle index {particle} out of range")
    try:
        key, state, bits, generator = _thread.slot
    except AttributeError:
        key, state, bits, generator = _thread_generator()
    key[0] = seed & _SEED_MASK
    key[1] = (kind << 48) | (barrier << 32) | particle
    bits.state = state
    return generator


def run_seed(seed: int, run_index: int) -> int:
    """Derive a fresh 64-bit master seed for one run of a multi-run command."""
    ss = np.random.SeedSequence([seed & _SEED_MASK, run_index])
    return int(ss.generate_state(1, np.uint64)[0])
