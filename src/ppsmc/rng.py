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

``block`` computes the same streams without a generator: it evaluates
Philox4x64-10 in numpy uint64 arithmetic for many keys at once and returns
each key's first block, the 4 words ``stream()`` gives first for that key.
``doubles`` turns words into the doubles ``Generator.random()`` draws from
them, (word >> 11)·2**-53.  A lane of the array walk in ``ppsmc.smc`` takes
its first 4 uniforms from its block; a lane that needs more is walked again
on ``stream()``, whose first 4 ``random()`` draws are those same uniforms,
so its draws continue exactly where the block stops.
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


# Philox4x64-10 (Salmon et al. 2011): each round multiplies two counter words
# by these constants, kept as 32-bit halves and whole, and between rounds
# the key takes a Weyl step
_PHILOX_M = ((np.uint64(0xE14C6C93), np.uint64(0xD2E7470E), np.uint64(0xD2E7470EE14C6C93)),
             (np.uint64(0x95121157), np.uint64(0xCA5A8263), np.uint64(0xCA5A826395121157)))
_PHILOX_W = (0x9E3779B97F4A7C15, np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m·x, built from 32-bit halves."""
    m_lo, m_hi, m_all = m
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    carry = ((lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> _SHIFT32
    return m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + carry, m_all * x


def _coordinate(values, limit: int, what: str) -> np.ndarray:
    a = np.asarray(values)  # an object array holds ints beyond 64 bits
    if a.size and not (a.min() >= 0 and a.max() < limit):
        raise ValueError(f"{what} out of range (max {limit - 1})")
    return a.astype(np.uint64)


def block(seed: int, kind: int, barrier, lanes) -> np.ndarray:
    """Words of the first block of every stream (seed, kind, barrier, lane).

    ``barrier`` and ``lanes`` are integers or integer arrays that broadcast
    together; the result has their broadcast shape plus a last axis of the 4
    uint64 words.  They are the first 4 raw draws of
    ``stream(seed, kind, barrier, lane)``, whose generator encrypts counter 1
    first.  Rejects every coordinate ``stream()`` rejects.
    """
    if not 0 <= kind < _MAX_KINDS:
        raise ValueError(f"stream kind {kind} out of range (max {_MAX_KINDS - 1})")
    barrier = _coordinate(barrier, _MAX_BARRIERS, "barrier index")
    lanes = _coordinate(lanes, _MAX_PARTICLES, "lane index")
    k0, k1 = seed & _SEED_MASK, (np.uint64(kind << 48) | (barrier << _SHIFT32)) | lanes
    x0 = np.ones(k1.shape, dtype=np.uint64)
    x1 = x2 = x3 = np.zeros(k1.shape, dtype=np.uint64)
    with np.errstate(over="ignore"):  # the arithmetic is modulo 2**64 on purpose
        for r in range(_PHILOX_ROUNDS):
            if r:
                k0 = (k0 + _PHILOX_W[0]) & _SEED_MASK
                k1 = k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack((x0, x1, x2, x3), axis=-1)


def doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that ``Generator.random()`` makes of these words."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
