"""Deterministic stream derivation for parallel-safe sampling.

Every random draw in a run is made on a Philox stream keyed by
``(seed, kind, barrier, particle)``.  Streams are independent of execution
order, so the order in which particles are advanced never changes the
output.  Key packing limits: kind < 2**16, barrier < 2**16, particle < 2**32.

A counter-based generator needs only a key per stream (Salmon et al. 2011,
"Parallel Random Numbers: As Easy as 1, 2, 3").  ``stream`` builds one
numpy generator for one key, for code that wants a generator.

``block`` computes the same streams without a generator: it evaluates
Philox4x64-10 in numpy uint64 arithmetic for many keys and counters at once.
Block c of a key holds the 4 words ``stream()`` gives as its draws 4(c-1) to
4c-1, since the generator encrypts counter 1 first.  ``doubles`` turns words
into the doubles ``Generator.random()`` draws from them, (word >> 11)·2**-53.
The walk in ``ppsmc.smc`` draws every uniform this way: a lane's uniforms
are the doubles of its blocks at counter 1, 2, 3, ... in order, which are
the ``random()`` draws of its ``stream()``.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

# kind tags for the packed key
KIND_PROPOSAL = 0
KIND_RESAMPLE = 1

_MAX_KINDS = 1 << 16
_MAX_BARRIERS = 1 << 16
_MAX_PARTICLES = 1 << 32
_MAX_COUNTERS = 1 << 64
_SEED_MASK = (1 << 64) - 1


def stream(seed: int, kind: int, barrier: int, particle: int = 0) -> np.random.Generator:
    """A fresh ``Generator(Philox(key=k))`` for one (kind, barrier, particle)
    slot of a run, k = (seed mod 2**64, kind << 48 | barrier << 32 | particle)."""
    key = np.array([seed & _SEED_MASK, _key(kind, barrier, particle)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
_M0, _M1, _W0, _W1 = int(_PHILOX_M[0][2]), int(_PHILOX_M[1][2]), _PHILOX_W[0], int(_PHILOX_W[1])
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m·x, built from 32-bit halves."""
    m_lo, m_hi, m_all = m
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    carry = ((lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)) >> _SHIFT32
    return m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + carry, m_all * x


_FEW_KEYS = 32


def _philox(k0: int, k1: int, x0: int) -> tuple[int, int, int, int]:
    """The block at counter (x0, 0, 0, 0) of key (k0, k1), in Python ints."""
    x1 = x2 = x3 = 0
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = (k0 + _W0) & _SEED_MASK, (k1 + _W1) & _SEED_MASK
        p0, p1 = _M0 * x0, _M1 * x2
        x0, x1 = (p1 >> 64) ^ x1 ^ k0, p1 & _SEED_MASK
        x2, x3 = (p0 >> 64) ^ x3 ^ k1, p0 & _SEED_MASK
    return x0, x1, x2, x3


def _coordinate(values, limit: int, what: str, low: int = 0) -> np.ndarray:
    a = np.asarray(values)  # an object array holds ints beyond 64 bits
    if a.size and not (a.min() >= low and a.max() < limit):
        raise ValueError(f"{what} out of range ({low} to {limit - 1})")
    return a.astype(np.uint64)


def _key(kind: int, barrier, lanes) -> np.ndarray:
    """The second key word kind << 48 | barrier << 32 | lane of each stream."""
    if not 0 <= kind < _MAX_KINDS:
        raise ValueError(f"stream kind {kind} out of range (max {_MAX_KINDS - 1})")
    barrier = _coordinate(barrier, _MAX_BARRIERS, "barrier index")
    lanes = _coordinate(lanes, _MAX_PARTICLES, "lane index")
    return np.uint64(kind << 48) | (barrier << _SHIFT32) | lanes


def block(seed: int, kind: int, barrier, lanes, counter=1) -> np.ndarray:
    """Words of block ``counter`` of every stream (seed, kind, barrier, lane).

    ``barrier``, ``lanes`` and ``counter`` are integers or integer arrays that
    broadcast together; the result has their broadcast shape plus a last axis
    of the 4 uint64 words.  Block c holds raw draws 4(c-1) to 4c-1 of
    ``stream(seed, kind, barrier, lane)``, for 1 <= c < 2**64.  Rejects every
    coordinate ``stream()`` rejects.
    """
    counter = _coordinate(counter, _MAX_COUNTERS, "block counter", low=1)
    k0 = seed & _SEED_MASK
    k1, x0 = np.broadcast_arrays(_key(kind, barrier, lanes), counter)
    if x0.size <= _FEW_KEYS:  # numpy's per-call cost is that of ~50 keys in Python ints
        words = list(map(_philox, repeat(k0), k1.ravel().tolist(), x0.ravel().tolist()))
        return np.array(words, dtype=np.uint64).reshape(*x0.shape, 4)
    x1 = x2 = x3 = np.zeros(x0.shape, dtype=np.uint64)
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
