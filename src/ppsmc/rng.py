"""Deterministic stream derivation for parallel-safe sampling.

Every random draw in a run is made on a Philox stream keyed by
``(seed, kind, barrier, particle)``.  Streams are independent of execution
order, so the order in which particles are advanced never changes the
output.  Key packing limits: kind < 2**16, barrier < 2**16, particle < 2**32.

A counter-based generator needs only a key per stream (Salmon et al. 2011,
"Parallel Random Numbers: As Easy as 1, 2, 3").  ``stream`` builds one
numpy generator for one key, for code that wants a generator.

``block`` computes the same streams without a generator: it evaluates
Philox4x64-10 for many keys and counters at once, in numpy uint64 buffers made
once per call that hold a round's two 128-bit products as rows, each high word
by a carry over 32-bit halves (a few keys go through Python ints instead).
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
# by these constants, and between rounds the key takes a Weyl step
_M0, _M1, _W0, _W1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_FEW_KEYS = 20  # block() in Python ints up to here: below 20-24 keys numpy's call costs more
# the numpy kernel's operands for the rows of a round's two products: the
# multipliers, their 32-bit halves, the Weyl step, and the 32-bit mask and shift
_ROUND = np.array([(_M0, _M1), (_M0 & 0xFFFFFFFF, _M1 & 0xFFFFFFFF), (_M0 >> 32, _M1 >> 32),
                   (_W0, _W1), (0xFFFFFFFF,) * 2, (32, 32)], dtype=np.uint64)[:, :, None]


def _mulhi(x, hi, m_lo, m_hi, low, shift, a, t, s) -> None:
    """hi = the high words of m·x by the carry form t = m_lo·x_hi + (m_lo·x_lo >> 32),
    u = m_hi·x_lo + (t & low), hi = m_hi·x_hi + (t >> 32) + (u >> 32); a, t, s: scratch."""
    np.bitwise_and(x, low, out=a)
    np.right_shift(x, shift, out=hi)
    np.multiply(a, m_lo, out=t)
    np.right_shift(t, shift, out=t)
    np.multiply(hi, m_lo, out=s)
    np.add(t, s, out=t)
    np.multiply(a, m_hi, out=a)
    np.bitwise_and(t, low, out=s)
    np.add(a, s, out=a)  # u
    np.multiply(hi, m_hi, out=hi)
    np.right_shift(t, shift, out=t)
    np.add(hi, t, out=hi)
    np.right_shift(a, shift, out=a)
    np.add(hi, a, out=hi)


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
    return np.uint64(kind << 48) | (barrier << np.uint64(32)) | lanes


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
    if x0.size <= _FEW_KEYS:
        words = list(map(_philox, repeat(k0), k1.ravel().tolist(), x0.ravel().tolist()))
        return np.array(words, dtype=np.uint64).reshape(*x0.shape, 4)
    # rows x = (x0, x2), y = (x3, x1) and the key k; operands n columns wide (a ufunc
    # that broadcasts a column costs twice); round 1 has x1 = x2 = x3 = 0: one product
    n = x0.size
    m, m_lo, m_hi, w, low, shift = np.repeat(_ROUND, n, axis=2)
    x, y, k, hi, a, t, s = np.zeros((7, 2, n), dtype=np.uint64)
    c, k[1] = x0.ravel(), k1.ravel()
    _mulhi(c, x[1], *(v[0] for v in (m_lo, m_hi, low, shift, a, t, s)))
    np.bitwise_xor(x[1], k[1], out=x[1])
    np.multiply(c, m[0], out=y[0])
    x[0] = k[0] = k0
    for _ in range(1, _PHILOX_ROUNDS):  # (x0, x1, x2, x3) <- (hi1^x1^k0, lo1, hi0^x3^k1, lo0)
        np.add(k, w, out=k)
        _mulhi(x, hi, m_lo, m_hi, low, shift, a, t, s)
        np.multiply(x, m, out=x)  # (lo0, lo1): the next y
        np.bitwise_xor(hi, y, out=hi)
        np.bitwise_xor(hi[1], k[0], out=y[0])
        np.bitwise_xor(hi[0], k[1], out=y[1])
        x, y = y, x
    return np.stack((x[0], y[1], x[1], y[0]), axis=-1).reshape(*x0.shape, 4)


def doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that ``Generator.random()`` makes of these words."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
