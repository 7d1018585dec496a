"""Additively smoothed n-gram step model over the music symbol vocabulary.

Stands in for a learned sequence model: it exposes exactly the interface the
adapter needs — a PMF over the next symbol given the last order-1 symbols,
with the canonical mask applied at query time (zero out forbidden symbols,
renormalize over the rest).

A model builds each masked table (the PMF, its cumulative sum and its last
symbol with mass) once per pair of what it depends on: the context's counts
row (keyed by the context, or by ``None`` for every context the corpus never
saw, since their rows are all empty) and the mask (keyed by the bounds of
its ``forbidden_symbols`` slice, which all shifts share).  ``table`` maps the
symbols a gap law ends with, and those and a shift, to their shared table in
one lookup; its memo holds references only.  The cumulative sum serves both
the draws, which ``search`` finds in it, and the adapter's cdf, read off it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .encoding import Vocabulary, forbidden_symbols
from .files import in_file, loads

BOS = 0  # padding token for positions before the start; never emitted
FORMAT_VERSION = 1
MAX_ORDER = 64


class NGramModel:
    def __init__(self, vocab: Vocabulary, order: int, alpha: float,
                 counts: dict[tuple, dict[int, int]] | None = None):
        """Refuses an order outside 1..MAX_ORDER.  Training counts one
        ``order``-tuple per corpus symbol and each lookup builds an
        ``order - 1``-tuple, so memory grows as order times corpus length and an
        unbounded order exhausts it.  64 is a chosen cap, not a derived limit:
        far above the orders an additively smoothed n-gram is used at."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if order > MAX_ORDER:
            raise ValueError(f"order must be at most {MAX_ORDER}, got {order}")
        if not 0 <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
        self.vocab = vocab
        self.order = order
        self.keep = max(order - 1, 1)  # the trailing symbols a table depends on
        self.alpha = float(alpha)
        self.counts = counts if counts is not None else {}
        self._pmfs: dict[tuple, tuple] = {}  # by (row, mask)
        self._tables: dict[tuple, tuple] = {}  # by the last `keep` symbols of a tail and shift

    def context_of(self, symbols: Sequence[int]) -> tuple:
        """Last order-1 symbols, BOS-padded on the left."""
        need = self.order - 1
        tail = tuple(symbols[-need:]) if need else ()
        return (BOS,) * (need - len(tail)) + tail

    def raw_pmf(self, context: tuple) -> np.ndarray:
        """Smoothed next-symbol PMF before masking; sums to 1."""
        pmf = np.full(self.vocab.size, self.alpha)
        row = self.counts.get(tuple(context), {})
        pmf[np.fromiter(row, np.intp, len(row)) - 1] += np.fromiter(row.values(), float, len(row))
        total = pmf.sum()
        if total == 0:
            raise ValueError(f"context {context} unseen and alpha=0: PMF undefined")
        return np.divide(pmf, total, out=pmf)

    def _masked(self, context: tuple, prev: int | None) -> tuple:
        context = tuple(context)
        row = context if context in self.counts else None  # unseen contexts' rows are empty
        forbidden = forbidden_symbols(prev, self.vocab)
        shared = (row, forbidden.start, forbidden.stop)
        entry = self._pmfs.get(shared)
        if entry is None:
            pmf = self.raw_pmf(context)
            pmf[forbidden] = 0.0
            total = pmf.sum()
            if total == 0:
                raise ValueError(f"no permitted symbol has positive probability after {prev} "
                                 f"in context {context}; increase alpha")
            pmf /= total
            cum = np.cumsum(pmf)
            entry = self._pmfs[shared] = (pmf, cum, int(cum.searchsorted(cum[-1])))
        return entry

    def table(self, tail: tuple, shift: int | None = None) -> tuple:
        """``_masked`` after the symbols ``tail``, then ``shift`` if given."""
        key = (tail if shift is None else (*tail, shift))[-self.keep:]
        entry = self._tables.get(key)
        if entry is None:
            entry = self._tables[key] = self._masked(self.context_of(key), key[-1] if key else None)
        return entry

    def masked_pmf(self, context: tuple, prev: int | None) -> np.ndarray:
        """Next-symbol PMF with the canonical mask: forbidden entries exactly 0."""
        return self._masked(context, prev)[0]

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "kind": "ngram",
            "order": self.order,
            "alpha": self.alpha,
            "a_max": self.vocab.a_max,
            "s_max": self.vocab.s_max,
            "parts": self.vocab.parts,
            "counts": {" ".join(map(str, ctx)): {str(s): n for s, n in row.items()}
                       for ctx, row in self.counts.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NGramModel":
        """Parse a decoded model file; ValueError on any malformed field."""
        if not isinstance(d, dict):
            raise ValueError(f"model file must hold a JSON object, got {type(d).__name__}")
        if d.get("version", 1) != FORMAT_VERSION or d.get("kind") != "ngram":
            raise ValueError(f"unsupported model file (kind={d.get('kind')!r}, "
                             f"version={d.get('version')!r})")
        for key in ("order", "a_max", "s_max", "parts"):
            if type(d.get(key)) is not int:
                raise ValueError(f"model field {key!r} is missing or not an integer")
        alpha = d.get("alpha")
        if (not isinstance(alpha, (int, float)) or isinstance(alpha, bool)
                or not math.isfinite(alpha)):
            raise ValueError("model field 'alpha' is missing or not a finite number")
        vocab = Vocabulary(a_max=d["a_max"], s_max=d["s_max"], parts=d["parts"])
        rows = d.get("counts")
        if not isinstance(rows, dict) or not all(
                isinstance(row, dict) and all(type(n) is int and n >= 0 for n in row.values())
                for row in rows.values()):
            raise ValueError("model field 'counts' is missing or not an object of objects "
                             "of non-negative integers")
        model = cls(vocab, d["order"], alpha)
        for ctx_key, row in rows.items():
            ctx = tuple(int(x) if x.isdecimal() else -1 for x in ctx_key.split())
            counts = model.counts[ctx] = {int(s) if s.isdecimal() else -1: n
                                          for s, n in row.items()}
            spelled = [ctx_key, *row] == [" ".join(map(str, ctx)), *map(str, counts)]  # as to_dict
            known = len(ctx) == model.order - 1 and all(BOS <= s <= vocab.size for s in ctx)
            if not (spelled and known) or not all(1 <= s <= vocab.size for s in counts):
                raise ValueError(f"model counts row {ctx_key!r} needs {model.order - 1} context "
                                 f"symbols in {BOS}..{vocab.size} and counts of 1..{vocab.size}, "
                                 "each a plain decimal, one space apart")
        return model

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        with in_file(path):
            return cls.from_dict(loads(Path(path).read_text()))


def search(table: tuple, u):
    """The symbol each uniform in ``u`` draws from a masked ``table``: the
    first whose running sum exceeds it.  A uniform at or above the last sum,
    which may round below 1, draws the last symbol with mass."""
    _, cum, last = table
    return np.minimum(cum.searchsorted(u, side="right"), last) + 1


def train_ngram(symbol_seqs: Iterable[Sequence[int]], vocab: Vocabulary,
                order: int, alpha: float) -> NGramModel:
    """Count k-grams over symbol streams and wrap them in a model: each
    stream's windows, zipped from its BOS-padded shifted copies, in one
    ``Counter``.  Every symbol is checked before ``order`` and ``alpha``."""
    seqs = [tuple(seq) for seq in symbol_seqs]
    for seq in seqs:
        if seq and not 1 <= min(seq) <= max(seq) <= vocab.size:
            bad = next(sym for sym in seq if not 1 <= sym <= vocab.size)
            raise ValueError(f"symbol {bad} outside vocabulary of size {vocab.size}")
    model = NGramModel(vocab, order, alpha)
    windows = Counter()
    for seq in seqs:
        padded = (BOS,) * (order - 1) + seq
        windows.update(zip(*(padded[i:] for i in range(order))))
    for (*ctx, sym), n in windows.items():
        model.counts.setdefault(tuple(ctx), {})[sym] = n
    return model
