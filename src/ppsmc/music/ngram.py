"""Additively smoothed n-gram step model over the music symbol vocabulary.

Stands in for a learned sequence model: it exposes exactly the interface the
adapter needs — a PMF over the next symbol given the last order-1 symbols,
with the canonical mask applied at query time (zero out forbidden symbols,
renormalize over the rest).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .encoding import Vocabulary, allowed_symbols

BOS = 0  # padding token for positions before the start; never emitted
FORMAT_VERSION = 1


class NGramModel:
    def __init__(self, vocab: Vocabulary, order: int, alpha: float,
                 counts: dict[tuple, dict[int, int]] | None = None):
        if order < 1:
            raise ValueError("order must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.vocab = vocab
        self.order = order
        self.alpha = float(alpha)
        self.counts = counts if counts is not None else {}
        self._cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def context_of(self, symbols: Sequence[int]) -> tuple:
        """Last order-1 symbols, BOS-padded on the left."""
        need = self.order - 1
        tail = tuple(symbols[-need:]) if need else ()
        return (BOS,) * (need - len(tail)) + tail

    def raw_pmf(self, context: tuple) -> np.ndarray:
        """Smoothed next-symbol PMF before masking; sums to 1."""
        pmf = np.full(self.vocab.size, self.alpha)
        for sym, n in self.counts.get(tuple(context), {}).items():
            pmf[sym - 1] += n
        total = pmf.sum()
        if total == 0:
            raise ValueError(f"context {context} unseen and alpha=0: PMF undefined")
        return pmf / total

    def _masked(self, context: tuple, prev: int | None) -> tuple[np.ndarray, np.ndarray]:
        key = (tuple(context), prev)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        pmf = self.raw_pmf(context)
        pmf = np.where(allowed_symbols(prev, self.vocab), pmf, 0.0)
        total = pmf.sum()
        if total == 0:
            raise ValueError(f"no permitted symbol has positive probability after {prev} "
                             f"in context {context}; increase alpha")
        pmf = pmf / total
        entry = (pmf, np.cumsum(pmf))
        self._cache[key] = entry
        return entry

    def masked_pmf(self, context: tuple, prev: int | None) -> np.ndarray:
        """Next-symbol PMF with the canonical mask: forbidden entries exactly 0."""
        return self._masked(context, prev)[0]

    def sample_symbol(self, context: tuple, prev: int | None, rng) -> int:
        cum = self._masked(context, prev)[1]
        idx = int(np.searchsorted(cum, rng.random(), side="right"))
        return min(idx, self.vocab.size - 1) + 1

    def sequence_log_pmf(self, symbols: Sequence[int]) -> float:
        """Masked log probability of a whole symbol stream (for evaluation)."""
        lp = 0.0
        history: list[int] = []
        prev = None
        for sym in symbols:
            p = self.masked_pmf(self.context_of(history), prev)[sym - 1]
            if p <= 0:
                return -np.inf
            lp += float(np.log(p))
            history.append(sym)
            prev = sym
        return lp

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
            if not _is_int(d.get(key)):
                raise ValueError(f"model field {key!r} is missing or not an integer")
        alpha = d.get("alpha")
        if (not isinstance(alpha, (int, float)) or isinstance(alpha, bool)
                or not math.isfinite(alpha)):
            raise ValueError("model field 'alpha' is missing or not a finite number")
        vocab = Vocabulary(a_max=d["a_max"], s_max=d["s_max"], parts=d["parts"])
        rows = d.get("counts")
        if not isinstance(rows, dict) or not all(
                isinstance(row, dict) and all(_is_int(n) and n >= 0 for n in row.values())
                for row in rows.values()):
            raise ValueError("model field 'counts' is missing or not an object of objects "
                             "of non-negative integers")
        counts = {}
        for ctx_key, row in rows.items():
            ctx = tuple(int(x) for x in ctx_key.split()) if ctx_key else ()
            counts[ctx] = {int(s): n for s, n in row.items()}
            if not all(1 <= sym <= vocab.size for sym in counts[ctx]):
                raise ValueError(f"model counts after context {ctx_key!r} name a symbol "
                                 f"outside 1..{vocab.size}")
        return cls(vocab, d["order"], alpha, counts)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def train_ngram(symbol_seqs: Iterable[Sequence[int]], vocab: Vocabulary,
                order: int, alpha: float) -> NGramModel:
    """Count k-grams over symbol streams and wrap them in a model."""
    counts: dict[tuple, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    need = order - 1
    for seq in symbol_seqs:
        for sym in seq:
            if not 1 <= sym <= vocab.size:
                raise ValueError(f"symbol {sym} outside vocabulary of size {vocab.size}")
        padded = (BOS,) * need + tuple(seq)
        for i, sym in enumerate(seq):
            counts[padded[i:i + need]][sym] += 1
    frozen = {ctx: dict(row) for ctx, row in counts.items()}
    return NGramModel(vocab, order, alpha, frozen)
