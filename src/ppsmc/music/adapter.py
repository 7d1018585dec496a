"""Sequence-model adapter: a symbol step model becomes a process over codes.

The next event after a history ending at (tick t_x, action a_x) is reached
either by another action at t_x (one symbol) or by one shift then an action
(two symbols).  The per-event pdf/cdf follow directly:

  same tick:   pdf(z) = f(a_z)
               cdf(z) = sum of f(a) over a_x < a <= a_z
  later tick:  pdf(z) = f(shift dt) * f'(a_z)
               cdf(z) = sum of f(a) over a > a_x              (rest of t_x)
                      + sum of f(shift d) over d < dt          (earlier ticks)
                      + f(shift dt) * sum of f'(a) over a <= a_z

where f is the masked next-symbol PMF at the history and f' the one after
appending the shift.  Because a shift must be followed by an action, summing a
full f' gives 1 and the earlier-tick term needs no action factor.  Each sum is
read off F or F', the running sums kept beside f and f' that the draws search:
the mask zeroes every action up to a_x and symbols run actions, then shifts by
size, so the sums are F(a_z); F(shift dt - 1) for the first two together; and
F'(a_z).  So a uniform at cdf(d) draws a gap above d, and one just below it not.
A walk step draws all its lanes in one ``draws_many`` call, one search of F
per state and one of each F' however many states' lanes shifted into it.

Gaps are integer code differences, so P(gap >= d) = 1 - cdf(d-1) exactly —
the mass at d itself stays in the denominator of the barrier hazard.

The model state is the gap law, which holds all of the history that f and f'
depend on: the current tick, the last code and the last max(order-1, 1)
symbols, whose final one is both a_x and the symbol the mask conditions on.
A history is stepped once, code by code; each further event is one canonical
step from the last code (``encoding.code_symbols``), which raises the one order
rule's error unless the codes strictly increase; no event object is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..models import InterArrivalDistribution, SequenceModel
from .encoding import Vocabulary, _split_code, code_symbols, codes_to_symbols
from .ngram import NGramModel, search


@dataclass(frozen=True)
class _MusicGap(InterArrivalDistribution):
    model: NGramModel
    cur_t: int         # tick of the last event (0 before any)
    last_code: int     # its code (0 before any)
    tail: tuple        # the last max(order-1, 1) symbols; tail[-1] is its action
    vocab: Vocabulary = field(init=False, compare=False)
    last_a: int | None = field(init=False, compare=False)  # also the masking symbol
    ctx: tuple = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vocab", self.model.vocab)
        object.__setattr__(self, "last_a", self.tail[-1] if self.tail else None)
        object.__setattr__(self, "ctx", self.model.context_of(self.tail))

    def _step_pmf(self):
        return self.model.masked_pmf(self.ctx, self.last_a)

    def _after_shift(self, shift_sym: int):
        ctx2 = self.model.context_of(self.tail + (shift_sym,))
        return self.model.masked_pmf(ctx2, shift_sym)

    def _split(self, d):
        """Decompose a positive integer gap into (tick delta, target action)."""
        t, a_prime = _split_code(self.last_code + int(d), self.vocab)
        return t - self.cur_t, a_prime

    def pdf(self, d):
        if d < 1 or d != int(d):
            return 0.0
        dt, a_z = self._split(d)
        pmf = self._step_pmf()
        if dt == 0:
            return float(pmf[a_z - 1])
        if dt > self.vocab.s_max:
            return 0.0
        shift_sym = self.vocab.shift_symbol(dt)
        p_shift = float(pmf[shift_sym - 1])
        if p_shift == 0.0:
            return 0.0
        return p_shift * float(self._after_shift(shift_sym)[a_z - 1])

    def cdf(self, d):
        d = int(d)
        if d < 1:
            return 0.0
        dt, a_z = self._split(d)
        pmf, cum = self.model._masked(self.ctx, self.last_a)
        if dt == 0:
            return float(cum[a_z - 1])
        shift = self.vocab.actions + dt  # the symbol of a dt-tick shift
        total = float(cum[min(shift - 1, self.vocab.size) - 1])  # rest of t_x, earlier ticks
        if dt <= self.vocab.s_max and pmf[shift - 1] > 0.0:
            after = self.model._masked(self.model.context_of(self.tail + (shift,)), shift)[1]
            total += float(pmf[shift - 1]) * float(after[a_z - 1])
        return total

    def survival(self, d):
        if d <= 1:
            return 1.0
        return max(1.0 - self.cdf(math.ceil(d) - 1), 0.0)

    def sample(self, rng):
        sym = self.model.sample_symbol(self.ctx, self.last_a, rng)
        if self.vocab.is_action(sym):
            code = self.cur_t * self.vocab.actions + sym
        else:
            dt = self.vocab.shift_amount(sym)
            ctx2 = self.model.context_of(self.tail + (sym,))
            action = self.model.sample_symbol(ctx2, sym, rng)
            code = (self.cur_t + dt) * self.vocab.actions + action
        return code - self.last_code

    draw_width = 2  # a symbol, and an action after a shift

    def draws(self, u):
        return self.draws_many([(self, 0, len(u))], u)

    @staticmethod
    def draws_many(groups, u):
        """Each lane's symbol from its first uniform and, after a shift, its
        action from its second, as ``sample`` draws them; the lanes whose
        shifts lead to one table (all unseen contexts share one) search it together."""
        gaps, tables = [], {}  # each after-shift table, by identity: it and its lanes
        for law, a, b in groups:
            acts, model = law.vocab.actions, law.model
            base = law.cur_t * acts - law.last_code
            for row, sym in enumerate(model.symbols(law.ctx, law.last_a, u[a:b, 0]).tolist(), a):
                if sym > acts:  # a shift: the action drawn after it is added below
                    cum = model._masked(model.context_of(law.tail + (sym,)), sym)[1]
                    tables.setdefault(id(cum), (cum, []))[1].append(row)
                    sym = (sym - acts) * acts
                gaps.append(base + sym)
        gaps, used = np.array(gaps), np.ones(len(u), dtype=np.int64)
        for cum, rows in tables.values():
            gaps[rows] += search(cum, u[rows, 1])
            used[rows] = 2
        return gaps, used


class UnrolledMusicModel(SequenceModel):
    """Point process over unrolled codes driven by a symbol step model."""

    def __init__(self, step_model: NGramModel):
        self.step_model = step_model
        self.vocab = step_model.vocab
        self._keep = max(step_model.order - 1, 1)

    def initial_state(self, history):
        tail = tuple(codes_to_symbols(history, self.vocab)[-self._keep:])
        if not tail:
            return _MusicGap(self.step_model, 0, 0, ())
        last = int(history[-1])
        return _MusicGap(self.step_model, _split_code(last, self.vocab)[0], last, tail)

    def advance(self, state, t):
        """Raises ValueError where stepping the extended history would: a code
        not above the last one, or a tick gap beyond s_max."""
        tick, step = code_symbols(int(t), state.last_code, self.vocab)
        return _MusicGap(self.step_model, tick, int(t), (state.tail + step)[-self._keep:])
