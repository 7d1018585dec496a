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
appending the shift.  Sums over a <= a_x contribute nothing because the mask
zeroes them; the lower bounds are exclusive of a_x.  Because a shift must be
followed by an action, summing a full f' gives 1 and the earlier-tick term
needs no action factor.

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
from .ngram import NGramModel


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
        pmf = self._step_pmf()
        lo = self.last_a if self.last_a is not None else 0  # exclusive lower bound
        if dt == 0:
            return float(pmf[lo:a_z].sum())
        total = float(pmf[lo:self.vocab.actions].sum())  # rest of the current tick
        acts = self.vocab.actions
        full = min(dt - 1, self.vocab.s_max)  # shifts landing strictly earlier
        total += float(pmf[acts:acts + full].sum())
        if dt <= self.vocab.s_max:
            shift_sym = self.vocab.shift_symbol(dt)
            p_shift = float(pmf[shift_sym - 1])
            if p_shift > 0.0:
                total += p_shift * float(self._after_shift(shift_sym)[:a_z].sum())
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
        """Each lane's symbol from its first uniform and, after a shift, its
        action from its second, as ``sample`` draws them."""
        acts, model = self.vocab.actions, self.model
        base = self.cur_t * acts - self.last_code
        gaps, used = [], []
        for sym, second in zip(model.symbols(self.ctx, self.last_a, u[:, 0]).tolist(),
                               u[:, 1].tolist()):
            if sym <= acts:
                gaps.append(sym + base)
                used.append(1)
            else:
                action = int(model.symbols(model.context_of(self.tail + (sym,)), sym, second))
                gaps.append(action + base + (sym - acts) * acts)
                used.append(2)
        return np.array(gaps), np.array(used)


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
