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
per state and one of each F' however many states' lanes shifted into it;
one ``values_many`` call applies the rules above to a barrier's pairs.

Gaps are integer code differences, so P(gap >= d) = 1 - cdf(d-1) exactly —
the mass at d itself stays in the denominator of the barrier hazard.

The model state is the gap law, which holds all of the history that f and f'
depend on: the current tick, the last code and the last max(order-1, 1)
symbols, whose final one is both a_x and the symbol the mask conditions on.
It holds f and F, read once from the n-gram's memo keyed by those symbols,
which also holds f' and F' by them and the shift.  A history is stepped once,
code by code; each further event is one canonical step from the last code
(``encoding.code_symbols``, applied inline by ``advance_many``), which raises
the one order rule's error unless the codes strictly increase; no event
object is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..models import InterArrivalDistribution, SequenceModel
from .encoding import _split_code, code_symbols, codes_to_symbols
from .ngram import NGramModel, search


@dataclass(frozen=True)
class _MusicGap(InterArrivalDistribution):
    model: NGramModel
    cur_t: int         # tick of the last event (0 before any)
    last_code: int     # its code (0 before any)
    tail: tuple        # the last max(order-1, 1) symbols; tail[-1] is its action
    table: tuple = field(init=False, compare=False, repr=False)  # its masked table

    def __post_init__(self):
        object.__setattr__(self, "table", self.model.table(self.tail))

    def pdf(self, d):
        return self.values_many([self], [d], False)[0]

    def cdf(self, d):
        d = int(d)
        if d < 1:
            return 0.0
        vocab, (pmf, cum, _) = self.model.vocab, self.table
        t, a_z = _split_code(self.last_code + d, vocab)
        if t == self.cur_t:
            return float(cum[a_z - 1])
        shift = vocab.actions + t - self.cur_t  # the symbol of the shift to tick t
        total = float(cum[min(shift - 1, vocab.size) - 1])  # rest of t_x, earlier ticks
        if shift <= vocab.size and pmf[shift - 1] > 0.0:
            total += float(pmf[shift - 1]) * float(self.model.table(self.tail, shift)[1][a_z - 1])
        return total

    def survival(self, d):
        if d <= 1:
            return 1.0
        return max(1.0 - self.cdf(math.ceil(d) - 1), 0.0)

    @staticmethod
    def values_many(laws, gaps, b_prev):
        """Each law's ``barrier_weight`` at its gap, or its log density when
        ``b_prev`` is None, bit for bit: the pdf read off the held tables, then
        the hazard (whose survival reads F) or the log."""
        out = []
        for law, d in zip(laws, gaps):
            p, vocab, (pmf, _, _) = 0.0, law.model.vocab, law.table
            if not (d < 1 or d != int(d)):  # an integer gap of 1 or more
                t, a = divmod(law.last_code + int(d) - 1, vocab.actions)  # _split_code
                shift = vocab.actions + t - law.cur_t  # the symbol of the shift to tick t
                if t == law.cur_t:
                    p = float(pmf[a])
                elif shift <= vocab.size and pmf[shift - 1] > 0.0:
                    p = float(pmf[shift - 1]) * float(law.model.table(law.tail, shift)[0][a])
            out.append((math.log(p) if p > 0 else -math.inf) if b_prev is None
                       else law.hazard(d, p) if b_prev else p)
        return out

    def sample(self, rng):
        acts, sym = self.model.vocab.actions, int(search(self.table, rng.random()))
        if sym > acts:  # a shift, then an action
            sym = (sym - acts) * acts + int(search(self.model.table(self.tail, sym), rng.random()))
        return self.cur_t * acts + sym - self.last_code

    draw_width = 2  # a symbol, and an action after a shift

    def draws(self, u):
        return self.draws_many([(self, 0, len(u))], u)

    @staticmethod
    def draws_many(groups, u):
        """Each lane's symbol from its first uniform, one search of its law's
        table per group, and, after a shift, its action from its second, as
        ``sample`` draws them; the lanes whose shifts lead to one table (all
        unseen contexts share one) search it together.  The laws share a model."""
        laws, sizes = [law for law, _, _ in groups], [b - a for _, a, b in groups]
        acts = laws[0].model.vocab.actions
        found = [law.table[1].searchsorted(u[a:b, 0], side="right") for law, a, b in groups]
        last = np.repeat([law.table[2] for law in laws], sizes)
        sym = np.minimum(np.concatenate(found), last) + 1  # ``search``'s rule, per row
        base = np.repeat([law.cur_t * acts - law.last_code for law in laws], sizes)
        shifted = sym > acts  # the action drawn after a shift is added below
        gaps, tables = base + np.where(shifted, (sym - acts) * acts, sym), {}
        rows = shifted.nonzero()[0]
        owners = np.repeat(np.arange(len(laws)), sizes)[rows].tolist()
        for row, k, s in zip(rows.tolist(), owners, sym[rows].tolist()):
            table = laws[k].model.table(laws[k].tail, s)
            tables.setdefault(id(table), (table, []))[1].append(row)
        for table, rows in tables.values():
            gaps[rows] += search(table, u[rows, 1])
        return gaps, 1 + shifted


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
        return self.advance_many([state], [t])[0]

    def advance_many(self, states, times):
        """``advance`` of each pair, ``code_symbols``' checks and step inline; a
        pair that fails a check goes to ``code_symbols``, which raises its error."""
        acts, s_max, keep, out = self.vocab.actions, self.vocab.s_max, self._keep, []
        for state, t in zip(states, times):
            code = int(t)
            tick, a = divmod(code - 1, acts)  # _split_code
            dt = tick - state.cur_t
            if code <= state.last_code or dt > s_max:
                code_symbols(code, state.last_code, self.vocab)
            step = (a + 1,) if dt == 0 else (acts + dt, a + 1)
            out.append(_MusicGap(self.step_model, tick, code, (state.tail + step)[-keep:]))
        return out
