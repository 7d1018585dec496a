"""Particle-filter sampling of a point process conditioned on required events.

A constraint set fixes times z_1 < ... < z_r that must appear in the sampled
sequence.  Flag b_i says whether free events are allowed in the open interval
(z_i, z_{i+1}); b_0 = True by convention (events before z_1 are always
allowed), and b_r = False forces the sequence to end exactly at z_r.

Sampling proceeds barrier to barrier.  In a free segment each particle runs
the model forward, clipping the first crossing to the barrier itself; the
particle's weight, ``models.barrier_weight``, is the hazard f(d)/P(gap >= d)
of the clipped gap, which corrects for the clip.  In a forbidden segment the
barrier is appended directly with weight f(d).  After each interior barrier
the ensemble is systematically resampled.  The final open segment carries unit weights and is
not resampled.  ``run_barriers`` is the barrier loop: the walk proposes
and values every child, a selection rule picks the children kept, and the
walk keeps them; the loop collects each barrier's diagnostics row and
returns the ``EnsembleResult``.  The filter and the beam baseline
(``ppsmc.beam``) differ only in their selection rule: the filter resamples
by barrier weight, the beam keeps the best path log probabilities.

A lane is a path's one child at one level (a barrier, or the open tail): a
particle, or a beam candidate; a rule that wants more (the beam's b) keeps
a path that many times.  Every model is walked by one grouped walk
(``_Walk``): lanes in equal states form a group, and a step draws every
group's gaps in one ``draws_many`` call, from uniforms taken in order from
their Philox blocks (``rng.block``), the draws their ``stream()`` would
give; the distinct (state, time) and (law, gap) pairs of a step or a
barrier are advanced or valued in one ``advance_many`` or ``values_many``
call; a fixed-law run proposes together the barriers whose first blocks
are drawn together, and values them in one call of its law's own ``weights``
if it has one.  The walk owns the paths: they are stored as each barrier's
segments plus the indices of the children kept (Jacob, Murray & Rubenthaler
2015, "Path storage in the particle filter"), and the samples are built
once, at the end, a chunk of barriers at a time.
The runs of many seeds are one walk (``conditional_runs``, and the beam's
``beam_search_runs``): their lanes are rows (run, lane), each run selects
from its own slice, and each gets the bytes it gets alone.

All randomness is drawn from per-(barrier, particle) Philox streams derived
from one master seed, so a run is a deterministic function of its seed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import models
from .models import (InterArrivalDistribution, IterationLimitError, RenewalModel, SequenceModel,
                     barrier_weight, history_end)  # barrier_weight: traced by name
from .rng import KIND_PROPOSAL, KIND_RESAMPLE, block, doubles, seed_words


@dataclass(frozen=True)
class ConstraintSet:
    """Required event times plus per-gap freedom flags.

    ``b[i]`` governs the open interval after ``z[i]``: True allows free
    events between z_i and the next constraint (or the horizon for the last
    flag), False forbids them.
    """

    z: tuple
    b: tuple

    def __post_init__(self):
        z = tuple(self.z)
        b = tuple(bool(v) for v in self.b)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "b", b)
        if len(z) != len(b):
            raise ValueError(f"expected one flag per constraint, got {len(z)} times and "
                             f"{len(b)} flags")
        for t in z:
            if isinstance(t, float) and not math.isfinite(t):
                raise ValueError(f"constraint time must be finite, got {t!r}")
        models.history_end((0, *z))  # positive and strictly increasing

    @property
    def r(self) -> int:
        return len(self.z)


def satisfies(seq: Sequence[float], constraints: ConstraintSet) -> bool:
    """Exact indicator: every z present, no events inside forbidden gaps."""
    present = set(seq)
    if any(z not in present for z in constraints.z):
        return False
    zs = constraints.z
    for i, allowed in enumerate(constraints.b):
        if allowed:
            continue
        lo = zs[i]
        hi = zs[i + 1] if i + 1 < len(zs) else math.inf
        if any(lo < t < hi for t in seq):
            return False
    return True


@dataclass(frozen=True)
class BarrierDiagnostics:
    barrier_index: int  # 1-based
    ess: float
    min_weight: float
    max_weight: float
    dead_count: int

    to_dict = asdict


@dataclass
class EnsembleResult:
    samples: list
    survived: bool
    failed_barrier: int | None
    diagnostics: list
    log_probs: list | None = None  # filled by beam search


def _checked(weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    bad = ~(np.isfinite(w) & (w >= 0))
    if bad.any():
        raise ValueError(f"weights must be finite and non-negative, got {float(w[bad.argmax()])!r}")
    return w


def effective_sample_size(weights: Sequence[float]) -> float:
    """(sum w)^2 / sum(w^2); ranges from 1 (degenerate) to len(weights).

    Taken on ``w / max(w)``, the same in exact arithmetic: no square overflows
    and the sum of squares is at least 1.  Both sums are cumulative sums, which
    add left to right and so round as a Python loop does (``np.sum`` does not).
    """
    w = _checked(weights)
    if not w.any():
        raise ValueError("all weights are zero")
    w = w / w.max()
    total = float(np.cumsum(w)[-1])
    return total * total / float(np.cumsum(w * w)[-1])


def systematic_indices(weights: Sequence[float], u: float) -> tuple[int, ...]:
    """Offspring indices for systematic resampling at offset u in (0, 1].

    One deterministic pass: the l-th of S evenly spaced pointers
    (u + l)/S picks the first index whose cumulative normalized weight
    reaches it.  Uniform weights reproduce the identity; every index's
    offspring count differs from S*w_normalized by strictly less than 1.

    Each pick is the one exact arithmetic makes, so neither guarantee can
    flip on an unlucky rounding boundary.  A numpy pass picks index k for
    pointer p_l = (u + l)·T/S by searching the float cumsum, and its pick is
    kept only when every pointer clears both neighbouring boundaries by more
    than B = 2(S + 2)·eps·T̂; otherwise the exact-integer pass decides.  The
    bound: with unit roundoff eps/2 and nonnegative weights, the sequential
    cumsum ĉ_j is off its exact c_j by at most j·(eps/2)·c_j/(1 - j·eps/2)
    (sums that underflow into subnormals are exact), so by at most about
    S·(eps/2)·T, and so is the float total T̂ from T.  The pointer
    fl(fl(u + l)·fl(T̂/S)) adds three roundings, under 2·eps·T̂, and, if it
    underflows, at most (S + 1)·2**-1075, which is below (S + 1)·(eps/2)·T̂
    once T̂ is a normal float.  So ĉ_j - p̂_l is within (3S/2 + 3)·eps·T̂ of
    c_j - p_l, and a gap computed above B (itself rounded by at most eps/2)
    has the sign of the exact one.  A total that is not a finite normal
    float, and any pointer closer than B to a boundary (uniform weights at
    u = 1 put every pointer on one), take the exact pass.
    """
    return tuple(_picks(_checked(weights), u).tolist())


def _picks(w: np.ndarray, u: float) -> np.ndarray:
    """``systematic_indices`` of checked weights, as an index array."""
    if not (0.0 < u <= 1.0):
        raise ValueError(f"offset u must lie in (0, 1], got {u!r}")
    n = len(w)
    with np.errstate(over="ignore"):  # an infinite total takes the exact pass
        cum = np.cumsum(w)
    if n == 0 or cum[-1] == 0:
        raise ValueError("all weights are zero")

    total = float(cum[-1])
    if sys.float_info.min <= total < math.inf:
        pointers = (u + np.arange(n)) * (total / n)
        picks = np.minimum(np.searchsorted(cum, pointers), n - 1)
        # edges[k] and edges[k + 1] bound pick k: the cumsum before it, or
        # -inf, and its own, or +inf for the last index, which the pass
        # takes whenever no earlier boundary reaches the pointer
        edges = np.concatenate(((-math.inf,), cum[:-1], (math.inf,)))
        bound = 2 * (n + 2) * sys.float_info.epsilon * total
        if min((pointers - edges[picks]).min(), (edges[picks + 1] - pointers).min()) > bound:
            return picks
    return np.array(_exact_systematic_indices(w.tolist(), u))


def _exact_systematic_indices(weights: list[float], u: float) -> tuple[int, ...]:
    """``systematic_indices`` for checked weights, compared in exact integer
    arithmetic: floats decompose losslessly via as_integer_ratio."""
    n = len(weights)
    ratios = [w.as_integer_ratio() for w in weights]
    scale = max(den for _, den in ratios)  # dens are powers of two
    scaled = [num * (scale // den) for num, den in ratios]
    total = sum(scaled)

    # Pointer l sits at mass (u + l) * total / n; with u = p/q the
    # comparison n*cum < (u + l) * total becomes q*n*cum < (p + l*q) * total.
    p, q = u.as_integer_ratio()
    out = []
    j = 0
    cum = q * n * scaled[0]
    step = q * n
    for l in range(n):
        pointer = (p + l * q) * total
        while cum < pointer and j < n - 1:
            j += 1
            cum += step * scaled[j]
        out.append(j)
    return tuple(out)


# keys per Philox block call (~0.1 ms with a few keys, ~0.6-0.9 ms with 4,096, ~2-3 ms
# with 16,384, on 2 Xeon cores): the first blocks of several barriers are drawn at once
_BLOCK_KEYS = 16384
# the most gaps a step draws in all when renewal lanes draw runs of gaps
_MAX_RUN = 1 << 16
# paths a batch of runs walks together (at least one run): a walk's peak memory grows
# with its paths, about 1 KB each on the grid, and past a few thousand no faster
_BATCH_ROWS = 4096


class _Walk:
    """The paths of a batch of runs, run by run (``sizes``, each run's count):
    the times each level's children appended (lane t of a run the one child
    of its path t), the children kept at each level, and each path's state
    and, with ``score``, its fold (the log probability of its times past the
    history, added left to right).

    Children are walked as rows that step together: at each step the rows
    still short of their barrier are grouped by state, and one call of the
    laws' ``draws_many`` (the default's, if laws of several classes share the
    step) draws a gap per row from the rows' next uniforms, the one way the
    walk draws.  Lane l's uniforms at level i are the doubles of its blocks
    (its run's seed, KIND_PROPOSAL, i, l) at counters 1, 2, 3, ...; the first
    blocks, of every lane of every run, are drawn ahead for several levels at
    once, later ones when a row gets to them.  States are interned across
    runs, so equal states are one object and one group, and one
    ``advance_many`` call takes each distinct (state, time) pair of a step once.
    A model whose ``advance`` is ``RenewalModel``'s keeps its first state, so
    its walk proposes a chunk of barriers as rows (barrier, lane): those
    whose first blocks are drawn together, while the runs' sizes stay those
    of the first.  A chunk ends before the first barrier with a failing row.  Once it
    has drawn a gap such a row draws runs of gaps, each as long as all before it,
    if its law keeps the quantile ``draws``, so a million events take a few dozen steps.
    The children all start at the barrier before them, whatever was kept, so a
    law with its own ``weights`` values the chunk in one call; any other law is
    valued at each barrier, lest a hazard raise before an earlier barrier's death.

    A chunk is stored as its free times (those short of the barrier; in the
    open tail, those at or below the horizon) row by row, where each row's
    begin, one more entry for the end, and each level's first row, plus the
    indices of the children kept; the barrier itself, the z object, is put
    back when ``paths`` builds the samples.
    """

    def __init__(self, model, law, seeds, horizon, score, width, start, constraints):
        self.model, self.seeds, self.score, self.lanes = model, seeds, score, width
        self.fixed = type(model).advance is RenewalModel.advance
        self.table, self.index = [], {}
        self.sizes = (width,) * len(seeds)  # each run's paths, run by run, set by the loop
        self.sids = np.full(len(seeds) * width, self._intern(law))  # each path's state
        self.folds = np.zeros(len(self.sids))  # and its fold
        self.runs = self.fixed and type(law).draws is InterArrivalDistribution.draws
        self.weights = self.fixed and getattr(law, "weights", None)  # the law's own array form
        self.blocks = min(4, (law.draw_width + 6) // 4)  # drawn ahead: a draw fits at any offset
        # each level's stop (its barrier, or the horizon for the open tail), flag and start
        self.stops, self.flags, self.starts = ((*constraints.z, horizon), (True, *constraints.b),
                                               (start, *constraints.z))
        self.levels, self.lineage = {}, []  # each chunk's times, begins, levels; each level's kept
        self._ahead = 0, np.empty((0, len(self.sids), 4 * self.blocks))  # first level, blocks
        self.chunk = 0, 0, self.sizes  # the levels last walked together and their runs' sizes

    def _intern(self, state) -> int:
        """The id of the state equal to ``state`` (the same object if unhashable)."""
        key = state if type(state).__hash__ is not None else ("id", id(state))
        sid = self.index.setdefault(key, len(self.table))
        if sid == len(self.table):
            self.table.append(state)
        return sid

    def _uniforms(self, u, rows, at, w, i, n) -> np.ndarray:
        """Each row's next ``w`` uniforms from uniform ``at`` on, ``u`` holding
        every row's first blocks; row r is path r % n's child at level i + r // n."""
        if at.max() + w > u.shape[1]:  # past the blocks drawn ahead: drawn for this step
            level, path = np.divmod(rows, n)
            run, lane = np.divmod(self.slots[path], self.lanes)
            words = block(self.seeds[run][:, None], KIND_PROPOSAL, (i + level)[:, None],
                          lane[:, None], (at >> 2)[:, None] + np.arange(1, (w + 6) // 4 + 1))
            u, rows, at = doubles(words).reshape(len(rows), -1), np.arange(len(rows)), at & 3
        return u[rows[:, None], at[:, None] + np.arange(w)]

    def propose(self, i):
        """Level i's children, walked now or with their chunk, and one value
        per child for ``select``: with ``score`` its fold, its parent's
        followed by the log density of each time it appended; else its
        ``barrier_weight``.  The open tail selects nothing."""
        z, clip = self.stops[i], i + 1 < len(self.stops)
        n = len(self.sids)
        first, end, sizes = self.chunk[:3]
        if not (first <= i < end and sizes == self.sizes):
            self._walk(i)
        first, _, _, times, begin, pos, sids, logs, valued = self.chunk
        a = (i - first) * n  # the level's first row
        self.levels.setdefault(id(times), (times, begin, i, []))[3].append(a)
        self.level_sids = sids[a:a + n]
        values = None  # the tail's weights are not used
        if self.score:  # add.at adds a lane's repeated entries in turn, left to right
            values = self.folds.copy()
            rows, states, gaps, entries = logs
            span = slice(entries[a], entries[a + n])  # the level's lanes' entries
            np.add.at(values, rows[span] - a,
                      valued[span] if self.weights else self._each(states[span], gaps[span]))
        elif clip:
            values = (valued[a:a + n] if self.weights
                      else self._each(sids[a:a + n], z - pos[a:a + n], self.flags[i]))
        if not clip:
            self.lineage.append(np.arange(n))
            self.folds = values
        return values

    def _walk(self, i, upto=None) -> None:
        """Walk the children of levels i to upto - 1 (by default, i's chunk) as
        rows: row r is path r % n's child at level i + r // n.  A row that fails
        at a level k > i ends the chunk before k, and the walk is made again."""
        b0, ahead = self._ahead
        if not b0 <= i < b0 + len(ahead):  # every lane's first blocks, for levels sharing a call
            k, runs = self.blocks, len(self.seeds)
            levels = np.arange(i, min(i + max(1, _BLOCK_KEYS // (k * runs * self.lanes)),
                                      len(self.stops)))
            words = block(self.seeds[:, None, None], KIND_PROPOSAL, levels[:, None, None, None],
                          np.arange(self.lanes)[:, None], np.arange(1, k + 1))
            b0, ahead = self._ahead = i, doubles(words).reshape(len(levels), -1, 4 * k)
        z, clip = self.stops[i], i + 1 < len(self.stops)
        upto = upto or (min(b0 + len(ahead), len(self.stops) - 1) if self.fixed and clip else i + 1)
        n = len(self.sids)
        # each path's run * width + lane, its lanes' column in the blocks drawn ahead
        self.slots = _spans(np.arange(len(self.sizes)) * self.lanes, np.array(self.sizes))
        u = ahead[i - b0:upto - b0]  # the rows' first blocks: every lane's, unless some are gone
        u = (u if n == u.shape[1] else u[:, self.slots]).reshape(-1, ahead.shape[2])
        pos = np.repeat(self.starts[i:upto], n)  # each row's last time
        stop = np.repeat(self.stops[i:upto], n)  # walked while below
        free = np.repeat(self.flags[i:upto], n)
        sids = np.tile(self.sids, upto - i)
        at = np.zeros(len(pos), dtype=np.int64)  # each row's next uniform
        active = np.flatnonzero(free & (pos < stop))
        times, drawn = [], 0  # what each step appended; gaps each active row drew
        forced = np.flatnonzero(~free)  # rows that append their barrier directly
        logs = [(forced, sids[forced], stop[forced] - pos[forced])] if len(forced) else []
        while active.size:
            s_act = sids[active]
            bounds = [0, len(active)]
            if not self.fixed:  # group the rows by state
                order = s_act.argsort(kind="stable")
                active, s_act = active[order], s_act[order]
                bounds[1:1] = ((s_act[1:] != s_act[:-1]).nonzero()[0] + 1).tolist()
            groups = [(self.table[s], a, b)
                      for s, a, b in zip(s_act[bounds[:-1]].tolist(), bounds, bounds[1:])]
            count = 1  # gaps each row draws this step
            if self.runs and drawn:
                count = min(drawn, max(1, _MAX_RUN // len(active)), models.MAX_EVENTS - drawn)
            u_act = self._uniforms(u, active, at[active], count if self.runs else
                                   max(law.draw_width for law, _, _ in groups), i, n)
            d, used = _hooks([law for law, _, _ in groups]).draws_many(groups, u_act)
            at[active] += used
            prev, lim = pos[active], stop[active]
            if count == 1:  # one time per row
                t = prev + d
                going = t < lim  # a nan time ends a row too
                t_last, end, entry_rows, entry_states = t[going], ~going, active, s_act
            else:  # a run: each row's times up to the one that ends it
                path = np.cumsum(np.hstack((prev[:, None], d)), axis=1)
                below = path[:, 1:] < lim[:, None]
                going = below.all(axis=1)
                first = np.where(going, count, (~below).argmax(axis=1))
                rows, k = (np.arange(count) <= first[:, None]).nonzero()
                stopped, t_last = ~going, path[going, -1]
                d, prev, t, end = d[rows, k], path[rows, k], path[rows, k + 1], k == first[rows]
                entry_rows, entry_states, lim = active[rows], s_act[rows], lim[rows]
            bad = d <= 0
            if np.count_nonzero(bad) or drawn + count >= models.MAX_EVENTS and going.any():
                failed = int((entry_rows[bad] if bad.any() else active[going]).min())
                if failed >= n:  # the chunk ends before the first level with a failing row
                    return self._walk(i, i + failed // n)
                if bad.any():
                    raise ValueError(f"model produced a non-positive gap: {d[bad][0].item()!r}")
                target = "barrier" if clip else "horizon"
                raise IterationLimitError(f"segment did not reach {target} {z!r} within "
                                          f"{models.MAX_EVENTS} draws")
            if t.dtype != pos.dtype:
                pos = pos.astype(t.dtype)
            if count > 1:  # the time before its last gives a stopped row's final gap
                pos[active[stopped]] = path[stopped, first[stopped]]
            active, drawn = active[going], drawn + count
            pos[active] = t_last
            # the times kept: short of the barrier, or in the tail not past the horizon
            stored = ~end if clip else t <= z  # a nan time is past both
            times.append((entry_rows[stored], t[stored]))
            if self.score and clip:  # the last gap of a row is clipped to the barrier
                logs.append((entry_rows, entry_states, np.where(end, lim - prev, t - prev)))
            elif self.score:
                logs.append((entry_rows[stored], entry_states[stored], (t - prev)[stored]))
            if not self.fixed and active.size:
                sids[active] = self._once(self._advance, s_act[going], t_last, np.int64)
        _, values, begin = _by_row(times or [(np.empty(0, dtype=np.int64), np.empty(0))], len(pos))
        if self.score:
            logs = _by_row(logs or [(np.empty(0, dtype=np.int64),) * 3], len(pos))
        valued = None  # a fixed law's children, each valued as the loop would value it
        if self.weights and (self.score or clip):
            valued = self.weights(logs[2], None) if self.score else self.weights(stop - pos, free)
        self.chunk = i, upto, self.sizes, values, begin, pos, sids, logs, valued

    def _each(self, sids: np.ndarray, gaps: np.ndarray, b_prev: bool | None = None) -> np.ndarray:
        """Each lane's log density (``b_prev`` None) or barrier weight of its gap, in state
        ``sids``, by one ``values_many`` call over the distinct (state, gap) pairs."""
        return self._once(lambda laws, d: _hooks(laws).values_many(laws, d, b_prev),
                          sids, gaps, float)

    def _advance(self, states: list, times: list) -> list:
        """The ids of the interned states after each (state, time) pair."""
        return [self._intern(state) for state in self.model.advance_many(states, times)]

    def _once(self, f: Callable, sids: np.ndarray, values: np.ndarray, dtype) -> np.ndarray:
        """f(states, values) over every distinct (sid, value) pair at once, in order
        of first appearance, one result per pair: each entry gets its pair's."""
        order = np.lexsort((values, sids))  # stable: a pair's entries stay in turn
        s, v, new = sids[order], values[order], np.ones(len(order), dtype=bool)
        new[1:] = (s[1:] != s[:-1]) | (v[1:] != v[:-1])  # a pair's first entry
        first, pair = order[new], np.empty_like(order)  # pairs in sorted order
        pair[order] = first.argsort().argsort()[new.cumsum() - 1]  # by first appearance
        first.sort()
        done = f([self.table[s] for s in sids[first].tolist()], values[first].tolist())
        return np.array(done, dtype=dtype)[pair]

    def keep(self, kept, z, values) -> None:
        """Make the children ``kept`` (indices into the level last proposed,
        possibly repeated) the paths, with ``score`` each with its value as
        its fold, and advance the state of each past barrier z, once per
        distinct state; the copies of a child share that state."""
        kept = np.asarray(kept)
        self.lineage.append(kept)
        if self.score:
            self.folds = values[kept]
        self.sids = (np.zeros(len(kept), dtype=np.int64) if self.fixed  # the first state
                     else self._once(lambda states, _: self._advance(states, [z] * len(states)),
                                     self.level_sids[kept], np.zeros(len(kept)), np.int64))

    def paths(self, history: Sequence, zs: tuple) -> tuple[list, list | None]:
        """Each final path's times, as a tuple: its history, then at every
        level the free times of the child it descends from there and, at a
        barrier, the barrier's z; and with ``score`` the paths' folds.  A path
        is followed back through the kept indices of every level.  After an
        open tail no time lies past the horizon, history included (only a
        history without barriers can reach past it)."""
        picks = np.empty((len(self.lineage), len(self.lineage[-1])), dtype=np.int64)
        paths = np.arange(picks.shape[1])
        for i in reversed(range(len(picks))):  # a level's children are the paths kept before it
            picks[i] = paths = self.lineage[i][paths]

        def chunks() -> Iterator:  # each chunk's times and zs, each (level, path)'s start and count
            for times, begin, i, firsts in self.levels.values():
                rows = picks[i:i + len(firsts)] + np.array(firsts)[:, None]
                yield times, zs[i:i + len(firsts)], begin[rows], begin[rows + 1] - begin[rows]

        sizes = sum(n.sum(axis=0) for *_, n in chunks()) + len(zs)
        out, ends = np.empty(sizes.sum(), dtype=object), np.cumsum(sizes)
        at = ends - sizes  # where each path's next time goes
        for times, z, starts, n in chunks():  # a chunk at a time: the temporaries stay small
            end = at + np.cumsum(n + bool(z), axis=0)  # each (level, path)'s end, past its z
            got = times[_spans(starts.ravel(), n.ravel())]  # numbers, made objects as they go in
            out[_spans((end - n - bool(z)).ravel(), n.ravel())] = got
            out[end[:len(z)] - 1] = np.array(z, dtype=object)[:, None]  # the z objects themselves
            at = end[-1]
        if self.flags[-1]:  # an open tail drops every time past the horizon
            history = models.trim_at_horizon(list(history), self.stops[-1])
        bounds, out = [0, *ends.tolist()], out.tolist()
        samples = [(*history, *out[a:b]) for a, b in zip(bounds, bounds[1:])]
        return samples, self.folds.tolist() if self.score else None


def _hooks(laws: list) -> type:
    """The class whose batch hooks serve ``laws``: theirs if one, else the default's."""
    kinds = {type(law) for law in laws}
    return kinds.pop() if len(kinds) == 1 else InterArrivalDistribution


def _by_row(entries: list, n: int) -> tuple:
    """The arrays of each step's ``entries``, the first holding each entry's
    row, concatenated in row order (each row's in step order), and where
    each of the n rows' entries begin."""
    rows, *rest = map(np.concatenate, zip(*entries))
    order = rows.argsort(kind="stable")
    begin = np.concatenate(([0], np.bincount(rows, minlength=n).cumsum()))
    return (*(a[order] for a in (rows, *rest)), begin)


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices start, start + 1, ..., start + length - 1 of every span, in order."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def check_span(z: Sequence, initial_history: Sequence, horizon: float = math.inf) -> float:
    """The end of ``initial_history``; raises ValueError unless the history
    strictly increases and the constraint times ``z`` lie past its end, not past ``horizon``."""
    start = history_end(initial_history)
    if z and z[0] <= start:
        raise ValueError(f"first constraint {z[0]!r} does not lie beyond the history end {start!r}")
    if z and z[-1] > horizon:
        raise ValueError(f"constraint {z[-1]!r} lies beyond the horizon {horizon!r}")
    return start


def run_barriers(model: SequenceModel, constraints: ConstraintSet, seeds: Sequence[int],
                 width: int, select: Callable, *, horizon: float,
                 initial_history: Sequence[float], score: bool = False) -> Iterator[EnsembleResult]:
    """Extend ``width`` copies of the history barrier by barrier for each seed
    and yield each run's ``EnsembleResult``; the loop shared by the filter and
    the beam.  Runs are walked together, up to ``_BATCH_ROWS`` paths at once.

    The loop is propose, select, keep.  Path t of seed s's run draws its one
    child at level i (barrier i, 0-based, or the open tail, i = r) from the
    stream (s, KIND_PROPOSAL, i, t).  ``select(k, i, values)`` gets the walk's
    one value per child of the run of ``seeds[k]``, in lane order: with
    ``score``, the child's fold, the log probability of its path past the
    history; else its ``barrier_weight``.  It returns ``(kept, row)``: the
    indices of the children that become the next paths, in order, possibly
    repeated (a child kept twice is two paths), or None when none can
    continue (the run then fails at barrier i + 1), and the barrier's
    diagnostics row.  The walk (``_Walk``) holds the paths: it records the
    kept children and their folds, and advances only their states past the
    barrier, so a dead child clipped at a time the model cannot reach is
    never stepped into.  If b_r is True, each path finally draws its open
    tail to the horizon, keeping its times at or below it.  The walk then
    builds each sample once and, with ``score``, reports each sample's fold
    in ``log_probs``.  A walk that raises is made again one run at a time, so
    what is yielded and raised is what running the seeds in turn would give.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    start = check_span(constraints.z, initial_history, horizon)

    def batch(runs) -> list:  # the runs of seeds[runs], walked together
        walk = _Walk(model, model.initial_state(initial_history), words[runs], horizon, score,
                     width, start, constraints)
        results = [EnsembleResult(samples=[], survived=True, failed_barrier=None, diagnostics=[])
                   for _ in runs]
        for i, z in enumerate(constraints.z):
            values, kept, a = walk.propose(i), [], 0
            for result, k, n in zip(results, runs, walk.sizes):
                keep = ()  # a dead run keeps nothing
                if n:
                    keep, row = select(k, i, values[a:a + n])
                    result.diagnostics.append(row)
                    if keep is None:
                        keep, result.survived, result.failed_barrier = (), False, i + 1
                kept.append(a + np.asarray(keep, dtype=np.int64))
                a += n
            walk.sizes = tuple(map(len, kept))
            if not any(walk.sizes):
                return results
            walk.keep(np.concatenate(kept), z, values)
        if walk.flags[-1]:
            walk.propose(constraints.r)
        samples, log_probs = walk.paths(initial_history, constraints.z)
        for result, a, n in zip(results, np.cumsum((0, *walk.sizes)).tolist(), walk.sizes):
            if n:  # a run that survived
                result.samples = samples[a:a + n]
                result.log_probs = log_probs and log_probs[a:a + n]
        return results

    words, per = seed_words(list(seeds)), max(1, _BATCH_ROWS // width)
    for g in range(0, len(words), per):
        runs = range(g, min(g + per, len(words)))
        try:
            results = batch(runs)
        except Exception:  # one run at a time, the first that fails raises its error
            if len(runs) == 1:
                raise
            results = (batch(range(k, k + 1))[0] for k in runs)
        yield from results


def conditional_runs(model: SequenceModel, constraints: ConstraintSet, num_particles: int,
                     seeds: Sequence[int], *, horizon: float = 1.0,
                     initial_history: Sequence[float] = ()) -> Iterator[EnsembleResult]:
    """An iterator of each seed's ``conditional_sample``, the runs walked together."""
    if num_particles < 1:
        raise ValueError("need at least one particle")

    # each run's offset at each barrier, in (0, 1]: the first uniform of its stream
    seeds = list(seeds)
    offsets = 1.0 - doubles(block(seed_words(seeds)[:, None], KIND_RESAMPLE,
                                  np.arange(constraints.r), 0))[..., 0]

    def resample(k, i, weights):  # the ESS checks the weights it picks from
        dead = int(np.count_nonzero(weights == 0))
        alive = dead < num_particles
        row = BarrierDiagnostics(
            barrier_index=i + 1, ess=effective_sample_size(weights) if alive else 0.0,
            min_weight=float(weights.min()), max_weight=float(weights.max()), dead_count=dead)
        kept = _picks(weights, float(offsets[k, i])) if alive else None
        return kept, row

    return run_barriers(model, constraints, seeds, num_particles, resample,
                        horizon=horizon, initial_history=initial_history)


def conditional_sample(model: SequenceModel, constraints: ConstraintSet,
                       num_particles: int, seed: int, *,
                       horizon: float = 1.0,
                       initial_history: Sequence[float] = ()) -> EnsembleResult:
    """Run the particle filter; returns S approximate conditional samples.

    ``survived`` is False when every particle weighted zero at some barrier;
    ``failed_barrier`` then holds its 1-based index and ``samples`` is empty.
    The result is a deterministic function of (model, constraints, seed,
    horizon, initial history).
    """
    return next(conditional_runs(model, constraints, num_particles, [seed], horizon=horizon,
                                 initial_history=initial_history))
