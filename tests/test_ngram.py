"""Additively smoothed n-gram step model over the music vocabulary."""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np
import pytest

from ppsmc.music.adapter import UnrolledMusicModel
from ppsmc.music.encoding import Vocabulary, allowed_symbols
from ppsmc.music.ngram import BOS, NGramModel, search, train_ngram

TINY = Vocabulary(a_max=4, s_max=3)  # 7 symbols


def tiny_model(order: int = 2, alpha: float = 0.5) -> NGramModel:
    streams = [
        [1, 3, TINY.shift_symbol(2), 2],
        [2, TINY.shift_symbol(1), 1, 4],
        [1, 2, 3, TINY.shift_symbol(3), 1],
    ]
    return train_ngram(streams, TINY, order=order, alpha=alpha)


class TestTraining:
    def test_counts_include_begin_padding(self):
        model = tiny_model(order=2)
        # Three streams, so three transitions out of the begin symbol.
        starts = model.counts[(BOS,)]
        assert sum(starts.values()) == 3
        assert starts == {1: 2, 2: 1}

    def test_order_one_pools_everything(self):
        model = tiny_model(order=1)
        assert set(model.counts) == {()}
        assert sum(model.counts[()].values()) == 13

    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            train_ngram([[0]], TINY, order=1, alpha=0.1)
        with pytest.raises(ValueError):
            train_ngram([[8]], TINY, order=1, alpha=0.1)


    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_counts_equal_the_loop_over_windows(self, order):
        """Seeded streams, with empty ones and ones shorter than the context."""
        rng = np.random.default_rng(order)
        streams = [rng.integers(1, TINY.size + 1, size=n).tolist()
                   for n in [0, 1, 2, 5, 40, 0, 300, 1, 17]]
        model = train_ngram(streams, TINY, order=order, alpha=0.5)
        assert model.counts == reference_counts(streams, TINY, order)
        assert all(type(s) is int for ctx, row in model.counts.items()
                   for s in (*ctx, *row, *row.values()))
        assert train_ngram([[], []], TINY, order=order, alpha=0.5).counts == {}

    @pytest.mark.parametrize("bad", [0, TINY.size + 1, 2 ** 70])
    def test_a_bad_symbol_raises_as_the_loop_does(self, bad):
        """The first bad symbol is named, and before a bad order or alpha."""
        streams = [[1, 2, 3], [4, TINY.size, 1, bad, 2], [0]]
        with pytest.raises(ValueError) as expected:
            reference_counts(streams, TINY, 2)
        for order, alpha in [(2, 0.5), (0, 0.5), (2, -1.0)]:
            with pytest.raises(ValueError) as got:
                train_ngram(streams, TINY, order=order, alpha=alpha)
            assert str(got.value) == str(expected.value)


def reference_counts(symbol_seqs, vocab: Vocabulary, order: int) -> dict:
    """The counts of the loop ``train_ngram`` once was: each window of each
    stream added to nested dicts, after the stream's symbols are checked."""
    counts = defaultdict(lambda: defaultdict(int))
    need = order - 1
    for seq in symbol_seqs:
        for sym in seq:
            if not 1 <= sym <= vocab.size:
                raise ValueError(f"symbol {sym} outside vocabulary of size {vocab.size}")
        padded = (BOS,) * need + tuple(seq)
        for i, sym in enumerate(seq):
            counts[padded[i:i + need]][sym] += 1
    return {ctx: dict(row) for ctx, row in counts.items()}


class TestProbabilities:
    def test_raw_pmf_is_normalized(self):
        model = tiny_model()
        for ctx in [(BOS,), (1,), (3,)]:
            pmf = model.raw_pmf(ctx)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
            assert (pmf > 0).all()  # smoothing leaves no holes

    def test_smoothing_limit_is_uniform(self):
        model = train_ngram([[1]], TINY, order=1, alpha=1e9)
        np.testing.assert_allclose(model.raw_pmf(()), np.full(7, 1 / 7), rtol=1e-6)

    def test_unsmoothed_unigram_is_count_proportional(self):
        model = tiny_model(order=1, alpha=0.0)
        counts = np.array([model.counts[()].get(s, 0) for s in range(1, 8)], float)
        np.testing.assert_allclose(model.raw_pmf(()), counts / counts.sum(), rtol=1e-12)

    def test_masked_pmf_zeroes_blocked_symbols_exactly(self):
        model = tiny_model()
        pmf = model.masked_pmf((1,), prev=3)  # after action 3: actions 1..3 blocked
        assert pmf[0] == 0.0 and pmf[1] == 0.0 and pmf[2] == 0.0
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_masked_pmf_after_shift_blocks_shifts(self):
        model = tiny_model()
        pmf = model.masked_pmf((2,), prev=TINY.shift_symbol(1))
        assert (pmf[TINY.actions:] == 0.0).all()

    def test_unsmoothed_unseen_context_raises(self):
        model = tiny_model(alpha=0.0)
        with pytest.raises(ValueError):
            model.raw_pmf((4,))


class TestMaskedCache:
    """The masked PMF depends on the context only through its counts row and
    on the previous symbol only through the mask, and is cached by those."""

    def test_unseen_contexts_after_a_shift_share_one_entry(self, monkeypatch):
        model = tiny_model(order=3)
        shifts = [TINY.shift_symbol(d) for d in (1, 2, 3)]
        unseen = [(a, s) for a in range(1, 5) for s in shifts if (a, s) not in model.counts]
        assert len(unseen) > 5
        raw = []
        monkeypatch.setattr(model, "raw_pmf", lambda ctx: raw.append(ctx) or
                            NGramModel.raw_pmf(model, ctx))
        first = model.masked_pmf(unseen[0], unseen[0][-1])
        assert all(model.masked_pmf(ctx, ctx[-1]) is first for ctx in unseen)
        assert raw == [unseen[0]]

    def test_every_entry_equals_the_reference_bit_for_bit(self):
        for order, alpha in ((1, 0.5), (2, 0.5), (3, 0.5), (2, 0.0)):
            model = tiny_model(order=order, alpha=alpha)
            contexts = {model.context_of(list(ctx)) for ctx in np.ndindex((8,) * (order - 1))}
            for ctx in sorted(contexts):
                for prev in [None, *range(1, TINY.size + 1)]:
                    try:
                        pmf = np.where(allowed_symbols(prev, TINY), model.raw_pmf(ctx), 0.0)
                    except ValueError:  # unseen without smoothing
                        pmf = np.zeros(1)
                    if pmf.sum() == 0:
                        with pytest.raises(ValueError):
                            model.masked_pmf(ctx, prev)
                        continue
                    pmf = pmf / pmf.sum()
                    got, cum, _ = model._masked(ctx, prev)
                    assert got.tobytes() == pmf.tobytes(), (order, ctx, prev)
                    assert cum.tobytes() == np.cumsum(pmf).tobytes(), (order, ctx, prev)

    def test_each_unseen_context_names_itself_without_smoothing(self):
        model = tiny_model(order=3, alpha=0.0)
        for ctx in [(4, 4), (4, 3)]:
            assert ctx not in model.counts
            with pytest.raises(ValueError, match=rf"context \({ctx[0]}, {ctx[1]}\) unseen"):
                model.masked_pmf(ctx, ctx[-1])

    def test_rejects_a_previous_symbol_outside_the_vocabulary(self):
        model = tiny_model()
        model.masked_pmf((BOS,), TINY.size)  # caches the shift mask
        for prev in (0, TINY.size + 1):
            with pytest.raises(ValueError, match="outside vocabulary"):
                model.masked_pmf((BOS,), prev)


class TestSampling:
    def test_samples_respect_the_mask(self):
        model = tiny_model()
        rng = np.random.default_rng(14)
        for _ in range(500):
            sym = search(model._masked((1,), 2), rng.random())  # after action 2
            assert sym > 2 or TINY.is_shift(sym)

    def test_a_uniform_above_the_last_sum_draws_a_symbol_with_mass(self):
        """The running sums of 4/13, 3/13, 3/13, 2/13 and 1/13 end at
        0.9999999999999998, so a uniform just below 1 lies above them all.  It
        draws the last symbol with mass, the 2-tick shift, not the 3-tick shift
        after it, which has none; the gap law then draws the action after it."""
        model = NGramModel(TINY, 2, 0.0, {(1,): {2: 4, 3: 3, 4: 3, 5: 2, 6: 1}, (6,): {1: 1}})
        u = np.nextafter(1.0, 0.0)
        assert model._masked((1,), 1)[1][-1] < u
        assert search(model.table((1,)), u) == 6 == TINY.shift_symbol(2)
        gap = UnrolledMusicModel(model).initial_state([1])  # tick 0, action 1
        gaps, used = gap.draws(np.array([[u, 0.5]]))
        assert (gaps.tolist(), used.tolist()) == ([8], [2])  # to code 2·4 + 1, tick 2
        top = type("Top", (), {"random": lambda self: u})()
        assert gap.sample(top) == 8
        assert gap.pdf(8) == pytest.approx(1 / 13)

    def test_sampling_frequencies_match_pmf(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        pmf = model.masked_pmf((BOS,), prev=None)
        draws = search(model.table(()), rng.random(20000))  # the first symbol's table
        freq = np.bincount(draws - 1, minlength=7) / 20000
        np.testing.assert_allclose(freq, pmf, atol=0.015)


class TestPersistence:
    def test_file_round_trip(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.json"
        model.save(path)
        loaded = NGramModel.load(path)
        assert loaded.order == model.order and loaded.alpha == model.alpha
        assert loaded.counts == model.counts
        assert loaded.vocab == model.vocab

    def test_rejects_unknown_version(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.json"
        model.save(path)
        import json
        payload = json.loads(path.read_text())
        payload["version"] = 41
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            NGramModel.load(path)


def log_pmf(model: NGramModel, symbols: list[int]) -> float:
    """Masked log probability of a symbol stream, one step at a time."""
    return sum(math.log(model.masked_pmf(model.context_of(symbols[:k]),
                                         symbols[k - 1] if k else None)[sym - 1])
               for k, sym in enumerate(symbols))


class TestGeneralization:
    def test_higher_order_wins_on_structured_data(self):
        """A deterministic cycle is invisible to a unigram model."""
        cycle = [1, 2, TINY.shift_symbol(1)]
        train = [cycle * 8 for _ in range(20)]
        held_out = cycle * 5
        uni = train_ngram(train, TINY, order=1, alpha=0.1)
        bi = train_ngram(train, TINY, order=2, alpha=0.1)
        assert log_pmf(bi, held_out) > log_pmf(uni, held_out)
