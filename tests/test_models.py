"""Tests for n-gram models, block scoring, serialization, and prompt views."""

import json
import os
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import (
    assert_drawn,
    code,
    context,
    flat_code,
    flat_next_dist,
    flat_score_block,
    loop_train_ngram,
    loop_walk,
    random_corpus,
    random_dist,
    random_model,
    random_prompt,
    random_vocab,
)

from mmspec.core import REFILL, MultimodalPrompt, RngState, Vocab, sample
from mmspec.engine import SpdConfig, autoregressive_generate, spd_generate
from mmspec import models
from mmspec.harness import CharTokenizer, demo_corpus_path
from mmspec.models import (
    BOS,
    EmptyCorpusError,
    ModelFormatError,
    MultimodalTargetLm,
    NgramLm,
    TextOnlyDraftLm,
    TrainingError,
    load_ngram,
    save_ngram,
    train_ngram,
)

VOCAB2 = Vocab(size=2, eos=0)


class TestTrainNgram:
    def test_counted_context(self):
        """corpus [[0,1,0,1]], order 2, alpha 1: next after [0] is [0.25, 0.75]."""
        m = train_ngram([[0, 1, 0, 1]], order=2, alpha=1.0, vocab=VOCAB2)
        np.testing.assert_allclose(flat_next_dist(m, [0]).probs, [0.25, 0.75])

    def test_unseen_context_uniform(self):
        m = train_ngram([[0, 1, 0, 1]], order=3, alpha=1.0, vocab=Vocab(size=4, eos=0))
        np.testing.assert_allclose(flat_next_dist(m, [3, 3]).probs, np.full(4, 0.25))

    def test_bos_padding_defines_first_position(self):
        """With order 2 the empty prefix maps to the BOS context."""
        m = train_ngram([[1, 0], [1, 1]], order=2, alpha=1.0, vocab=VOCAB2)
        assert context(m, ()) == (BOS,)
        # both sequences start with 1: counts [0, 2] -> (0+1)/(2+2), (2+1)/(2+2)
        np.testing.assert_allclose(flat_next_dist(m, []).probs, [0.25, 0.75])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            train_ngram([], order=2, alpha=1.0, vocab=VOCAB2)
        with pytest.raises(EmptyCorpusError):
            train_ngram([[], []], order=2, alpha=1.0, vocab=VOCAB2)

    def test_out_of_vocab_token_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([[0, 2]], order=2, alpha=1.0, vocab=VOCAB2)

    @pytest.mark.parametrize(
        "corpus, reason",
        [
            pytest.param([[0, 1.5, 2, 4]], "token id 1.5 is not an integer", id="float"),
            pytest.param([[0, 1], [2, True]], "token id True is not an integer", id="boolean"),
            pytest.param([[0, 1], [2.0]], "token id 2.0 is not an integer", id="integral-float"),
            pytest.param([[0, 5]], "token id 5 outside vocab of size 5", id="past-vocab"),
            pytest.param([[0, BOS]], "token id -1 outside vocab of size 5", id="bos"),
            pytest.param([[0, 2**70]], f"token id {2**70} outside vocab of size 5", id="past-int64"),
        ],
    )
    def test_rejects_bad_token_id(self, corpus, reason):
        """A token id must be an integer in the vocabulary; numpy would count
        True as token 1 and truncate 1.5 to it."""
        with pytest.raises(TrainingError, match=re.escape(reason)):
            train_ngram(corpus, 2, 0.1, Vocab(5, 4))

    @pytest.mark.parametrize("order", [0, -3])
    def test_rejects_order_below_one(self, order):
        with pytest.raises(TrainingError, match=re.escape(f"order must be >= 1, got {order}")):
            train_ngram([[0, 1]], order, 0.1, VOCAB2)

    def test_cell_bounds_are_inclusive(self, monkeypatch):
        """4 tokens x 2 window ids and 4 contexts x 2 tokens sit at a bound of 8 cells."""
        monkeypatch.setattr(models, "MAX_COUNT_CELLS", 8)
        assert train_ngram([[0, 1, 0, 1]], 3, 0.1, VOCAB2).counts.size == 8
        with pytest.raises(TrainingError, match="4 tokens x 3 window ids is more than the 8 cells an order-4 model"):
            train_ngram([[0, 1, 0, 1]], 4, 0.1, VOCAB2)
        with pytest.raises(TrainingError, match="4 contexts x vocab size 3 is more than the 8 count cells"):
            train_ngram([[0, 1, 0, 1]], 3, 0.1, Vocab(3, 2))

    @pytest.mark.parametrize(
        "order, vocab, reason",
        [
            pytest.param(2_000_000, VOCAB2, "4 tokens x 1999999 window ids is more than the 4194304", id="order"),
            pytest.param(2, Vocab(2**40, 0), "3 contexts x vocab size 1099511627776 is more", id="vocab-size"),
            pytest.param(1, Vocab(2**40, 0), "1 contexts x vocab size 1099511627776 is more", id="order-1-vocab-size"),
        ],
    )
    def test_huge_model_fails_before_allocating(self, order, vocab, reason):
        tracemalloc.start()
        try:
            with pytest.raises(TrainingError, match=reason):
                train_ngram([[0, 1, 0, 1]], order, 0.1, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "vocab_size, contexts, counts, reason",
        [
            pytest.param(3, ((0,),), np.zeros((2, 3), dtype=np.int64), "must be 3 integers each", id="extra-row"),
            pytest.param(3, ((0,),), np.zeros((1, 2), dtype=np.int64), "must be 3 integers each", id="narrow-row"),
            pytest.param(3, ((0,),), np.zeros((1, 3)), "must be 3 integers each", id="float-counts"),
            pytest.param(3, ((0,),), np.array([[1, -1, 0]]), r"context \[0\] has a negative count", id="negative"),
            pytest.param(3, (), np.zeros((0, 3), dtype=np.int64), "no count rows", id="no-rows"),
            pytest.param(2**62, ((0,),), np.zeros((1, 3), dtype=np.int64), "integers each", id="huge-vocab"),
            pytest.param(3, ((0,),), np.array([[2**62, 2**62, 0]]), "sums past 2\\*\\*63 - 1", id="total-past-int64"),
            pytest.param(4, ((0,),), np.full((1, 4), 2**62), "sums past 2\\*\\*63 - 1", id="total-wraps-to-zero"),
            pytest.param(3, ((0, 1), (0, 1)), np.zeros((2, 3), dtype=np.int64), r"context \[0, 1\] appears twice",
                         id="repeated-context"),
            pytest.param(3, ((0, 1), (1,)), np.zeros((2, 3), dtype=np.int64),
                         r"context \[1\] is not a list of 2 integers", id="short-context"),
            pytest.param(3, ((0, 1), (0, 1, 2)), np.zeros((2, 3), dtype=np.int64),
                         r"context \[0, 1, 2\] is not a list of 2 integers", id="long-context"),
            pytest.param(3, ((0, 3),), np.zeros((1, 3), dtype=np.int64),
                         r"context \[0, 3\] holds an id outside \[0, 3\) other than BOS", id="id-v"),
            pytest.param(3, ((BOS, 1), (-2, 1)), np.zeros((2, 3), dtype=np.int64),
                         r"context \[-2, 1\] holds an id outside", id="id-below-bos"),
            pytest.param(3, ((1, 1), (0, 5)), np.zeros((2, 3), dtype=np.int64),
                         r"context \[0, 5\] holds an id outside", id="colliding-codes"),
            pytest.param(3, ((0.5,), (True,)), np.zeros((2, 3), dtype=np.int64),
                         r"context \[0.5\] holds a non-integer", id="float-id"),
            pytest.param(3, ((1, 2), (True, 0)), np.zeros((2, 3), dtype=np.int64),
                         r"context \[True, 0\] holds a non-integer", id="bool-id"),
            pytest.param(3, ((np.int64(1),) * 39,), np.zeros((1, 3), dtype=np.int64),
                         r"\] holds a non-integer", id="numpy-id"),
        ],
    )
    def test_constructor_rejects_bad_count_matrix(self, vocab_size, contexts, counts, reason):
        """A count matrix must be one integer row of ``vocab.size`` non-negative
        counts per context; a huge vocab size fails before any row is allocated.
        Each context must be ``order - 1`` integer ids, each BOS or in
        ``[0, V)``, and appear once: ``(0, 5)`` would share ``(1, 1)``'s code
        at V = 3, ``0.5`` would code as a float, ``True`` as id 1, and
        numpy ids in int64 arithmetic, which wraps past ``2**63`` at order 40."""
        order = len(contexts[0]) + 1 if contexts else 2  # the first context's width
        with pytest.raises(ValueError, match=reason):
            NgramLm(Vocab(vocab_size, 0), order, 1.0, contexts, counts)

    def test_row_total_bound_is_inclusive(self):
        m = NgramLm(Vocab(3, 0), 2, 1.0, ((0,), (1,)), np.array([[2**62, 2**62 - 1, 0], [0, 0, 2**62]]))
        np.testing.assert_allclose(flat_next_dist(m, [0]).probs, [0.5, 0.5, 0.0], atol=1e-15)

    def test_dists_are_valid(self):
        """Every context row yields non-negative probabilities summing to 1."""
        rng = np.random.default_rng(50)
        for _ in range(20):
            vocab = random_vocab(rng)
            m = random_model(rng, vocab)
            for _ in range(10):
                prefix = rng.integers(0, vocab.size, int(rng.integers(0, 6))).tolist()
                d = flat_next_dist(m, prefix)
                assert np.all(d.probs >= 0)
                assert abs(float(d.probs.sum()) - 1.0) < 1e-9


class TestTrainNgramMatchesLoop:
    """The array counting equals the loop in ``helpers.loop_train_ngram``:
    the same contexts in the same first-seen order, and the same counts."""

    def test_random_corpora(self):
        rng = np.random.default_rng(56)
        for trial in range(250):
            order = 1 + trial % 5
            size = int(rng.integers(2, 301))
            vocab = Vocab(size, int(rng.integers(0, size)))
            # a few ids, so windows repeat, with V - 1 among them
            ids = np.append(rng.integers(0, size, int(rng.integers(1, 6))), size - 1)
            corpus = [rng.choice(ids, int(rng.integers(0, 12))).tolist() for _ in range(int(rng.integers(0, 10)))]
            for extra in ([], [int(rng.choice(ids))], [size - 1]):  # empty, 1-token, V - 1
                corpus.insert(int(rng.integers(0, len(corpus) + 1)), extra)
            want = loop_train_ngram(corpus, order, 0.5, vocab)
            got = train_ngram(corpus, order, 0.5, vocab)
            assert got.contexts == want.contexts
            np.testing.assert_array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("size", [255, 256, 65_535, 65_536, 70_000])
    def test_wide_vocabularies(self, size):
        """Shifted ids take one more value than V: V = 255 is the widest uint8 window, V = 65,536 needs 32 bits."""
        rng = np.random.default_rng(size)
        ids = np.array([0, 1, size - 2, size - 1])
        corpus = [rng.choice(ids, 6).tolist() for _ in range(5)] + [[size - 1, size - 1, size - 1]]
        for order in (2, 3):
            want = loop_train_ngram(corpus, order, 0.5, Vocab(size, 0))
            got = train_ngram(corpus, order, 0.5, Vocab(size, 0))
            assert got.contexts == want.contexts
            np.testing.assert_array_equal(got.counts, want.counts)

    def test_numpy_sequences_give_the_same_model(self):
        corpus = [[0, 3, 1, 3], [2], [], [3, 3, 0]]
        want = train_ngram(corpus, 3, 0.5, Vocab(4, 0))
        got = train_ngram([np.array(seq, dtype=np.int32) for seq in corpus], 3, 0.5, Vocab(4, 0))
        assert got.contexts == want.contexts and all(type(i) is int for ctx in got.contexts for i in ctx)
        np.testing.assert_array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_bundled_corpus_file_bytes(self, tmp_path, order):
        tok = CharTokenizer()
        corpus = [tok.encode(line) + [tok.vocab.eos] for line in demo_corpus_path().read_text().splitlines() if line]
        got = train_ngram(corpus, order, 0.1, tok.vocab)
        want = loop_train_ngram(corpus, order, 0.1, tok.vocab)
        assert got.contexts == want.contexts
        save_ngram(got, tmp_path / "got.json")
        save_ngram(want, tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


class TestScoreBlock:
    def test_matches_sequential_next_dist(self):
        """Block scoring equals one-at-a-time scoring bit for bit, orders 1-4.

        The sequential side uses its own model, so no row is shared through
        the table."""
        rng = np.random.default_rng(51)
        for trial in range(40):
            vocab = random_vocab(rng)
            order, alpha = 1 + trial % 4, float(rng.uniform(0.2, 1.5))
            corpus = random_corpus(rng, vocab)
            blocks = train_ngram(corpus, order, alpha, vocab)
            steps = train_ngram(corpus, order, alpha, vocab)
            prefix = tuple(rng.integers(0, vocab.size, int(rng.integers(0, 7))).tolist())
            block = tuple(rng.integers(0, vocab.size, int(rng.integers(0, 8))).tolist())
            got = flat_score_block(blocks, prefix, block)
            assert len(got) == len(block) + 1
            for j in range(len(block) + 1):
                want = flat_next_dist(steps, prefix + block[:j])
                np.testing.assert_array_equal(got[j].probs, want.probs)

    def test_empty_block_matches_next_dist(self):
        m = train_ngram([[0, 1, 0, 1]], order=2, alpha=1.0, vocab=VOCAB2)
        np.testing.assert_array_equal(
            flat_score_block(m, (0,), ())[0].probs, flat_next_dist(m, (0,)).probs
        )


def reference_rows(corpus, order, alpha, vocab):
    """Smoothed row per BOS-padded training context, counted by a plain loop."""
    need = order - 1
    counts = {}
    for seq in corpus:
        padded = [BOS] * need + list(seq)
        for i, tok in enumerate(seq):
            counts.setdefault(tuple(padded[i : i + need]), Counter())[tok] += 1
    rows = {}
    for ctx, counter in counts.items():
        arr = np.array([counter[t] for t in range(vocab.size)], dtype=np.int64)
        rows[ctx] = (arr + alpha) / (int(arr.sum()) + alpha * vocab.size)
    return rows


class TestRowMemo:
    """The row table: every trained context's row, built on first use."""

    VOCAB = Vocab(size=6, eos=0)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_table_rows_equal_per_row_formula(self, order):
        """For a bundled-corpus model and random models, the table holds
        exactly the trained contexts, is built on first use, and each row is
        bit-equal to ``(counts + alpha) / (total + alpha * V)`` computed for
        that row alone.  The bundled-corpus count matrix holds, in
        first-seen order of contexts, what a ``Counter`` of
        ``(context, token)`` pairs counts."""
        tok = CharTokenizer()
        lines = demo_corpus_path().read_text(encoding="utf-8").splitlines()
        seqs = [tok.encode(line) + [tok.vocab.eos] for line in lines if line.strip()]
        rng = np.random.default_rng(90 + order)
        models = [train_ngram(seqs, order, 0.1, tok.vocab)]
        pairs = Counter()
        for seq in seqs:
            padded = (BOS,) * (order - 1) + tuple(seq)
            pairs.update((padded[i : i + order - 1], t) for i, t in enumerate(seq))
        contexts = tuple(dict.fromkeys(ctx for ctx, _ in pairs))
        assert models[0].contexts == contexts
        assert models[0].counts.tolist() == [[pairs[ctx, t] for t in range(tok.vocab.size)] for ctx in contexts]
        models += [random_model(rng, random_vocab(rng), order=order) for _ in range(10)]
        for m in models:
            assert m._rows is None
            rows = m.rows
            assert list(rows) == [code(ctx, m.vocab.size) for ctx in m.contexts]
            for ctx, counts in zip(m.contexts, m.counts):
                want = (counts + m.alpha) / (int(counts.sum()) + m.alpha * m.vocab.size)
                assert rows[code(ctx, m.vocab.size)].probs.tobytes() == want.tobytes()

    def test_unseen_context_is_the_shared_uniform_row(self):
        m = train_ngram([[0, 1, 0, 1]], order=3, alpha=1.0, vocab=Vocab(size=4, eos=0))
        view = TextOnlyDraftLm(m)
        assert flat_next_dist(m, (3, 3)) is m._uniform
        assert flat_score_block(m, (3,), (3,))[1] is m._uniform
        assert view.next_dist(MultimodalPrompt((), (3,)), [3]) is m._uniform
        assert view.next_dist(MultimodalPrompt((), (3, 3))) is m._uniform
        assert code((3, 3), 4) not in m.rows

    def test_table_does_not_grow(self):
        """A 128-token stochastic run through both views, which reaches
        contexts never seen in training, leaves the table as it was built."""
        rng = np.random.default_rng(91)
        vocab = random_vocab(rng, min_size=8)
        base = random_model(rng, vocab, order=3)
        target, draft = MultimodalTargetLm(base), TextOnlyDraftLm(base)
        rows, size = base.rows, len(base.rows)
        prompt = random_prompt(rng, vocab)
        cfg = SpdConfig(gamma=3, mode="stochastic", max_new_tokens=128, stop_on_eos=False)
        out, _ = spd_generate(target, draft, prompt, cfg, RngState(3))
        ar = autoregressive_generate(target, prompt, 128, "stochastic", RngState(4), stop_on_eos=False)
        assert len(out) == len(ar) == 128
        assert any(code(seq[i : i + 2], vocab.size) not in rows for seq in (out, ar) for i in range(126))
        assert base.rows is rows and len(rows) == size == len(base.contexts)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_rows_match_formula(self, order):
        """Every trained context, an unseen one, and prefixes shorter than the
        window give exactly ``(counts + alpha) / (total + alpha * V)``."""
        rng = np.random.default_rng(60 + order)
        # The corpus never uses the last id, so a window of it is unseen.
        corpus = random_corpus(rng, Vocab(size=self.VOCAB.size - 1, eos=0))
        m = train_ngram(corpus, order, 0.7, self.VOCAB)
        rows = reference_rows(corpus, order, 0.7, self.VOCAB)
        uniform = np.full(self.VOCAB.size, 1.0 / self.VOCAB.size)
        for ctx, want in rows.items():
            np.testing.assert_array_equal(flat_next_dist(m, ctx).probs, want)
            assert flat_next_dist(m, ctx) is flat_next_dist(m, ctx)
        if order > 1:
            unseen = (self.VOCAB.size - 1,) * (order - 1)
            assert unseen not in rows
            np.testing.assert_array_equal(flat_next_dist(m, unseen).probs, uniform)
        for k in range(order - 1):
            prefix = tuple(rng.integers(0, self.VOCAB.size, k).tolist())
            want = rows.get((BOS,) * (order - 1 - k) + prefix, uniform)
            np.testing.assert_array_equal(flat_next_dist(m, prefix).probs, want)

    def test_rows_and_cdfs_are_read_only(self):
        rng = np.random.default_rng(80)
        m = random_model(rng, self.VOCAB, order=3)
        dists = [flat_next_dist(m, [1, 2]), flat_next_dist(m, [5, 5, 5, 5]), *flat_score_block(m, [0], [1, 2])]
        for d in dists:
            assert not d.probs.flags.writeable
            assert d.cdf.readonly
            with pytest.raises(ValueError):
                d.probs[0] = 0.5
            assert d.cdf is d.cdf

    def test_sample_matches_fresh_cumsum_draw(self):
        """Sampling through the cached cdf draws the ids a fresh
        ``np.cumsum`` inverse-CDF draw would, over table rows."""
        rng = np.random.default_rng(81)
        m = random_model(rng, self.VOCAB, order=3)
        dists = [random_dist(rng, self.VOCAB.size, allow_zeros=True) for _ in range(5)]
        mine, ref = RngState(9, 4), RngState(9, 4)
        for _ in range(2000):
            if rng.random() < 0.8:
                d = flat_next_dist(m, rng.integers(0, self.VOCAB.size, 2).tolist())
            else:
                d = dists[int(rng.integers(0, len(dists)))]
            u = ref.uniform()
            want = int(np.searchsorted(np.cumsum(d.probs), u, side="right"))
            if want >= len(d):
                want = int(np.flatnonzero(d.probs > 0.0)[-1])
            assert sample(d, mine) == want


def payload_rows(payload):
    """Smoothed row per context code of a parsed ``ngram-v2`` payload, by a
    plain loop over its count triples."""
    size, alpha = payload["vocab_size"], float(payload["alpha"])
    rows = {}
    for i, ctx in enumerate(payload["contexts"]):
        arr = np.zeros(size, dtype=np.int64)
        for index, tok, count in payload["counts"]:
            if index == i:
                arr[tok] = count
        rows[code(ctx, size)] = (arr + alpha) / (int(arr.sum()) + alpha * size)
    return rows


class TestSerialization:
    def test_round_trip_identical_dists(self, tmp_path):
        """load(save(m)) answers every query bitwise-identically to m."""
        rng = np.random.default_rng(52)
        for i in range(10):
            vocab = random_vocab(rng)
            m = random_model(rng, vocab)
            path = tmp_path / f"m{i}.json"
            save_ngram(m, path)
            m2 = load_ngram(path)
            assert (m2.order, m2.alpha, m2.vocab) == (m.order, m.alpha, m.vocab)
            for _ in range(20):
                prefix = rng.integers(0, vocab.size, int(rng.integers(0, 6))).tolist()
                np.testing.assert_array_equal(flat_next_dist(m, prefix).probs, flat_next_dist(m2, prefix).probs)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_resave_is_byte_identical(self, tmp_path, order):
        """save(load(p)) writes p's bytes again, and the loaded model holds the
        trained contexts, sorted, with their count rows."""
        tok = CharTokenizer()
        corpus = [tok.encode(line) + [tok.vocab.eos] for line in demo_corpus_path().read_text().splitlines() if line]
        m = train_ngram(corpus, order=order, alpha=0.1, vocab=tok.vocab)
        p, again = tmp_path / "m.json", tmp_path / "again.json"
        save_ngram(m, p)
        loaded = load_ngram(p)
        save_ngram(loaded, again)
        assert again.read_bytes() == p.read_bytes()
        ranked = sorted(range(len(m.contexts)), key=m.contexts.__getitem__)
        assert loaded.contexts == tuple(m.contexts[i] for i in ranked)
        np.testing.assert_array_equal(loaded.counts, m.counts[ranked])
        assert loaded.counts.dtype == np.int64

    def test_file_holds_only_nonzero_counts(self, tmp_path):
        m = train_ngram([[0, 1, 0, 2]], order=2, alpha=0.5, vocab=Vocab(size=3, eos=2))
        save_ngram(m, tmp_path / "m.json")
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload == {
            "format": "ngram-v2",
            "order": 2,
            "alpha": 0.5,
            "vocab_size": 3,
            "eos": 2,
            "contexts": [[BOS], [0], [1]],
            "counts": [[0, 0, 1], [1, 1, 1], [1, 2, 1], [2, 0, 1]],
        }

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(53)
        m = random_model(rng, random_vocab(rng))
        save_ngram(m, tmp_path / "a.json")
        save_ngram(m, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        """The model is written to a temporary file that os.replace moves into place."""
        p = tmp_path / "m.json"
        save_ngram(train_ngram([[0, 1, 0, 1]], order=2, alpha=1.0, vocab=VOCAB2), p)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_ngram(train_ngram([[1, 1, 1]], order=3, alpha=0.5, vocab=VOCAB2), p)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_rejects_wrong_format_tag(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format":"other-v9"}')
        with pytest.raises(ModelFormatError):
            load_ngram(p)

    def test_rejects_v1_file_naming_tag_and_retrain(self, tmp_path):
        p = tmp_path / "old-model.json"
        p.write_text('{"format":"ngram-v1","order":2,"alpha":1.0,"vocab_size":2,"eos":0,"counts":[[[0],[1,2]]]}')
        message = re.escape(f"{p}: expected format 'ngram-v2', got 'ngram-v1'") + ".*`mmspec train`"
        with pytest.raises(ModelFormatError, match=message):
            load_ngram(p)

    def test_rejects_non_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json at all")
        with pytest.raises(ModelFormatError):
            load_ngram(p)

    @pytest.mark.parametrize(
        "data, reason",
        [(b"\xff\xfe{}", "not UTF-8 (invalid start byte at byte 0)"), (b"[" * 100_000, "not valid JSON")],
        ids=["not-utf8", "deeply-nested"],
    )
    def test_rejects_undecodable_file_naming_file(self, tmp_path, data, reason):
        p = tmp_path / "bad.json"
        p.write_bytes(data)
        with pytest.raises(ModelFormatError, match=re.escape(f"{p}: {reason}")):
            load_ngram(p)

    @staticmethod
    def write_order3(path, contexts, counts, **header):
        payload = {"format": "ngram-v2", "order": 3, "alpha": 1.0, "vocab_size": 4, "eos": 0}
        path.write_text(json.dumps({**payload, "contexts": contexts, "counts": counts, **header}))
        return path

    @pytest.mark.parametrize(
        "contexts, counts, reason",
        [
            pytest.param([[0, 1]], [[0, 1, -5]], "holds a count below 1", id="negative-count"),
            pytest.param([[1]], [[0, 0, 1]], "is not a list of 2 integers", id="short-context"),
            pytest.param([[0, 1, 2]], [[0, 0, 1]], "is not a list of 2 integers", id="long-context"),
            pytest.param([[0, 4]], [[0, 0, 1]], "holds an id outside", id="id-past-vocab"),
            pytest.param([[-2, 1]], [[0, 0, 1]], "holds an id outside", id="negative-id-not-bos"),
            pytest.param(
                [[0, 1], [0, 1]], [[0, 0, 1], [1, 1, 1]], "context \\[0, 1\\] appears twice", id="repeated-context"
            ),
            pytest.param([[0, 1]], [[0, 0, 1, 1]], "is not a list of 3 integers", id="long-triple"),
            pytest.param([[0, 1]], [[0, 0, 1.5]], "holds a non-integer", id="fractional-count"),
            pytest.param([[0, 1]], [[0, 0, True]], "holds a non-integer", id="boolean-count"),
            pytest.param([[0, 1.5]], [[0, 0, 1]], "holds a non-integer", id="fractional-context-id"),
            pytest.param([[0, True]], [[0, 0, 1]], "holds a non-integer", id="boolean-context-id"),
            pytest.param([[0, 1]], [[0, 2, 1], [0, 2, 3]], "token 2 appears twice", id="repeated-cell"),
            pytest.param([[0, 1]], [[1, 0, 1]], "context index outside", id="context-index-past-end"),
            pytest.param([[0, 1]], [[-1, 0, 1]], "context index outside", id="negative-context-index"),
            pytest.param([[0, 1]], [[0, 0, 0]], "holds a count below 1", id="zero-count"),
            pytest.param([[0, 1]], [[0, 4, 1]], "token outside", id="token-past-vocab"),
            pytest.param([[0, 1]], [[0, BOS, 1]], "token outside", id="bos-token"),
            pytest.param([[0, 1]], [[0, 0, 2**70]], "too large", id="count-past-int64"),
            pytest.param(
                [[0, 1]],
                [[0, 0, 2**62], [0, 1, 2**62]],
                "context \\[0, 1\\] sums past 2\\*\\*63 - 1",
                id="row-total-past-int64",
            ),
            pytest.param({"0": [0, 1]}, [[0, 0, 1]], "contexts must be a list", id="contexts-not-list"),
            pytest.param([[0, 1]], None, "counts must be a list", id="counts-not-list"),
        ],
    )
    def test_rejects_bad_entry_naming_file(self, tmp_path, contexts, counts, reason):
        p = self.write_order3(tmp_path / "bad-model.json", contexts, counts)
        with pytest.raises(ModelFormatError, match=re.escape(str(p)) + ".*" + reason):
            load_ngram(p)

    @pytest.mark.parametrize("field", ["order", "alpha", "vocab_size", "eos", "contexts", "counts"])
    def test_rejects_missing_field_naming_file(self, tmp_path, field):
        p = self.write_order3(tmp_path / "bad-model.json", [[0, 1]], [[0, 0, 1]])
        payload = json.loads(p.read_text())
        del payload[field]
        p.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match=re.escape(f"{p}: ngram-v2 payload has no field '{field}'")):
            load_ngram(p)

    @pytest.mark.parametrize("order", [1, 3, 2_000_000])
    def test_rejects_empty_counts_naming_file(self, tmp_path, order):
        """A model with no count rows is refused at any order, as training
        refuses an empty corpus, before a query pads a window of order - 1 ids."""
        p = self.write_order3(tmp_path / "empty-model.json", [], [], order=order)
        with pytest.raises(ModelFormatError, match=re.escape(str(p)) + ".*no count rows"):
            load_ngram(p)

    @pytest.mark.parametrize(
        "header, reason",
        [
            pytest.param({"vocab_size": 2**40}, "is more than the 4194304 count cells", id="vocab-size"),
            pytest.param({"order": 2_000_000}, "is not a list of 1999999 integers", id="order"),
        ],
    )
    def test_small_file_cannot_ask_for_a_huge_model(self, tmp_path, header, reason):
        """A file of a few bytes is refused before the loader allocates its
        dense count matrix or any context-sized array."""
        p = self.write_order3(tmp_path / "huge-model.json", [[0, 1]], [[0, 0, 1]], **header)
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match=re.escape(str(p)) + ".*" + reason):
                load_ngram(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_count_cell_bound_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(models, "MAX_COUNT_CELLS", 8)
        counts = [[0, 0, 1], [1, 1, 1]]
        assert load_ngram(self.write_order3(tmp_path / "at-bound.json", [[0, 1], [1, 2]], counts)).counts.size == 8
        p = self.write_order3(tmp_path / "past-bound.json", [[0, 1], [1, 2], [2, 3]], counts)
        with pytest.raises(ModelFormatError, match=re.escape(f"{p}: 3 contexts x vocab size 4 is more than the 8")):
            load_ngram(p)

    @pytest.mark.parametrize("header", [{"order": 2.7}, {"vocab_size": 3.9}], ids=["order", "vocab-size"])
    def test_rejects_fractional_header_naming_file(self, tmp_path, header):
        p = self.write_order3(tmp_path / "bad-model.json", [[0, 1]], [[0, 0, 1], [0, 1, 2]], **header)
        with pytest.raises(ModelFormatError, match=re.escape(str(p)) + ".*must be integers"):
            load_ngram(p)

    @pytest.mark.parametrize(
        "alpha, reason",
        [
            pytest.param('"0.5"', "alpha must be a number", id="string"),
            pytest.param("true", "alpha must be a number", id="boolean"),
            pytest.param("null", "alpha must be a number", id="null"),
            pytest.param("Infinity", "alpha must be > 0", id="infinity"),
            pytest.param("NaN", "alpha must be > 0", id="nan"),
            pytest.param("0", "alpha must be > 0", id="zero"),
            pytest.param("-0.5", "alpha must be > 0", id="negative"),
            pytest.param("1e308", "alpha \\* vocab size finite", id="alpha-times-vocab-overflows"),
            pytest.param("1" + "0" * 400, "too large", id="huge-integer"),
        ],
    )
    def test_rejects_bad_alpha_naming_file(self, tmp_path, alpha, reason):
        p = self.write_order3(tmp_path / "bad-model.json", [[0, 1]], [[0, 0, 1], [0, 1, 2]])
        p.write_text(p.read_text().replace('"alpha": 1.0', f'"alpha": {alpha}'))
        with pytest.raises(ModelFormatError, match=re.escape(str(p)) + ".*" + reason):
            load_ngram(p)

    def test_integer_alpha_loads(self, tmp_path):
        p = self.write_order3(tmp_path / "model.json", [[0, 1]], [[0, 0, 1], [0, 1, 2]], alpha=1)
        m = load_ngram(p)
        assert m.alpha == 1.0 and type(m.alpha) is float
        np.testing.assert_array_equal(flat_next_dist(m, [0, 1]).probs, [2 / 7, 3 / 7, 1 / 7, 1 / 7])

    def test_bos_context_loads(self, tmp_path):
        p = self.write_order3(tmp_path / "bos.json", [[BOS, 2]], [[0, 1, 3]])
        m = load_ngram(p)
        np.testing.assert_allclose(flat_next_dist(m, [2]).probs, [1 / 7, 4 / 7, 1 / 7, 1 / 7])

    def test_unsorted_file_loads_the_same_model(self, tmp_path):
        """Sorting is how save_ngram writes, not a rule the loader holds files to."""
        p = self.write_order3(tmp_path / "model.json", [[0, 1], [BOS, 2]], [[1, 1, 3], [0, 2, 1], [0, 0, 2]])
        m = load_ngram(p)
        assert m.contexts == ((0, 1), (BOS, 2))
        np.testing.assert_array_equal(m.counts, [[2, 0, 1, 0], [0, 3, 0, 0]])

    def test_rejects_bad_row_width(self, tmp_path):
        p = self.write_order3(tmp_path / "bad.json", [[0]], [[0, 1]], order=2, vocab_size=2)
        with pytest.raises(ModelFormatError, match=re.escape(f"{p}: counts entry [0, 1] is not a list of 3 integers")):
            load_ngram(p)


class TestModelFileFuzz:
    """Seeded mutations of a saved file: each one either loads, with the rows
    the mutated file states, or raises ModelFormatError naming the file.  Any
    other exception fails the test."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        vocab = Vocab(size=5, eos=4)
        model = random_model(np.random.default_rng(61), vocab, order=3, alpha=0.25, n_seqs=6, max_len=8)
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        save_ngram(model, path)
        return path, path.read_bytes(), model

    @staticmethod
    def outcome(path, data):
        """``"rejected"``, or the loaded model after checking its rows against ``data``."""
        path.write_bytes(data)
        try:
            model = load_ngram(path)
        except ModelFormatError as exc:
            assert str(path) in str(exc)
            return "rejected"
        want = payload_rows(json.loads(data))
        assert set(model.rows) == set(want)
        for ctx, probs in want.items():
            np.testing.assert_array_equal(model.rows[ctx].probs, probs)
        return model

    def test_unmutated_file_states_its_model(self, saved):
        path, data, model = saved
        want = payload_rows(json.loads(data))
        assert set(want) == set(model.rows)
        for ctx, probs in want.items():
            np.testing.assert_array_equal(model.rows[ctx].probs, probs)
        assert self.outcome(path, data) != "rejected"

    def test_truncation(self, saved):
        path, data, _ = saved
        body = data.rstrip()
        for cut in range(len(data)):
            result = self.outcome(path, data[:cut])
            assert (result == "rejected") == (cut < len(body)), cut

    def test_wrong_typed_values(self, saved):
        path, data, _ = saved
        original = json.loads(data)
        wrong = {
            int: [None, True, False, 1.0, "1", [], {}],
            float: [None, True, "1.0", [], {}],
            str: [None, 2, True, [], {}],
            list: [None, 1, 1.0, "x", True, {}],
        }
        slots = [(key,) for key in original]
        slots += [(key, 0) for key in ("contexts", "counts")] + [("counts", -1)]
        slots += [("contexts", 0, j) for j in range(2)] + [("counts", 0, j) for j in range(3)]
        cases = 0
        for slot in slots:
            *parents, last = slot
            for value in wrong[type(self.at(original, slot))]:
                payload = json.loads(data)
                self.at(payload, parents)[last] = value
                assert self.outcome(path, json.dumps(payload).encode()) == "rejected", (slot, value)
                cases += 1
        assert cases > 50

    @staticmethod
    def at(payload, slot):
        for key in slot:
            payload = payload[key]
        return payload

    def test_byte_flips(self, saved):
        path, data, _ = saved
        rng = np.random.default_rng(62)
        results = []
        for _ in range(600):
            mutated = bytearray(data)
            pos = int(rng.integers(len(data)))
            if rng.random() < 0.5:
                mutated[pos] ^= 1 << int(rng.integers(8))
            else:
                mutated[pos] = int(rng.integers(256))
            results.append(self.outcome(path, bytes(mutated)))
        # both branches are reached: some flips give another valid model, most break the file
        assert 0 < sum(r != "rejected" for r in results) < len(results) / 2


class TestPromptViews:
    def _image_sensitive_model(self):
        """Order-3 model whose 2-token window can include the image id."""
        vocab = Vocab(size=4, eos=0)
        return train_ngram([[0, 2, 3], [1, 2, 0]], order=3, alpha=1.0, vocab=vocab)

    def test_target_conditions_on_image_then_text(self):
        """The target's window is the tail of image context, text, output:
        the image tops up a text shorter than the window, and an empty image
        context leaves it BOS-padded."""
        base = self._image_sensitive_model()
        target = MultimodalTargetLm(base)
        prompt = MultimodalPrompt(image_ctx=(1,), text=(2,))
        assert target.next_dist(prompt) is flat_next_dist(base, (1, 2)) is base.rows[code((1, 2), 4)]
        assert target.next_dist(prompt, (3,)) is flat_next_dist(base, (2, 3))
        short = MultimodalPrompt(image_ctx=(), text=(0,))
        assert target.next_dist(short) is flat_next_dist(base, (0,)) is base.rows[code((BOS, 0), 4)]

    def test_out_of_vocab_prompt_window_rejected(self):
        """An id outside the vocabulary in the window a prompt gives the
        views is refused by name, not coded as another window's id: id V
        carries into the next digit and -1 is BOS padding's digit.  Every
        code starts from the prompt's window, so it is refused also when the
        output fills the window.  Ids outside the window are never read,
        and an order-1 model reads none."""
        base = self._image_sensitive_model()
        target, draft = MultimodalTargetLm(base), TextOnlyDraftLm(base)
        for view, prompt in (
            (target, MultimodalPrompt(image_ctx=(4,), text=(2,))),
            (target, MultimodalPrompt(image_ctx=(), text=(1, -1))),
            (draft, MultimodalPrompt(image_ctx=(), text=(-2, 3))),
            (draft, MultimodalPrompt(image_ctx=(1,), text=(2**70,))),
        ):
            for query in (
                view.start,
                view.next_dist,
                lambda p: view.next_dist(p, (1, 2)),
                lambda p: view.walk(p, (), 3),
                lambda p: view.score_block(p, (), (1,)),
            ):
                with pytest.raises(ValueError, match="holds an id outside the vocab of size 4"):
                    query(prompt)
        assert draft.next_dist(MultimodalPrompt(image_ctx=(4,), text=(2,))) is flat_next_dist(base, (2,))
        assert target.next_dist(MultimodalPrompt(image_ctx=(), text=(9, 1, 2))) is flat_next_dist(base, (1, 2))
        unigram = train_ngram([[0, 2, 3]], order=1, alpha=1.0, vocab=base.vocab)
        prompt = MultimodalPrompt(image_ctx=(4,), text=(-2, 2**70))
        for view in (MultimodalTargetLm(unigram), TextOnlyDraftLm(unigram)):
            assert view.start(prompt) == 0
            assert view.next_dist(prompt, (1,)) is flat_next_dist(unigram, ()) is unigram.rows[0]

    def test_image_ctx_changes_target_dist(self):
        """Same text, different image ids: windows (0,2) vs (1,2) differ."""
        m = self._image_sensitive_model()
        target = MultimodalTargetLm(m)
        d_a = target.next_dist(MultimodalPrompt((0,), (2,)))
        d_b = target.next_dist(MultimodalPrompt((1,), (2,)))
        np.testing.assert_allclose(d_a.probs, [0.2, 0.2, 0.2, 0.4])
        np.testing.assert_allclose(d_b.probs, [0.4, 0.2, 0.2, 0.2])

    def test_draft_ignores_image_ctx(self):
        """1000 random image-context swaps never change the draft view's output."""
        rng = np.random.default_rng(54)
        checked = 0
        while checked < 1000:
            vocab = random_vocab(rng)
            m = random_model(rng, vocab)
            draft = TextOnlyDraftLm(m)
            for _ in range(25):
                base = random_prompt(rng, vocab)
                alt_img = tuple(rng.integers(0, vocab.size, int(rng.integers(0, 5))).tolist())
                alt = MultimodalPrompt(image_ctx=alt_img, text=base.text)
                gen = tuple(rng.integers(0, vocab.size, int(rng.integers(0, 4))).tolist())
                d1 = draft.next_dist(base, gen)
                d2 = draft.next_dist(alt, gen)
                assert np.array_equal(d1.probs, d2.probs)
                checked += 1

    def test_draft_window_is_tail_of_text_plus_generated(self):
        """The image never tops up the draft's window, even when the text is
        shorter than it."""
        base = self._image_sensitive_model()
        draft = TextOnlyDraftLm(base)
        assert draft.next_dist(MultimodalPrompt(image_ctx=(1,), text=(2,))) is flat_next_dist(base, (2,))
        prompt = MultimodalPrompt(image_ctx=(1, 1), text=(2, 3))
        assert draft.next_dist(prompt) is flat_next_dist(base, (2, 3))
        assert draft.next_dist(prompt, [0]) is flat_next_dist(base, (3, 0))
        assert draft.next_dist(prompt, (0, 1, 3)) is flat_next_dist(base, (1, 3))

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_window_queries_equal_full_prefix_queries(self, order):
        """Each view answers exactly as its base model queried with the whole
        flat prefix (target: image + text + output, draft: text + output),
        for output given as a list or a tuple and text shorter than the window."""
        rng = np.random.default_rng(300 + order)
        vocab = Vocab(size=3, eos=0)
        base = random_model(rng, vocab, order=order, n_seqs=60)
        need = order - 1
        for _ in range(300):
            prompt = random_prompt(rng, vocab, max_image=4, max_text=order)
            gen = rng.integers(0, vocab.size, int(rng.integers(0, order + 2))).tolist()
            block = tuple(rng.integers(0, vocab.size, int(rng.integers(0, 4))).tolist())
            for view, head in (
                (MultimodalTargetLm(base), prompt.image_ctx + prompt.text),
                (TextOnlyDraftLm(base), prompt.text),
            ):
                full = head + tuple(gen)
                for generated in (gen, tuple(gen)):
                    want = flat_next_dist(base, full).probs
                    np.testing.assert_array_equal(view.next_dist(prompt, generated).probs, want)
                    got = view.score_block(prompt, generated, block)
                    want = flat_score_block(base, full, block)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g.probs, w.probs)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_views_hand_out_memoized_rows_without_model_calls(self, order, monkeypatch):
        """A view's ``next_dist`` and each ``score_block`` entry are the very row
        objects the flat-prefix reference reads for the whole flat prefix,
        also for outputs shorter than the window and for order 1 (code 0); a
        repeated query does not touch the table's builder."""
        calls = Counter()
        build = NgramLm.rows.fget
        monkeypatch.setattr(NgramLm, "rows", property(lambda self: calls.update(["rows"]) or build(self)))
        rng = np.random.default_rng(400 + order)
        vocab = Vocab(size=3, eos=0)
        base = random_model(rng, vocab, order=order, n_seqs=60)
        queries = []
        for _ in range(100):
            prompt = random_prompt(rng, vocab, max_image=4, max_text=order)
            gen = rng.integers(0, vocab.size, int(rng.integers(0, order + 2))).tolist()
            block = tuple(rng.integers(0, vocab.size, int(rng.integers(0, 4))).tolist())
            for view, head in (
                (MultimodalTargetLm(base), prompt.image_ctx + prompt.text),
                (TextOnlyDraftLm(base), prompt.text),
            ):
                full = head + tuple(gen)
                row, rows = view.next_dist(prompt, gen), view.score_block(prompt, gen, block)
                assert row is flat_next_dist(base, full)
                want = flat_score_block(base, full, block)
                assert len(rows) == len(want) == len(block) + 1
                assert all(got is w for got, w in zip(rows, want))
                queries.append((view, prompt, gen, block, row, rows))
        assert calls["rows"] > 0  # the spy is live
        calls.clear()
        for view, prompt, gen, block, row, rows in queries:
            assert view.next_dist(prompt, gen) is row
            again = view.score_block(prompt, gen, block)
            assert len(again) == len(rows) and all(got is w for got, w in zip(again, rows))
        assert not calls


class TestWindowCodes:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_views_read_the_rows_of_tuple_windows(self, order):
        """Over random models and vocabularies, prompts with and without image
        context, text shorter than the window, and outputs from empty to two
        ids longer than the window, ``next_dist``, each row of a greedy and a
        stochastic ``walk``, and each ``score_block`` entry are the very row
        that the flat prefix's BOS-padded tuple window names in ``contexts``,
        or the shared uniform row where no context is that window."""
        rng = np.random.default_rng(600 + order)
        need = order - 1
        checked = Counter()
        for trial in range(60):
            vocab = random_vocab(rng, max_size=12)
            base = random_model(rng, vocab, order=order, n_seqs=int(rng.integers(2, 40)))
            assert len(base.rows) == len(base.contexts)
            by_window = dict(zip(base.contexts, base.rows.values()))
            for i, row in enumerate(by_window.values()):
                assert row.probs.tobytes() == base.probs[i].tobytes()

            def want(prefix):
                return by_window.get(context(base, prefix), base._uniform)

            for _ in range(10):
                prompt = random_prompt(rng, vocab, max_image=0 if trial % 3 == 0 else 4, max_text=order)
                gen = rng.integers(0, vocab.size, int(rng.integers(0, need + 3))).tolist()
                block = rng.integers(0, vocab.size, int(rng.integers(0, need + 3))).tolist()
                n = int(rng.integers(0, need + 4))
                for view, head in (
                    (MultimodalTargetLm(base), prompt.image_ctx + prompt.text),
                    (TextOnlyDraftLm(base), prompt.text),
                ):
                    flat = list(head) + gen
                    assert view.next_dist(prompt, gen) is want(flat)
                    rows = view.score_block(prompt, gen, block)
                    assert len(rows) == len(block) + 1
                    assert all(row is want(flat + block[:j]) for j, row in enumerate(rows))
                    for walk_rng in (None, RngState(trial)):
                        tokens, rows = view.walk(prompt, gen, n, walk_rng)
                        assert len(tokens) == len(rows) == n
                        assert all(row is want(flat + tokens[:j]) for j, row in enumerate(rows))
                    checked["short output"] += len(gen) < need
                    checked["short text"] += len(head) < need
                    checked["unseen"] += want(flat) is base._uniform
                    checked["seen"] += want(flat) is not base._uniform
        assert order < 3 or min(checked.values()) > 0, checked

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_shift_and_given_codes(self, order):
        """``start`` is the code of the prompt's flat window, and ``shift``
        moves a code by a run of tokens to the code of the longer output's
        flat window, for outputs and runs both shorter and longer than the
        window; and a ``walk`` or ``score_block`` given the output's code
        returns the same tokens and the very same rows, and leaves its stream
        where the per-token reference leaves it, without a ``next_dist``
        call."""
        rng = np.random.default_rng(620 + order)
        need = order - 1
        for trial in range(40):
            vocab = random_vocab(rng, max_size=12)
            base = random_model(rng, vocab, order=order)
            for view in (MultimodalTargetLm(base), TextOnlyDraftLm(base)):
                view.next_dist = None  # a given code must not need it
                for _ in range(5):
                    prompt = random_prompt(rng, vocab, max_text=order)
                    gen = rng.integers(0, vocab.size, int(rng.integers(0, need + 3))).tolist()
                    more = tuple(rng.integers(0, vocab.size, int(rng.integers(0, need + 3))).tolist())
                    assert view.start(prompt) == flat_code(view, prompt)
                    key = view.shift(view.start(prompt), gen)
                    assert key == flat_code(view, prompt, gen)
                    assert view.shift(key, more) == flat_code(view, prompt, gen + list(more))
                    rows = view.score_block(prompt, gen, more, key)
                    assert all(a is b for a, b in zip(rows, view.score_block(prompt, gen, more), strict=True))
                    n, stop = int(rng.integers(0, need + 4)), int(rng.integers(0, vocab.size))
                    for streams in ((None, None), (RngState(trial), RngState(trial))):
                        tokens, rows = view.walk(prompt, gen, n, streams[0], stop, key)
                        want_tokens, want_rows = loop_walk(type(view)(base), prompt, gen, n, streams[1], stop)
                        assert tokens == want_tokens
                        assert all(a is b for a, b in zip(rows, want_rows, strict=True))
                        assert streams[0] is None or streams[0].uniform() == streams[1].uniform()


class TestWalk:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_equals_one_next_dist_per_token(self, order):
        """A walk returns the tokens and the very row objects of the reference
        loop, one ``next_dist`` per token, and its stream ends where the
        reference's does: for the target and draft views, outputs shorter and
        longer than the window (order 1's is empty), greedy and stochastic,
        with and without an EOS stop, and n = 0.  The output it continues,
        a list or a tuple, is left as it was."""
        rng = np.random.default_rng(500 + order)
        vocab = Vocab(size=4, eos=0)
        base = random_model(rng, vocab, order=order, n_seqs=8)  # sparse: some windows are unseen
        seen = Counter()
        for trial in range(120):
            prompt = random_prompt(rng, vocab, max_image=4, max_text=order)
            gen = rng.integers(0, vocab.size, int(rng.integers(0, order + 2))).tolist()
            n = trial % 4 if trial < 8 else int(rng.integers(0, 3 * order + 4))
            for view in (MultimodalTargetLm(base), TextOnlyDraftLm(base)):
                for stop in (None, vocab.eos):
                    for seed in (None, trial):
                        generated = list(gen) if trial % 2 else tuple(gen)
                        walk_rng, loop_rng = (None, None) if seed is None else (RngState(seed), RngState(seed))
                        tokens, rows = view.walk(prompt, generated, n, walk_rng, stop)
                        want_tokens, want_rows = loop_walk(view, prompt, gen, n, loop_rng, stop)
                        assert list(generated) == gen
                        assert tokens == want_tokens
                        assert len(rows) == len(want_rows) and all(a is b for a, b in zip(rows, want_rows))
                        if seed is not None:
                            assert_drawn(walk_rng, len(tokens))
                        seen["n = 0" if n == 0 else "stopped" if len(tokens) < n else "ran to n"] += 1
        assert len(seen) == 3, seen

    def test_stopped_walk_leaves_the_stream_where_the_loop_does(self):
        """A stochastic walk gives back the draws of the tokens a stop cut
        off: after each walk of a run on one stream,
        with ``n`` up to twice a batch and with and without an EOS stop, the
        next draw is the reference loop's next draw."""
        rng = np.random.default_rng(520)
        vocab = Vocab(size=4, eos=0)
        view = MultimodalTargetLm(random_model(rng, vocab, order=3, n_seqs=8))
        walk_rng, loop_rng = RngState(52), RngState(52)
        seen = Counter()
        for i in range(200):
            prompt, n, stop = random_prompt(rng, vocab), int(rng.integers(0, 130)), None if i % 4 == 0 else vocab.eos
            tokens, _ = view.walk(prompt, [], n, walk_rng, stop)
            assert tokens == loop_walk(view, prompt, [], n, loop_rng, stop)[0]
            assert walk_rng.uniform() == loop_rng.uniform()
            seen["stopped" if len(tokens) < n else "ran to n"] += 1
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("n", [REFILL - 1, REFILL, REFILL + 1, 2 * REFILL + 1])
    def test_walk_takes_a_refill_at_a_time(self, n):
        """A stochastic walk whose length crosses refill boundaries equals
        the reference loop and leaves the stream where the loop does: without
        a stop, with a stop that never comes, and with stops first drawn
        before and after the stream's first refill runs out."""
        rng = np.random.default_rng(530)
        vocab = Vocab(size=1000, eos=0)
        view = MultimodalTargetLm(random_model(rng, vocab, order=2, n_seqs=4))  # most rows are the uniform one
        prompt = random_prompt(rng, vocab)
        full = loop_walk(view, prompt, [], n, RngState(53))[0]
        firsts = {tok: i for i, tok in reversed(list(enumerate(full)))}  # each token's first index
        early = next(tok for tok, i in firsts.items() if 10 < i < REFILL - 1)
        stops = [None, vocab.size, early] + [tok for tok, i in firsts.items() if i >= REFILL][:1]
        assert len(stops) == 3 + (n > REFILL)
        for stop in stops:
            walk_rng, loop_rng = RngState(53), RngState(53)
            tokens, _ = view.walk(prompt, [], n, walk_rng, stop)
            assert tokens == loop_walk(view, prompt, [], n, loop_rng, stop)[0]
            assert walk_rng.uniform() == loop_rng.uniform()
