"""Tests for core value types and probability primitives."""

import re
from itertools import islice

import numpy as np
import pytest

from helpers import FixedUniform, assert_drawn, boundary_uniforms, clamped_cdf, cumsum_sample, random_dist

from mmspec.core import (
    AllZeroError,
    MultimodalPrompt,
    REFILL,
    ProbDist,
    RngState,
    Vocab,
    argmax,
    normalize,
    sample,
)
from mmspec import core
from mmspec.engine import SpdConfig, autoregressive_generate, spd_generate
from mmspec.harness import CharTokenizer, demo_corpus_path
from mmspec.models import MultimodalTargetLm, TextOnlyDraftLm, train_ngram


class TestVocab:
    def test_valid(self):
        """A two-token vocab with eos 0 is the smallest legal vocab."""
        v = Vocab(size=2, eos=0)
        assert v.size == 2 and v.eos == 0

    def test_size_too_small(self):
        with pytest.raises(ValueError):
            Vocab(size=1, eos=0)

    def test_eos_out_of_range(self):
        with pytest.raises(ValueError):
            Vocab(size=4, eos=4)
        with pytest.raises(ValueError):
            Vocab(size=4, eos=-1)


class TestProbDist:
    def test_accepts_valid_vector(self):
        d = ProbDist([0.25, 0.75])
        assert len(d) == 2
        assert d.probs.dtype == np.float64

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ProbDist([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbDist([0.5, 0.6])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ProbDist([[0.5, 0.5]])
        with pytest.raises(ValueError):
            ProbDist([1.0])

    @pytest.mark.parametrize(
        "probs", [[np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf]]
    )
    def test_rejects_nan_or_infinite(self, probs):
        with pytest.raises(ValueError):
            ProbDist(probs)
        with pytest.raises(ValueError):
            ProbDist.table([[0.5, 0.5], probs])

    def test_table_rows_are_read_only_views_of_one_checked_matrix(self):
        matrix = np.array([[0.25, 0.75], [1.0, 0.0]])
        rows = ProbDist.table(matrix)
        assert [d.probs.tolist() for d in rows] == matrix.tolist()
        assert all(d.probs.base is matrix for d in rows)
        for target in (matrix, rows[1].probs):
            with pytest.raises(ValueError):
                target[0] = 0.5
        with pytest.raises(ValueError, match="got 1.1"):
            ProbDist.table([[0.5, 0.5], [0.5, 0.6]])
        with pytest.raises(ValueError):
            ProbDist.table([0.5, 0.5])

    def test_array_is_frozen(self):
        """The stored vector cannot be mutated in place."""
        d = ProbDist([0.5, 0.5])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_does_not_alias_input(self):
        raw = np.array([0.5, 0.5])
        d = ProbDist(raw)
        raw[0] = 0.9
        assert d.probs[0] == 0.5


class TestMultimodalPrompt:
    def test_empty_image_ctx_is_fine(self):
        p = MultimodalPrompt(image_ctx=(), text=(1, 2))
        assert p.image_ctx == ()

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            MultimodalPrompt(image_ctx=(1,), text=())

    def test_sequences_coerced_to_tuples(self):
        p = MultimodalPrompt(image_ctx=[3, 4], text=[5])
        assert p.image_ctx == (3, 4) and p.text == (5,)


class TestNormalize:
    def test_even_weights(self):
        d = normalize([2.0, 2.0])
        np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_weights_with_zero(self):
        d = normalize([0.0, 3.0, 1.0])
        np.testing.assert_allclose(d.probs, [0.0, 0.75, 0.25])

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroError):
            normalize([0.0, 0.0, 0.0])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            normalize([0.5, -0.5])

    @pytest.mark.parametrize(
        "weights", [[np.nan, 1.0], [np.nan, np.nan], [np.inf, 1.0], [-np.inf, 1.0]]
    )
    def test_nan_or_infinite_raises(self, weights):
        with pytest.raises(ValueError):
            normalize(weights)

    def test_idempotent(self):
        """normalize(normalize(w)) == normalize(w) within 1e-12, many random w."""
        rng = np.random.default_rng(1234)
        for _ in range(200):
            w = rng.random(rng.integers(2, 20))
            once = normalize(w).probs
            twice = normalize(once).probs
            assert np.max(np.abs(once - twice)) < 1e-12


class TestSample:
    def test_point_mass_exact(self):
        """A point mass at k always samples k, for every position."""
        for size in (2, 3, 7):
            for k in range(size):
                probs = np.zeros(size)
                probs[k] = 1.0
                d = ProbDist(probs)
                rng = RngState(99, (k,))
                assert all(sample(d, rng) == k for _ in range(20))

    def test_zero_prob_token_never_drawn(self):
        d = ProbDist([0.5, 0.0, 0.5])
        rng = RngState(7)
        draws = {sample(d, rng) for _ in range(2000)}
        assert draws == {0, 2}

    def test_deterministic_per_stream(self):
        """Same (seed, stream) gives the same token; a different stream may not."""
        d = ProbDist([0.3, 0.3, 0.4])
        a_rng, b_rng = RngState(5, (1,)), RngState(5, (1,))
        a = [sample(d, a_rng) for _ in range(10)]
        b = [sample(d, b_rng) for _ in range(10)]
        assert a == b
        c_rng = RngState(5, (2,))
        c = [sample(d, c_rng) for _ in range(10)]
        assert a != c

    def test_consumes_one_draw(self):
        d = ProbDist([0.5, 0.5])
        rng = RngState(0)
        sample(d, rng)
        sample(d, rng)
        assert_drawn(rng, 2)

    def test_empirical_frequency(self):
        """100000 fair-coin draws land within [0.49, 0.51] for token 0."""
        d = ProbDist([0.5, 0.5])
        rng = RngState(2024)
        n = 100_000
        zeros = sum(1 for _ in range(n) if sample(d, rng) == 0)
        assert 0.49 <= zeros / n <= 0.51


class TestSampleEdges:
    @staticmethod
    def rows_below_one():
        """Rows whose cumulative sum rounds below 1, with and without trailing
        zeros, some ending in an entry too small to move the sum, each built
        alone and as a table row."""
        rows = [[0.1] * 10, [0.1] * 10 + [0.0], [0.1] * 10 + [0.0] * 3, [0.0, *[0.1] * 10, 0.0]]
        rows += [[0.1] * 10 + [1e-300], [0.1] * 10 + [1e-300, 0.0]]
        rng = np.random.default_rng(30)
        while len(rows) < 12:
            w = rng.random(int(rng.integers(2, 20)))
            w[rng.random(w.size) < 0.3] = 0.0
            w[-int(rng.integers(0, 3)) or w.size :] = 0.0  # up to two trailing zeros
            if w.sum() > 0 and np.cumsum(w / w.sum())[-1] < 1.0:
                rows.append((w / w.sum()).tolist())
        return [ProbDist(r) for r in rows] + [ProbDist.table(np.array([r]))[0] for r in rows]

    def test_u_on_a_cumulative_sum_matches_searchsorted(self):
        """Ties: a u equal to a cumulative sum, including runs of equal sums
        from zero-probability tokens, draws the first token past it.  At
        every sum and the float on either side of it, ``sample`` draws what
        the reference rule draws on the true cumsum, for rows with zeros
        inside and at the end, and for a row whose sum passes 1 before its
        last positive entry."""
        d = ProbDist([0.25, 0.0, 0.25, 0.0, 0.0, 0.5])
        assert [sample(d, FixedUniform(u)) for u in (0.0, 0.25, 0.5)] == [0, 2, 5]
        over = ProbDist([0.5, 0.5 + 2**-52, 1e-300])
        assert np.cumsum(over.probs)[1] > 1.0
        rng = np.random.default_rng(31)
        rows = [d, over, *self.rows_below_one(), *(random_dist(rng, 7, allow_zeros=True) for _ in range(40))]
        for d in rows:
            for u in boundary_uniforms(d):
                assert sample(d, FixedUniform(u)) == cumsum_sample(d, u), (d, u)

    def test_cdf_rounding_below_one_falls_back_to_last_positive(self):
        """A u past a cumulative sum that rounded below 1 draws the last
        positive entry, as the reference rule's fallback does: the stored
        cdf is the cumsum up to that entry and 1.0 from it on."""
        for d in self.rows_below_one():
            sums, last = np.cumsum(d.probs), int(np.flatnonzero(d.probs)[-1])
            assert sums[-1] < 1.0
            assert list(d.cdf) == sums[:last].tolist() + [1.0] * (len(d) - last) == clamped_cdf(d.probs)
            for u in {sums[-1], float(np.nextafter(sums[-1], 1.0)), float(np.nextafter(1.0, 0.0))} - {1.0}:
                assert sample(d, FixedUniform(u)) == cumsum_sample(d, u) == last


class TestArgmax:
    def test_tie_breaks_low(self):
        assert argmax(ProbDist([0.5, 0.5])) == 0
        assert argmax(ProbDist([0.2, 0.4, 0.4])) == 1

    def test_plain_max(self):
        assert argmax(ProbDist([0.1, 0.7, 0.2])) == 1

    def test_built_row_calls_no_numpy(self, monkeypatch):
        """The index is set when a row is built, alone or in a table, so
        ``argmax`` calls ``np.argmax`` zero times."""
        rows = [ProbDist([0.1, 0.7, 0.2]), *ProbDist.table(np.array([[0.1, 0.7, 0.2], [0.6, 0.2, 0.2]]))]
        calls = []
        real = np.argmax
        monkeypatch.setattr(core.np, "argmax", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert [argmax(d) for d in rows] == [argmax(d) for d in rows] == [1, 1, 0]
        assert calls == []

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_equals_numpy_on_bundled_corpus_rows(self, order):
        """Every row of a bundled-corpus model's table, the shared uniform
        row and rows whose largest count is tied among them; their ``cdf``
        (the cumsum, 1.0 from the last positive entry on) and ``values``,
        built for the whole table at once, equal the per-row numpy answers
        too, and rows across the table draw what the reference rule draws
        at every cumulative-sum boundary."""
        tok = CharTokenizer()
        lines = demo_corpus_path().read_text(encoding="utf-8").splitlines()
        seqs = [tok.encode(line) + [tok.vocab.eos] for line in lines if line.strip()]
        m = train_ngram(seqs, order, 0.1, tok.vocab)
        rows = [*m.rows.values(), m._uniform]
        tied = [d for d in rows if np.count_nonzero(d.probs == d.probs.max()) > 1]
        assert m._uniform in tied and (order == 1 or len(tied) > 1)
        for d in rows:
            assert argmax(d) == argmax(d) == int(np.argmax(d.probs))
            assert list(d.cdf) == clamped_cdf(d.probs)
            assert list(d.values) == d.probs.tolist()
        for d in rows[:: max(1, len(rows) // 60)]:  # a spread of rows, as each has ~230 boundary draws
            for u in boundary_uniforms(d):
                assert sample(d, FixedUniform(u)) == cumsum_sample(d, u)


class TestCdf:
    def test_is_a_read_only_view_of_the_cumsum(self):
        d = ProbDist([0.25, 0.0, 0.75])
        with pytest.raises(TypeError):
            d.cdf[0] = 0.5
        assert d.cdf.tolist() == np.cumsum(d.probs).tolist() == [0.25, 0.25, 1.0]


class TestValues:
    def test_is_a_read_only_view_of_probs(self):
        """Entry by entry the floats of ``probs``, for a built row and for
        table rows, made once and not writable."""
        for d in (ProbDist([0.25, 0.0, 0.75]), *ProbDist.table(np.array([[0.5, 0.5, 0.0], [0.1, 0.2, 0.7]]))):
            values = d.values
            assert values is d.values and values.readonly
            with pytest.raises(TypeError):
                values[0] = 0.5
            got = [values[i] for i in range(len(d))]
            assert got == d.probs.tolist() and all(type(v) is float for v in got)


class TestLines:
    @pytest.mark.parametrize(
        "text, lines",
        [
            ("", []),
            ("a", ["a"]),
            ("a\n", ["a"]),
            ("\n\n", ["", ""]),
            ("a\r\n\r\nb", ["a", "", "b"]),
            ("a\rb\n", ["a\rb"]),
            ("a\r\r\n", ["a\r"]),
            ("a\r", ["a\r"]),
            ("a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i\n", ["a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i"]),
        ],
    )
    def test_a_line_ends_only_at_a_newline(self, text, lines):
        """A line ends at ``\\n``, and a ``\\r`` just before it is dropped;
        a lone ``\\r`` and the other breaks of ``str.splitlines`` stay in
        their line."""
        assert core._lines(text) == lines


class TestRngState:
    @pytest.mark.parametrize("seed, stream", [(0, ()), (11, (3,)), (2**64 - 1, (1, 0, 7))])
    def test_draws_equal_scalar_generator_draws(self, seed, stream):
        """Batched draws are the scalar Philox draws of the same address."""
        rng = RngState(seed, stream)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream)))
        assert [rng.uniform() for _ in range(300)] == [gen.random() for _ in range(300)]
        assert_drawn(rng, 300)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_key_is_the_seed_sequence_key(self, seed):
        """The generator's state is the one ``SeedSequence(seed,
        spawn_key=stream)`` gives, and so are its draws: for seeds on either
        side of a 32-bit word and the largest seed, with no stream, one-id and
        four-id streams, and ids of one, two and three words."""
        streams = [(), (0,), (1, 7, 19, 2), (2**32 - 1,), (2**32,), (5, 2**64 - 1, 0), (2**70 + 3, 1)]
        for stream in streams:
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream)))
            assert list(islice(RngState(seed, stream), 3)) == gen.random(3).tolist(), stream
            fresh = np.random.Philox(np.random.SeedSequence(seed, spawn_key=stream)).state
            assert core._philox(seed, stream).bit_generator.state["state"]["key"].tolist() == fresh["state"]["key"].tolist()

    @pytest.mark.parametrize("stream", [-1, (1, -2), (0, 3, -(2**70))])
    def test_negative_stream_id_rejected(self, stream):
        """A negative stream id is refused by name when the state is built or
        derived, not at its first draw inside numpy, which a greedy run never
        makes."""
        shown = (stream,) if isinstance(stream, int) else stream
        with pytest.raises(ValueError, match=re.escape(f"got stream {shown}")):
            RngState(0, stream)
        *head, last = shown
        with pytest.raises(ValueError, match=re.escape(f"got stream {shown}")):
            RngState(0, tuple(head)).substream(last)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200, REFILL - 1, REFILL, REFILL + 1, 2 * REFILL + 1])
    @pytest.mark.parametrize("before", [0, 37])
    def test_take_equals_scalar_draws(self, before, n):
        """After ``before`` draws, taking ``n`` with ``islice(iter(rng), n)``
        and one more ``uniform()`` give the next ``n + 1`` scalar Philox draws
        of the same address."""
        rng = RngState(7, (2,))
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(2,))))
        got = [rng.uniform() for _ in range(before)]
        taken = list(islice(iter(rng), n))
        assert len(taken) == n
        assert got + taken + [rng.uniform()] == [gen.random() for _ in range(before + n + 1)]

    @pytest.mark.parametrize("kept", [0, 1, 30, 64, 100, REFILL - 1, REFILL, REFILL + 1, 2 * REFILL + 1])
    def test_untake_gives_back_the_tail(self, kept):
        """``uniform()`` and ``iter(rng)`` read one cursor: whatever an
        ``islice`` of ``kept`` draws leaves unread is the next ``uniform()``,
        and any interleaving of the two, across refill boundaries, reads the
        stream's draws in order, each once."""
        rng, fresh = RngState(3), RngState(3)
        assert iter(rng) is iter(rng)
        got = [rng.uniform(), *islice(rng, kept), rng.uniform()]
        for i, k in enumerate(np.random.default_rng(kept).integers(0, REFILL + 2, 12).tolist()):
            got += islice(iter(rng), k) if i % 2 else [rng.uniform() for _ in range(k)]
        assert got == [fresh.uniform() for _ in range(len(got))]
        assert_drawn(rng, len(got))

    def test_greedy_generation_draws_nothing(self, monkeypatch):
        """Greedy SPD runs derive no substream of the state they are given,
        and greedy SPD and baseline runs never build a Philox generator, so
        no state takes a draw."""
        derived, built = [], []
        philox = np.random.Philox
        monkeypatch.setattr(core.np.random, "Philox", lambda *a, **kw: built.append(a) or philox(*a, **kw))

        class RecordingRng(RngState):
            def substream(self, *ids):
                derived.append(super().substream(*ids))
                return derived[-1]

        rng = np.random.default_rng(12)
        vocab = Vocab(size=6, eos=0)
        target, draft = (
            view(train_ngram(rng.integers(0, 6, (8, 10)).tolist(), order, 0.5, vocab))
            for view, order in ((MultimodalTargetLm, 3), (TextOnlyDraftLm, 2))
        )
        cfg = SpdConfig(gamma=3, mode="greedy", max_new_tokens=32)
        prompt = MultimodalPrompt((1,), (2, 3))
        spd_generate(target, draft, prompt, cfg, RecordingRng(5))
        baseline_rng = RngState(5, (0,))
        autoregressive_generate(target, prompt, 32, "greedy", baseline_rng)
        assert derived == []
        assert built == []
        RngState(5).uniform()
        assert len(built) == 1

    def test_streams_independent_of_position(self):
        """substream() depends only on identity, not on draws already taken."""
        a = RngState(21, (1,))
        b = RngState(21, (1,))
        for _ in range(5):
            b.uniform()
        assert a.substream(7).uniform() == b.substream(7).uniform()

    def test_distinct_streams_differ(self):
        xs = [RngState(3, (s,)).uniform() for s in range(8)]
        assert len(set(xs)) == len(xs)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngState(-1)
        with pytest.raises(ValueError):
            RngState(2**64)

    @pytest.mark.parametrize(
        "seed, stream, shown",
        [
            (1.5, (2, 1), "seed must be an unsigned 64-bit integer, got 1.5"),
            (True, (), "seed must be an unsigned 64-bit integer, got True"),
            (np.float64(3.0), (), f"got {np.float64(3.0)!r}"),
            ("7", (), "got '7'"),
            (1, (2.7, True), "got stream (2.7, True)"),
            (1, (1, False), "got stream (1, False)"),
            (1, True, "got stream (True,)"),
            (1, 1.5, "got stream (1.5,)"),
            (1, (np.bool_(True),), f"got stream {(np.bool_(True),)!r}"),
            (1, "ab", "got stream ('ab',)"),
        ],
    )
    def test_non_integer_seed_or_stream_rejected(self, seed, stream, shown):
        """A float, a bool or any other non-integer seed or stream id is
        refused by value; ``int()`` would have truncated it to another
        stream's address."""
        with pytest.raises(ValueError, match=re.escape(shown)):
            RngState(seed, stream)

    def test_numpy_integers_accepted(self):
        rng = RngState(np.uint64(5), (np.int32(2), np.int64(2**40)))
        assert rng.seed == 5 and rng.stream == (2, 2**40)
        assert type(rng.seed) is int and all(type(s) is int for s in rng.stream)
        assert rng.uniform() == RngState(5, (2, 2**40)).uniform()
        assert RngState(5, [1, 2]).stream == (1, 2)

    def test_int_stream_equivalent_to_tuple(self):
        assert RngState(9, 4).uniform() == RngState(9, (4,)).uniform()
