"""Tests for draft/verify primitives and the generation loops."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import (
    FixedUniform,
    assert_drawn,
    bundled_corpus,
    code,
    flat_code,
    keyless_spd_generate,
    loop_walk,
    random_dist,
    random_model,
    random_prompt,
    random_vocab,
)

from mmspec import engine
from mmspec.core import AllZeroError, MultimodalPrompt, ProbDist, RngState, Vocab, argmax, normalize, sample
from mmspec.engine import (
    BlockRecord,
    BlockTrace,
    DraftZeroProbError,
    ShapeMismatchError,
    SpdConfig,
    autoregressive_generate,
    draft_block,
    residual_dist,
    residual_table,
    spd_generate,
    verify_greedy,
    verify_stochastic,
)
from mmspec.harness import CharTokenizer
from mmspec.models import MultimodalTargetLm, TextOnlyDraftLm, train_ngram


class QueryCounter:
    """View mixin that counts model queries by method name."""

    def __init__(self, base):
        super().__init__(base)
        self.queries = Counter()

    def next_dist(self, *args, **kwargs):
        self.queries["next_dist"] += 1
        return super().next_dist(*args, **kwargs)

    def score_block(self, *args, **kwargs):
        self.queries["score_block"] += 1
        return super().score_block(*args, **kwargs)


class KeyRecorder(dict):
    """Row table that records every context key it is asked for."""

    def __init__(self, rows):
        super().__init__(rows)
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


class CodeChecker:
    """View mixin that records the window code each walk and score_block is
    given, and checks it against the :func:`code` of the output's flat window."""

    def __init__(self, base):
        super().__init__(base)
        self.codes = []

    def _given(self, prompt, generated, key):
        self.codes.append(key)
        assert key is None or key == flat_code(self, prompt, generated), (key, list(generated))

    def walk(self, prompt, generated, n, rng=None, stop=None, key=None):
        self._given(prompt, generated, key)
        return super().walk(prompt, generated, n, rng, stop, key)

    def score_block(self, prompt, generated, block, key=None):
        self._given(prompt, generated, key)
        return super().score_block(prompt, generated, block, key)


def code_checked(view_class, base):
    """A ``view_class`` view of ``base`` that is also a :class:`CodeChecker`."""
    return type(f"Checked{view_class.__name__}", (CodeChecker, view_class), {})(base)


class SpyTarget(QueryCounter, MultimodalTargetLm):
    pass


class SpyDraft(QueryCounter, TextOnlyDraftLm):
    pass


def record_lookups(view):
    """Route ``view``'s row lookups, and only those, through a :class:`KeyRecorder`; returns the list of keys
    asked.  ``engine.residual_table`` reads the base model's own table."""
    rows = KeyRecorder(view.base.rows)
    view._get = rows.get
    return rows.asked


def make_pair(rng, vocab, target_order=None, draft_order=None, views=(MultimodalTargetLm, TextOnlyDraftLm)):
    """Random (target, draft) views over independently trained models."""
    target = views[0](random_model(rng, vocab, order=target_order))
    draft = views[1](random_model(rng, vocab, order=draft_order))
    return target, draft


class TestConfigTypes:
    def test_spd_config_validation(self):
        with pytest.raises(ValueError):
            SpdConfig(gamma=0)
        with pytest.raises(ValueError):
            SpdConfig(gamma=1, mode="beam")
        with pytest.raises(ValueError):
            SpdConfig(gamma=1, max_new_tokens=0)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"gamma": 2.5}, "gamma"),
            ({"gamma": True}, "gamma"),
            ({"gamma": np.float64(3.0)}, "gamma"),
            ({"gamma": 2, "max_new_tokens": 3.5}, "max_new_tokens"),
            ({"gamma": 2, "max_new_tokens": True}, "max_new_tokens"),
            ({"gamma": 2, "stop_on_eos": "no"}, "stop_on_eos"),
            ({"gamma": 2, "stop_on_eos": 0}, "stop_on_eos"),
        ],
    )
    def test_spd_config_rejects_wrong_kinds(self, fields, name):
        """A float or bool count and a non-bool flag are refused by name when
        the config is built; unchecked, a float failed inside the walk as a
        bare TypeError and ``True`` or ``'no'`` ran as 1 or ``True``."""
        with pytest.raises(ValueError, match=f"^{name} must be"):
            SpdConfig(**fields)

    def test_spd_config_takes_numpy_integers(self):
        cfg = SpdConfig(gamma=np.int64(3), max_new_tokens=np.int32(5), stop_on_eos=False)
        assert (cfg.gamma, cfg.max_new_tokens, cfg.stop_on_eos) == (3, 5, False)

    @pytest.mark.parametrize("max_new_tokens", [3.5, True, "4"])
    def test_autoregressive_rejects_non_integer_length(self, max_new_tokens):
        rng = np.random.default_rng(70)
        vocab = random_vocab(rng)
        target, _ = make_pair(rng, vocab)
        with pytest.raises(ValueError, match="^max_new_tokens must be an integer"):
            autoregressive_generate(target, random_prompt(rng, vocab), max_new_tokens)

    @pytest.mark.parametrize("stop_on_eos", ["no", None, 0, 1])
    def test_autoregressive_rejects_non_bool_stop_on_eos(self, stop_on_eos):
        """The flag is refused by name, as SpdConfig refuses it; unchecked,
        ``'no'`` ran with the EOS stop and ``None`` or ``0`` without one."""
        rng = np.random.default_rng(71)
        vocab = random_vocab(rng)
        target, _ = make_pair(rng, vocab)
        with pytest.raises(ValueError, match=f"^stop_on_eos must be a bool, got {stop_on_eos!r}$"):
            autoregressive_generate(target, random_prompt(rng, vocab), 4, stop_on_eos=stop_on_eos)

    def test_records_reject_attribute_assignment(self):
        record = BlockRecord((1,), 1, (1, 0), "bonus")
        for name in ("draft_tokens", "accepted", "emitted", "correction_kind", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record == ((1,), 1, (1, 0), "bonus")


class TestResidualDist:
    def test_positive_part_normalized(self):
        res = residual_dist(ProbDist([0.9, 0.1]), ProbDist([0.5, 0.5]))
        np.testing.assert_allclose(res.probs, [1.0, 0.0])

    def test_equal_dists_raise(self):
        """An all-zero residual is not memoized: every call raises."""
        d = ProbDist([0.4, 0.6])
        for _ in range(2):
            with pytest.raises(AllZeroError):
                residual_dist(d, d)

    def test_memoized_per_pair(self):
        q, p, p2 = ProbDist([0.7, 0.2, 0.1]), ProbDist([0.2, 0.5, 0.3]), ProbDist([0.1, 0.1, 0.8])
        res = residual_dist(q, p)
        assert residual_dist(q, p) is res
        np.testing.assert_array_equal(res.probs, normalize(np.maximum(q.probs - p.probs, 0.0)).probs)
        other = residual_dist(q, p2)
        assert other is not res
        np.testing.assert_array_equal(other.probs, normalize(np.maximum(q.probs - p2.probs, 0.0)).probs)
        assert not np.array_equal(other.probs, res.probs)


class TestDraftBlock:
    def test_block_has_gamma_tokens_and_dists(self):
        rng = np.random.default_rng(60)
        vocab = random_vocab(rng)
        _, draft = make_pair(rng, vocab)
        prompt = random_prompt(rng, vocab)
        tokens, dists = draft_block(draft, prompt, (), 4, RngState(1, (0,)))
        assert len(tokens) == 4 and len(dists) == 4

    def test_dists_match_draft_view(self):
        """Each stored dist equals the draft's dist at that drafted prefix."""
        rng = np.random.default_rng(61)
        vocab = random_vocab(rng)
        _, draft = make_pair(rng, vocab)
        prompt = random_prompt(rng, vocab)
        tokens, dists = draft_block(draft, prompt, (2 % vocab.size,), 3, RngState(2, (0,)))
        gen = (2 % vocab.size,)
        for j in range(3):
            want = draft.next_dist(prompt, gen + tokens[:j])
            np.testing.assert_array_equal(dists[j].probs, want.probs)

    def test_greedy_mode_picks_argmax(self):
        rng = np.random.default_rng(62)
        vocab = random_vocab(rng)
        _, draft = make_pair(rng, vocab)
        prompt = random_prompt(rng, vocab)
        tokens, dists = draft_block(draft, prompt, (), 3, None)
        for j in range(3):
            assert tokens[j] == argmax(dists[j])

    def test_callers_generated_list_unchanged(self):
        """Drafting reads the caller's list and never changes it."""
        rng = np.random.default_rng(63)
        vocab = random_vocab(rng, min_size=4)
        _, draft = make_pair(rng, vocab, draft_order=3)
        prompt = random_prompt(rng, vocab)
        generated = [1, 3, 2]
        tokens, _ = draft_block(draft, prompt, generated, 5, RngState(3, (0,)))
        assert generated == [1, 3, 2]
        assert tokens == draft_block(draft, prompt, (1, 3, 2), 5, RngState(3, (0,)))[0]

    def test_callers_generated_list_unchanged_when_draft_raises(self):
        """A row lookup that fails mid-walk propagates, and the caller's list
        is as it was, as it is after a block that returns."""

        class FailingRows(dict):
            """Row table whose ``fail_at``-th lookup raises."""

            fail_at, calls = 0, 0

            def get(self, key, default=None):
                self.calls += 1
                if self.calls == self.fail_at:
                    raise RuntimeError("draft failed")
                return super().get(key, default)

        rng = np.random.default_rng(63)
        vocab = random_vocab(rng, min_size=4)
        base = random_model(rng, vocab, order=3)
        rows = base.rows = FailingRows(base.rows)
        draft = TextOnlyDraftLm(base)
        prompt = random_prompt(rng, vocab)
        generated = [1, 3, 2]
        for new_stream in (lambda: RngState(3, (0,)), lambda: None):  # a sampled block, then a greedy one
            rows.fail_at, rows.calls = 0, 0
            tokens, _ = draft_block(draft, prompt, generated, 5, new_stream())
            assert generated == [1, 3, 2] and len(tokens) == 5 and rows.calls == 5
            rows.fail_at, rows.calls = 3, 0  # the first row is next_dist's, the third is the walk's second
            with pytest.raises(RuntimeError, match="draft failed"):
                draft_block(draft, prompt, generated, 5, new_stream())
            assert generated == [1, 3, 2] and rows.calls == 3

    def test_no_stream_is_the_greedy_block(self):
        """A block drafted with no stream is the draft's argmax walk, and one
        drafted with a stream is its sampled walk, reading exactly ``gamma``
        of the stream's draws; the two differ on some instances."""
        rng = np.random.default_rng(64)
        differs = 0
        for trial in range(20):
            vocab = random_vocab(rng)
            _, draft = make_pair(rng, vocab)
            prompt = random_prompt(rng, vocab)
            gen = rng.integers(0, vocab.size, int(rng.integers(0, 4))).tolist()
            gamma = int(rng.integers(1, 6))
            tokens, dists = draft_block(draft, prompt, gen, gamma, None)
            want_tokens, want_rows = loop_walk(draft, prompt, gen, gamma)
            assert tokens == tuple(want_tokens)
            assert all(a is b for a, b in zip(dists, want_rows, strict=True))
            stream = RngState(trial, (0,))
            sampled, dists = draft_block(draft, prompt, gen, gamma, stream)
            want_tokens, want_rows = loop_walk(draft, prompt, gen, gamma, RngState(trial, (0,)))
            assert sampled == tuple(want_tokens)
            assert all(a is b for a, b in zip(dists, want_rows, strict=True))
            assert_drawn(stream, gamma)
            differs += sampled != tokens
        assert differs

    def test_draft_eos_does_not_stop_drafting(self):
        """A draft that loves EOS still proposes a full block."""
        vocab = Vocab(size=3, eos=1)
        m = train_ngram([[1, 1, 1, 1]], order=1, alpha=0.01, vocab=vocab)
        draft = TextOnlyDraftLm(m)
        prompt = MultimodalPrompt((), (0,))
        tokens, _ = draft_block(draft, prompt, (), 3, None)
        assert tokens == (1, 1, 1)


class TestVerifyStochastic:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            verify_stochastic([ProbDist([0.5, 0.5])], (0,), (ProbDist([0.5, 0.5]),), RngState(0), RngState(1))

    @pytest.mark.parametrize("rows", [0, 2])
    def test_draft_rows_must_match_tokens(self, rows):
        """One drafted token needs exactly one draft row."""
        d = ProbDist([0.5, 0.5])
        with pytest.raises(ShapeMismatchError, match=f"1 drafted tokens, {rows} draft and 2 target"):
            verify_stochastic([d, d], (0,), (d,) * rows, FixedUniform(0.5), FixedUniform(0.5))

    def test_accept_reads_the_row_at_its_own_position(self):
        """Drafted token 0 is sure to survive against ``target_dists[0]``
        (q = p) and sure to fail against ``target_dists[1]`` (q = 0 there)."""
        p, q0, q1 = ProbDist([0.5, 0.5]), ProbDist([0.5, 0.5]), ProbDist([0.0, 1.0])
        out = verify_stochastic([q0, q1], (0,), (p,), FixedUniform(0.5), FixedUniform(0.5))
        assert (out.accepted, out.emitted, out.correction_kind) == (1, (0, 1), "bonus")

    def test_bonus_reads_the_row_after_the_block(self):
        """After a clean block the bonus comes from ``target_dists[n]``, a
        point mass on 1; ``target_dists[n - 1]`` would give 0 at u = 0.25."""
        p = ProbDist([0.5, 0.5])
        out = verify_stochastic(
            [p, ProbDist([0.0, 1.0])], (0,), (p,), FixedUniform(0.0), FixedUniform(0.25)
        )
        assert (out.accepted, out.emitted, out.correction_kind) == (1, (0, 1), "bonus")

    def test_rejection_resamples_from_the_residual(self):
        """p = [.75, .25], q = [.25, .75]: u = 0.5 rejects drafted 0
        (q/p = 1/3), and the residual ``max(q - p, 0)`` is a point mass on 1,
        where q itself would give 0 at u = 0.1."""
        p, q = ProbDist([0.75, 0.25]), ProbDist([0.25, 0.75])
        out = verify_stochastic([q, q], (0,), (p,), FixedUniform(0.5), FixedUniform(0.1))
        assert (out.accepted, out.emitted, out.correction_kind) == (0, (1,), "residual-resample")

    def test_zero_draft_prob_raises(self):
        """A drafted token its draft row gives no mass is a caller bug, even
        where the target would accept it."""
        p, q = ProbDist([1.0, 0.0]), ProbDist([0.5, 0.5])
        with pytest.raises(DraftZeroProbError):
            verify_stochastic([q, q, q], (0, 1), (p, p), FixedUniform(0.0), RngState(1))

    def test_sure_accept_consumes_one_uniform_per_position(self):
        """q >= p at each drafted token: all accepted, 3 draws consumed."""
        p = ProbDist([0.5, 0.5])
        q = ProbDist([0.5, 0.5])
        rng = RngState(3, (1,))
        res_rng = RngState(3, (2,))
        out = verify_stochastic([q, q, q, q], (0, 1, 0), (p, p, p), rng, res_rng)
        assert out.accepted == 3
        assert out.correction_kind == "bonus"
        assert_drawn(rng, 3)
        assert_drawn(res_rng, 1)  # the bonus draw

    def test_sure_reject_stops_at_first_position(self):
        """q == 0 at the first drafted token forces rejection there."""
        p = ProbDist([1.0, 0.0])
        q = ProbDist([0.0, 1.0])
        rng = RngState(4, (1,))
        out = verify_stochastic([q, q, q], (0, 0), (p, p), rng, rng)
        assert out.draft_tokens == (0, 0)
        assert out.accepted == 0
        assert out.correction_kind == "residual-resample"
        assert out.emitted == (1,)
        assert_drawn(rng, 2)  # one accept draw + one resample draw

    def test_single_step_marginal(self):
        """p=[.5,.5], q=[.9,.1]: emitted-token frequency approaches [0.9, 0.1]."""
        p = ProbDist([0.5, 0.5])
        q = ProbDist([0.9, 0.1])
        bonus = ProbDist([0.5, 0.5])
        n = 20_000
        hits = np.zeros(2)
        root = RngState(77)
        for i in range(n):
            trial = root.substream(i)
            draft_rng = trial.substream(0)
            tok = 0 if draft_rng.uniform() < 0.5 else 1
            out = verify_stochastic([q, bonus], (tok,), (p,), trial.substream(1), trial.substream(2))
            hits[out.emitted[0]] += 1
        freq = hits / n
        # 4-sigma band around 0.9 is about +/- 0.0085
        assert abs(freq[0] - 0.9) < 0.012

    def test_accepted_equals_gamma_iff_bonus(self):
        rng = np.random.default_rng(63)
        for trial in range(200):
            size = int(rng.integers(2, 6))
            gamma = int(rng.integers(1, 4))
            dists = []
            toks = []
            for _ in range(gamma):
                w = rng.random(size)
                d = ProbDist(w / w.sum())
                dists.append(d)
                toks.append(int(rng.integers(0, size)))
                if d.probs[toks[-1]] == 0.0:  # keep draft prob positive
                    toks[-1] = int(np.argmax(d.probs))
            toks = tuple(toks)
            q = [ProbDist(w / w.sum()) for w in (rng.random(size) + 1e-6 for _ in range(gamma + 1))]
            out = verify_stochastic(q, toks, dists, RngState(trial, (1,)), RngState(trial, (2,)))
            assert (out.accepted == gamma) == (out.correction_kind == "bonus")
            assert 1 <= len(out.emitted) <= gamma + 1
            assert out.emitted[: out.accepted] == toks[: out.accepted]

    def test_rows_a_few_ulps_apart(self):
        """p = q +- k ulp per entry, with the largest uniform below 1 forced:
        a drafted token is rejected exactly when p > q there, and the
        correction is the residual's draw, or q's when the residual has no
        positive mass (``residual_dist`` raises for such a pair)."""
        below_one = float(np.nextafter(1.0, 0.0))
        p = ProbDist([0.5, 0.25, 0.25])
        q = ProbDist([np.nextafter(0.5, 0.0), 0.25, 0.25])
        out = verify_stochastic([q, q], (0,), (p,), FixedUniform(below_one), RngState(0))
        assert (out.accepted, out.correction_kind) == (0, "residual-resample")
        rng = np.random.default_rng(75)
        no_residual = 0
        for trial in range(400):
            q = random_dist(rng, int(rng.integers(2, 7)), allow_zeros=True)
            ulps = rng.integers(-4, 5, len(q))
            p = ProbDist(np.maximum(q.probs + ulps * np.spacing(q.probs), 0.0))
            tok = int(rng.choice(np.flatnonzero(p.probs > 0.0)))
            out = verify_stochastic(
                [q, q], (tok,), (p,), FixedUniform(below_one), RngState(trial, (2,))
            )
            if p.probs[tok] <= q.probs[tok]:
                assert (out.accepted, out.correction_kind) == (1, "bonus")
                continue
            try:
                res = residual_dist(q, p)
            except AllZeroError:
                res, no_residual = q, no_residual + 1
            assert out.accepted == 0 and out.correction_kind == "residual-resample"
            assert out.emitted == (sample(res, RngState(trial, (2,))),)
        assert no_residual > 20


class TestVerifyGreedy:
    def test_accepts_matching_argmax(self):
        q0 = ProbDist([0.1, 0.9])
        q1 = ProbDist([0.8, 0.2])
        out = verify_greedy([q0, q1, ProbDist([0.3, 0.7])], (1, 0))
        assert out.accepted == 2
        assert out.emitted == (1, 0, 1)
        assert out.correction_kind == "bonus"

    def test_correction_is_target_argmax(self):
        q0 = ProbDist([0.1, 0.9])
        out = verify_greedy([q0, q0, q0], (0, 0))
        assert out.accepted == 0
        assert out.emitted == (1,)
        assert out.correction_kind == "greedy-correction"

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            verify_greedy([ProbDist([0.5, 0.5])] * 3, (0,))


class TestSpdGenerate:
    def test_greedy_lossless_random_instances(self):
        """SPD greedy output is token-identical to the autoregressive chain."""
        rng = np.random.default_rng(64)
        gammas = [1, 2, 3, 5]
        for trial in range(40):
            vocab = random_vocab(rng, max_size=32)
            target, draft = make_pair(rng, vocab)
            prompt = random_prompt(rng, vocab)
            cfg = SpdConfig(gamma=gammas[trial % 4], mode="greedy", max_new_tokens=48)
            spd, _ = spd_generate(target, draft, prompt, cfg, RngState(trial))
            ar = autoregressive_generate(target, prompt, 48)
            assert spd == ar

    def test_trace_accounting(self):
        """The trace's derived counts equal the model queries actually made:
        per block, one target score_block and one draft walk.  Only the first
        block's walk calls next_dist; later blocks start from the window code
        the loop carries.  Either way every drafted token is one row lookup."""
        rng = np.random.default_rng(65)
        for trial in range(25):
            vocab = random_vocab(rng)
            target, draft = make_pair(rng, vocab, views=(SpyTarget, SpyDraft))
            lookups = record_lookups(draft)
            prompt = random_prompt(rng, vocab)
            gamma = int(rng.integers(1, 5))
            mode = "greedy" if trial % 2 else "stochastic"
            cfg = SpdConfig(gamma=gamma, mode=mode, max_new_tokens=32)
            out, trace = spd_generate(target, draft, prompt, cfg, RngState(trial))
            assert target.queries == Counter(score_block=trace.target_calls)
            assert draft.queries == Counter(next_dist=1)
            assert len(lookups) == trace.draft_calls
            assert trace.draft_calls == gamma * trace.target_calls
            assert trace.total_emitted == len(out)
            for b in trace.blocks:
                assert 1 <= len(b.emitted) <= gamma + 1
                assert (b.accepted == gamma) == (b.correction_kind == "bonus")

    @pytest.mark.parametrize("draft_view", [TextOnlyDraftLm, MultimodalTargetLm])
    def test_carried_codes_are_the_views_own(self, draft_view):
        """Over random models of order 1-4, a text-only or an image-aware
        draft, prompts shorter than the window, EOS truncation on and off, and
        greedy and stochastic runs, every block is scored from, and every
        block after the first drafted from, the code of the view's flat
        window after ``out``; the first block's draft walk is handed none, so
        it keys itself.  The output and trace equal the reference loop's,
        which keys every block from ``(prompt, out)``."""
        rng = np.random.default_rng(80)
        checked = Counter()
        for trial in range(120):
            vocab = random_vocab(rng, max_size=10)
            target_base = random_model(rng, vocab, order=int(rng.integers(1, 5)))
            draft_base = random_model(rng, vocab, order=int(rng.integers(1, 5)))
            target, draft = code_checked(MultimodalTargetLm, target_base), code_checked(draft_view, draft_base)
            prompt = random_prompt(rng, vocab, max_image=int(rng.integers(0, 3)), max_text=2)
            cfg = SpdConfig(
                gamma=int(rng.integers(1, 6)),
                mode=("greedy", "stochastic")[trial % 2],
                max_new_tokens=int(rng.integers(1, 40)),
                stop_on_eos=trial % 4 < 2,
            )
            out, trace = spd_generate(target, draft, prompt, cfg, RngState(trial))
            assert len(target.codes) == len(draft.codes) == trace.target_calls
            assert draft.codes[0] is None and None not in draft.codes[1:] + target.codes
            reference = (MultimodalTargetLm(target_base), draft_view(draft_base), prompt, cfg, RngState(trial))
            assert (out, trace) == keyless_spd_generate(*reference)
            checked["short prompt"] += len(prompt.text) < max(target_base.order, draft_base.order) - 1
            checked["EOS stop"] += cfg.stop_on_eos and out[-1] == vocab.eos
            checked["EOS passed"] += not cfg.stop_on_eos and vocab.eos in out[:-1]
            checked["length limit"] += len(out) == cfg.max_new_tokens
            checked["several blocks"] += trace.target_calls > 1
        assert min(checked.values()) > 0, checked

    def test_stochastic_seed_determinism(self):
        rng = np.random.default_rng(66)
        vocab = random_vocab(rng)
        target, draft = make_pair(rng, vocab)
        prompt = random_prompt(rng, vocab)
        cfg = SpdConfig(gamma=3, mode="stochastic", max_new_tokens=32)
        a, _ = spd_generate(target, draft, prompt, cfg, RngState(9))
        b, _ = spd_generate(target, draft, prompt, cfg, RngState(9))
        assert a == b

    def test_stochastic_seed_sensitivity(self):
        """Across several instances, some seed change alters the output."""
        rng = np.random.default_rng(67)
        changed = 0
        for trial in range(10):
            vocab = random_vocab(rng, min_size=4)
            target, draft = make_pair(rng, vocab)
            prompt = random_prompt(rng, vocab)
            cfg = SpdConfig(gamma=2, mode="stochastic", max_new_tokens=24)
            a, _ = spd_generate(target, draft, prompt, cfg, RngState(100 + trial))
            b, _ = spd_generate(target, draft, prompt, cfg, RngState(200 + trial))
            changed += a != b
        assert changed > 0

    def test_single_token_budget(self):
        """max_new_tokens=1 emits exactly one token with one target call."""
        rng = np.random.default_rng(68)
        vocab = random_vocab(rng)
        target, draft = make_pair(rng, vocab)
        prompt = random_prompt(rng, vocab)
        out, trace = spd_generate(
            target, draft, prompt, SpdConfig(gamma=3, mode="greedy", max_new_tokens=1), RngState(0)
        )
        assert len(out) == 1
        assert trace.target_calls == 1

    def test_eos_first_token_stops(self):
        """A target that always predicts EOS yields the single token [eos]."""
        vocab = Vocab(size=3, eos=2)
        m = train_ngram([[2, 2, 2, 2, 2]], order=1, alpha=0.01, vocab=vocab)
        target = MultimodalTargetLm(m)
        draft = TextOnlyDraftLm(m)
        prompt = MultimodalPrompt((), (0,))
        out, trace = spd_generate(
            target, draft, prompt, SpdConfig(gamma=3, mode="greedy", max_new_tokens=16), RngState(0)
        )
        assert out == [2]
        assert trace.target_calls == 1

    def test_eos_truncation_keeps_eos_drops_rest(self):
        rng = np.random.default_rng(69)
        for trial in range(25):
            vocab = random_vocab(rng)
            target, draft = make_pair(rng, vocab)
            prompt = random_prompt(rng, vocab)
            cfg = SpdConfig(gamma=3, mode="stochastic", max_new_tokens=32)
            out, trace = spd_generate(target, draft, prompt, cfg, RngState(trial))
            if vocab.eos in out:
                assert out.index(vocab.eos) == len(out) - 1
            for b in trace.blocks:
                if vocab.eos in b.emitted:
                    assert b.emitted.index(vocab.eos) == len(b.emitted) - 1

    def test_identity_pair_overshoot_truncated(self):
        """draft==target, gamma=3, budget 10: blocks emit 4, 4, then 2."""
        vocab = Vocab(size=4, eos=3)
        m = train_ngram([[0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]], order=3, alpha=0.5, vocab=vocab)
        target = MultimodalTargetLm(m)
        draft = TextOnlyDraftLm(m)
        prompt = MultimodalPrompt((), (0, 1))
        cfg = SpdConfig(gamma=3, mode="greedy", max_new_tokens=10, stop_on_eos=False)
        out, trace = spd_generate(target, draft, prompt, cfg, RngState(0))
        assert len(out) == 10
        assert [len(b.emitted) for b in trace.blocks] == [4, 4, 2]
        assert trace.total_emitted == 10
        # Only ``emitted`` of the last record is cut; the draft it verified stays whole.
        assert trace.blocks[-1] == BlockRecord((1, 2, 0), 3, (1, 2), "bonus")

    def test_greedy_eos_cut_keeps_uncut_record(self):
        """Target 1, 3(eos), 1; draft 1, 3, 0: the block accepts 2 and
        corrects to 1, then the EOS cut drops the correction but keeps the
        record's draft, accepted count and correction kind."""
        vocab = Vocab(size=4, eos=3)
        target = MultimodalTargetLm(train_ngram([[0, 1, 3, 1]], order=2, alpha=0.1, vocab=vocab))
        draft = TextOnlyDraftLm(train_ngram([[0, 1, 3, 0]], order=2, alpha=0.1, vocab=vocab))
        prompt = MultimodalPrompt((), (0,))
        out, trace = spd_generate(target, draft, prompt, SpdConfig(gamma=3, mode="greedy"), None)
        assert out == [1, 3] == autoregressive_generate(target, prompt, 64)
        assert trace.blocks == [BlockRecord((1, 3, 0), 2, (1, 3), "greedy-correction")]

    def test_greedy_runs_never_read_the_rng(self):
        """Greedy SPD runs given no rng return the tokens and trace they
        return with a real state."""
        rng = np.random.default_rng(76)
        for trial in range(20):
            vocab = random_vocab(rng)
            target, draft = make_pair(rng, vocab)
            prompt = random_prompt(rng, vocab)
            cfg = SpdConfig(gamma=int(rng.integers(1, 5)), mode="greedy", max_new_tokens=32)
            assert spd_generate(target, draft, prompt, cfg, None) == spd_generate(
                target, draft, prompt, cfg, RngState(trial)
            )

    def test_stochastic_requires_rng(self):
        rng = np.random.default_rng(77)
        vocab = random_vocab(rng)
        target, draft = make_pair(rng, vocab)
        with pytest.raises(ValueError, match="stochastic mode needs an rng"):
            spd_generate(target, draft, random_prompt(rng, vocab), SpdConfig(gamma=2), None)

    def test_image_perturbation_never_moves_draft_block(self):
        """Changing image_ctx shifts target dists but not draft proposals."""
        rng = np.random.default_rng(70)
        for trial in range(50):
            vocab = random_vocab(rng, min_size=4)
            target, draft = make_pair(rng, vocab, target_order=3)
            text = (int(rng.integers(0, vocab.size)),)
            p_a = MultimodalPrompt(tuple(rng.integers(0, vocab.size, 3).tolist()), text)
            p_b = MultimodalPrompt(tuple(rng.integers(0, vocab.size, 3).tolist()), text)
            gen = tuple(rng.integers(0, vocab.size, int(rng.integers(0, 3))).tolist())
            tokens_a, dists_a = draft_block(draft, p_a, gen, 3, RngState(trial, (0,)))
            tokens_b, dists_b = draft_block(draft, p_b, gen, 3, RngState(trial, (0,)))
            assert tokens_a == tokens_b
            for da, db in zip(dists_a, dists_b):
                assert np.array_equal(da.probs, db.probs)


class TestAutoregressive:
    def test_one_next_dist_then_one_lookup_per_token(self):
        """The baseline is one walk: one next_dist call for the first token,
        then one row lookup for each further token, greedy or stochastic, with
        or without the EOS stop."""
        rng = np.random.default_rng(71)
        for trial in range(8):
            vocab = random_vocab(rng)
            target, _ = make_pair(rng, vocab, views=(SpyTarget, SpyDraft))
            lookups = record_lookups(target)
            prompt = random_prompt(rng, vocab)
            stream, stop_on_eos = (None, RngState(trial))[trial % 2], trial % 4 < 2
            out = autoregressive_generate(target, prompt, 16, stream, stop_on_eos=stop_on_eos)
            assert len(out) == 16 or (stop_on_eos and out[-1] == vocab.eos)
            assert target.queries == Counter(next_dist=1)
            walk_lookups = len(lookups) - 1  # the first lookup is next_dist's own
            assert walk_lookups == len(out) - 1

    def test_eos_stop_holds_no_draws_for_the_length_limit(self):
        """A stochastic baseline that stops at EOS after a few dozen tokens
        holds about a refill of draws, not ``max_new_tokens`` of them: at a
        limit of 65,536, taking them all up front peaked at ~3.7 MB."""
        seqs, vocab = bundled_corpus()
        target = MultimodalTargetLm(train_ngram(seqs, 3, 0.1, vocab))
        prompt = MultimodalPrompt((1, 2, 3), tuple(CharTokenizer().encode("the ")))
        want = autoregressive_generate(target, prompt, 256, RngState(0))
        tracemalloc.start()
        try:
            out = autoregressive_generate(target, prompt, 65536, RngState(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == want and len(out) < 256 and out[-1] == vocab.eos
        assert peak < 1 << 16

    def test_no_stream_is_the_greedy_baseline(self):
        """A baseline with no stream is the target's argmax walk, and one with
        a stream is its sampled walk with the same draws, with or without the
        EOS stop; the two differ on some instances."""
        rng = np.random.default_rng(72)
        differs = 0
        for trial in range(20):
            vocab = random_vocab(rng)
            target, _ = make_pair(rng, vocab)
            prompt = random_prompt(rng, vocab)
            stop_on_eos = trial % 2 == 0
            stop = vocab.eos if stop_on_eos else None
            greedy = autoregressive_generate(target, prompt, 16, stop_on_eos=stop_on_eos)
            assert greedy == loop_walk(target, prompt, [], 16, None, stop)[0]
            sampled = autoregressive_generate(target, prompt, 16, RngState(trial), stop_on_eos=stop_on_eos)
            assert sampled == loop_walk(target, prompt, [], 16, RngState(trial), stop)[0]
            differs += sampled != greedy
        assert differs


class TestWindowSizedQueries:
    @pytest.mark.parametrize("target_order,draft_order", [(3, 2), (4, 4), (2, 1)])
    def test_models_never_see_more_than_their_window(self, target_order, draft_order):
        """Over long prompts and 128-token outputs, every row lookup keys the
        base model's row table with the code of at most ``order - 1`` ids,
        below ``(V + 1)**(order - 1)``, however long the prefix has grown, and
        full windows, at or above ``(V + 1)**(order - 2)``, are looked up."""
        rng = np.random.default_rng(73)
        vocab = random_vocab(rng, min_size=8)
        target_base = random_model(rng, vocab, order=target_order)
        draft_base = random_model(rng, vocab, order=draft_order)
        for base in (target_base, draft_base):
            base.rows = KeyRecorder(base.rows)
        target, draft = MultimodalTargetLm(target_base), TextOnlyDraftLm(draft_base)
        prompt = MultimodalPrompt(
            image_ctx=rng.integers(0, vocab.size, 64).tolist(), text=rng.integers(0, vocab.size, 256).tolist()
        )
        for mode in ("greedy", "stochastic"):
            cfg = SpdConfig(gamma=3, mode=mode, max_new_tokens=128, stop_on_eos=False)
            out, _ = spd_generate(target, draft, prompt, cfg, RngState(5))
            assert len(out) == 128
            stream = None if mode == "greedy" else RngState(6)
            ar = autoregressive_generate(target, prompt, 128, stream, stop_on_eos=False)
            assert len(ar) == 128
        for base in (target_base, draft_base):
            mod = (vocab.size + 1) ** (base.order - 1)
            assert base.rows.asked and all(0 <= key < mod for key in base.rows.asked)
            assert any(key >= mod // (vocab.size + 1) for key in base.rows.asked)


class TestResidualReuse:
    def test_one_residual_build_per_rejected_pair(self, monkeypatch):
        """Over a stochastic run with frequent rejections, the first
        rejection builds the pair's residual table.  After that no
        (target row, draft row) pair is normalized twice, and a pair the
        table holds is never normalized."""
        tabled, normalized, rejected, pair = set(), Counter(), [], []

        def spy_table(target, draft):
            residual_table(target, draft)
            tabled.update((id(q), id(p)) for q in target.rows.values() for p in q.residuals or ())

        def spy_normalize(raw):
            normalized[pair[-1]] += 1
            return normalize(raw)

        def spy_residual(q, p):
            rejected.append((q, p))  # holding the rows keeps their ids unique
            pair.append((id(q), id(p)))
            return residual_dist(q, p)

        monkeypatch.setattr(engine, "residual_table", spy_table)
        monkeypatch.setattr(engine, "normalize", spy_normalize)
        monkeypatch.setattr(engine, "residual_dist", spy_residual)
        rng = np.random.default_rng(74)
        vocab = Vocab(size=6, eos=0)
        target, draft = make_pair(rng, vocab, target_order=2, draft_order=2)
        prompt = random_prompt(rng, vocab)
        cfg = SpdConfig(gamma=3, mode="stochastic", max_new_tokens=128, stop_on_eos=False)
        out, trace = spd_generate(target, draft, prompt, cfg, RngState(8))
        assert len(out) == 128
        assert len(rejected) == sum(b.correction_kind == "residual-resample" for b in trace.blocks)
        assert tabled and len(set(pair)) < len(rejected)
        assert max(normalized.values(), default=1) == 1
        assert not tabled & set(normalized)


class TestResidualTable:
    @staticmethod
    def assert_table_is_lazy_rows(target, draft):
        """Each target row holds exactly the residual against the draft row
        of its context's suffix, bit-equal to the lazy build in probs, cdf
        and argmax, or none where that residual has no mass."""
        need, size = draft.order - 1, target.vocab.size
        for ctx in target.contexts:
            q = target.rows[code(ctx, size)]
            p = draft.rows.get(code(ctx[len(ctx) - need :], size), draft._uniform)
            try:
                want = normalize(np.maximum(q.probs - p.probs, 0.0))
            except AllZeroError:
                assert q.residuals is None
                continue
            assert list(q.residuals) == [p]
            got = q.residuals[p]
            assert got.probs.tobytes() == want.probs.tobytes()
            assert bytes(got.cdf) == bytes(want.cdf) and argmax(got) == argmax(want)

    @pytest.mark.parametrize("orders", [(t, d) for t in (2, 3, 4) for d in range(1, t + 1)], ids=str)
    def test_rows_equal_lazy_rows_on_bundled_corpus(self, orders):
        seqs, vocab = bundled_corpus()
        target, draft = (train_ngram(seqs, order, 0.1, vocab) for order in orders)
        residual_table(target, draft)
        assert target.residual_draft is draft
        self.assert_table_is_lazy_rows(target, draft)

    @pytest.mark.parametrize("orders", [(t, d) for t in (2, 3, 4) for d in range(2, t + 1)], ids=str)
    def test_rows_equal_lazy_rows_on_random_models(self, orders):
        rng = np.random.default_rng(sum(orders))
        for _ in range(5):
            target, draft = make_pair(rng, random_vocab(rng), *orders)
            residual_table(target.base, draft.base)
            self.assert_table_is_lazy_rows(target.base, draft.base)

    def test_built_residual_keeps_its_identity(self):
        seqs, vocab = bundled_corpus()
        target, draft = train_ngram(seqs, 3, 0.1, vocab), train_ngram(seqs, 2, 0.1, vocab)
        ctx = target.contexts[5]
        q, p = target.rows[code(ctx, vocab.size)], draft.rows[code(ctx[1:], vocab.size)]
        built = residual_dist(q, p)  # a pair with residual mass
        residual_table(target, draft)
        assert q.residuals[p] is built and residual_dist(q, p) is built


class TestBlockTrace:
    def test_counts_derive_from_blocks(self):
        trace = BlockTrace(
            [
                BlockRecord((1, 2, 3), 3, (1, 2, 3, 4), "bonus"),
                BlockRecord((5, 6, 7), 1, (5, 0), "residual-resample"),
                BlockRecord((8,), 0, (2,), "greedy-correction"),
            ]
        )
        assert (trace.target_calls, trace.draft_calls, trace.total_emitted) == (3, 7, 7)
        trace.blocks.pop()
        assert (trace.target_calls, trace.draft_calls, trace.total_emitted) == (2, 6, 6)
        assert (BlockTrace().target_calls, BlockTrace().draft_calls) == (0, 0)
