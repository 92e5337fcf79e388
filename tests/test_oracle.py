"""Tests for the exact enumeration oracles (and engine agreement with them)."""

import numpy as np
import pytest

from helpers import random_dist, random_model, random_prompt

from mmspec.core import MultimodalPrompt, ProbDist, RngState, Vocab
from mmspec.engine import SpdConfig, spd_generate
from mmspec.models import MultimodalTargetLm, TextOnlyDraftLm, train_ngram
from mmspec.oracle import (
    TooLargeError,
    enumerate_autoregressive,
    enumerate_spd,
    induced_step_dist,
)


def tiny_pair(rng, vocab_size=3, target_order=2, draft_order=1):
    """Small random target/draft views plus a prompt over the same vocab."""
    vocab = Vocab(size=vocab_size, eos=int(rng.integers(0, vocab_size)))
    target = MultimodalTargetLm(random_model(rng, vocab, order=target_order))
    draft = TextOnlyDraftLm(random_model(rng, vocab, order=draft_order))
    prompt = random_prompt(rng, vocab, max_image=2, max_text=3)
    return target, draft, prompt, vocab


class FixedRowView:
    """View stand-in whose every query answers the same row."""

    def __init__(self, row, vocab):
        self.row, self.vocab = row, vocab

    def next_dist(self, prompt, generated=()):
        return self.row

    def score_block(self, prompt, generated, block):
        return [self.row] * (len(block) + 1)


def seq_dist_gap(a, b):
    """L-infinity distance between two sparse sequence distributions."""
    keys = set(a) | set(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys) if keys else 0.0


class TestInducedStepDist:
    def test_frozen_example(self):
        """p=[.5,.5], q=[.9,.1] induces exactly [0.9, 0.1]."""
        got = induced_step_dist(ProbDist([0.5, 0.5]), ProbDist([0.9, 0.1]))
        np.testing.assert_allclose(got.probs, [0.9, 0.1], atol=1e-15)

    def test_equals_q_on_random_pairs(self):
        """The accept+residual decomposition reproduces q to 1e-12."""
        rng = np.random.default_rng(80)
        for _ in range(300):
            size = int(rng.integers(2, 17))
            p = random_dist(rng, size, allow_zeros=True)
            q = random_dist(rng, size, allow_zeros=True)
            got = induced_step_dist(p, q)
            assert np.max(np.abs(got.probs - q.probs)) < 1e-12

    def test_identical_dists(self):
        rng = np.random.default_rng(81)
        d = random_dist(rng, 5)
        got = induced_step_dist(d, d)
        assert np.max(np.abs(got.probs - d.probs)) < 1e-15

    def test_no_residual_mass_resamples_from_q(self):
        """q <= p entrywise but q_0 < p_0: token 0's rejection mass r is
        resampled from q, in the step marginal and in the enumeration, so
        both give q + r * q instead of dropping r."""
        vocab = Vocab(size=3, eos=2)
        p, q = ProbDist([0.5 + 1e-12, 0.25, 0.25]), ProbDist([0.5, 0.25, 0.25])
        target, draft = FixedRowView(q, vocab), FixedRowView(p, vocab)
        spd = enumerate_spd(target, draft, MultimodalPrompt((), (0,)), 1, 1, stop_on_eos=False)
        step = induced_step_dist(p, q).probs
        want = q.probs * (1.0 + (p.probs[0] - q.probs[0]))
        np.testing.assert_allclose(step, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose([spd[(tok,)] for tok in range(vocab.size)], want, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(82)
        with pytest.raises(ValueError):
            induced_step_dist(random_dist(rng, 3), random_dist(rng, 4))


class TestEnumerateAutoregressive:
    def test_uniform_coin_with_eos(self):
        """Uniform 2-token model, eos=0, L=2: masses 0.5 / 0.25 / 0.25."""
        vocab = Vocab(size=2, eos=0)
        # order-2 model queried at unseen contexts -> uniform everywhere
        m = train_ngram([[1, 1]], order=3, alpha=1.0, vocab=vocab)
        target = MultimodalTargetLm(m)
        prompt = MultimodalPrompt((), (0, 0))
        dist = enumerate_autoregressive(target, prompt, 2)
        assert dist[(0,)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(1, 0)] == pytest.approx(0.25, abs=1e-12)
        assert dist[(1, 1)] == pytest.approx(0.25, abs=1e-12)

    def test_without_eos_stop(self):
        vocab = Vocab(size=2, eos=0)
        m = train_ngram([[1, 1]], order=3, alpha=1.0, vocab=vocab)
        target = MultimodalTargetLm(m)
        dist = enumerate_autoregressive(target, MultimodalPrompt((), (0,)), 2, stop_on_eos=False)
        assert set(dist) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert all(v == pytest.approx(0.25, abs=1e-12) for v in dist.values())

    def test_total_mass_one(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            target, _, prompt, _ = tiny_pair(rng, vocab_size=int(rng.integers(2, 5)))
            dist = enumerate_autoregressive(target, prompt, 3)
            assert abs(sum(dist.values()) - 1.0) < 1e-10

    def test_too_large_guard(self):
        rng = np.random.default_rng(84)
        target, _, prompt, _ = tiny_pair(rng, vocab_size=17)
        with pytest.raises(TooLargeError):
            enumerate_autoregressive(target, prompt, 6)


class TestEnumerateSpd:
    def test_matches_autoregressive(self):
        """Speculative and autoregressive enumerations agree to 1e-10."""
        rng = np.random.default_rng(85)
        for trial in range(8):
            target, draft, prompt, _ = tiny_pair(rng, vocab_size=int(rng.integers(2, 5)))
            gamma = int(rng.integers(1, 4))
            spd = enumerate_spd(target, draft, prompt, gamma, 3)
            ar = enumerate_autoregressive(target, prompt, 3)
            assert seq_dist_gap(spd, ar) < 1e-10

    def test_total_mass_one(self):
        rng = np.random.default_rng(86)
        for _ in range(8):
            target, draft, prompt, _ = tiny_pair(rng, vocab_size=3)
            dist = enumerate_spd(target, draft, prompt, 2, 3)
            assert abs(sum(dist.values()) - 1.0) < 1e-10

    def test_first_token_matches_induced_marginal(self):
        """gamma=1, L=1: the enumerated first token equals the analytic step."""
        rng = np.random.default_rng(87)
        for _ in range(10):
            target, draft, prompt, vocab = tiny_pair(rng, vocab_size=4)
            spd = enumerate_spd(target, draft, prompt, 1, 1)
            p = draft.next_dist(prompt)
            q = target.next_dist(prompt)
            induced = induced_step_dist(p, q)
            for tok in range(vocab.size):
                assert abs(spd.get((tok,), 0.0) - float(induced.probs[tok])) < 1e-12

    def test_too_large_guard(self):
        rng = np.random.default_rng(88)
        target, draft, prompt, _ = tiny_pair(rng, vocab_size=10)
        with pytest.raises(TooLargeError):
            enumerate_spd(target, draft, prompt, 3, 4)

    def test_respects_length_cap_and_eos(self):
        rng = np.random.default_rng(89)
        target, draft, prompt, vocab = tiny_pair(rng, vocab_size=3)
        dist = enumerate_spd(target, draft, prompt, 2, 3)
        for seq in dist:
            assert 1 <= len(seq) <= 3
            if vocab.eos in seq:
                assert seq.index(vocab.eos) == len(seq) - 1
            else:
                assert len(seq) == 3


class TestEngineAgreesWithOracle:
    @pytest.mark.parametrize("gamma, length", [(2, 2), (1, 2)])
    def test_spd_generate_follows_enumerated_distribution(self, gamma, length):
        """Empirical spd_generate outputs track the exact enumeration.  At
        gamma 2 every bonus token is cut by the length limit; at gamma 1 a
        fully accepted block emits its bonus as the second token."""
        rng = np.random.default_rng(90)
        target, draft, prompt, _ = tiny_pair(rng, vocab_size=3, target_order=2, draft_order=1)
        exact = enumerate_spd(target, draft, prompt, gamma, length)
        cfg = SpdConfig(gamma=gamma, mode="stochastic", max_new_tokens=length)
        n = 8000
        counts = {}
        for seed in range(n):
            out, _ = spd_generate(target, draft, prompt, cfg, RngState(seed, (9,)))
            key = tuple(out)
            counts[key] = counts.get(key, 0) + 1
        empirical = {k: v / n for k, v in counts.items()}
        assert set(empirical) <= set(exact)
        assert seq_dist_gap(empirical, exact) < 0.025
