"""The engine's stochastic output law at the full vocabulary.

Runs ``spd_generate`` over many seeds on one loaded pair of bundled-corpus
models and checks the outcome counts against their exact law with a
Pearson chi-squared test: the number of drafts the first block accepts at
gamma 1-7 (:func:`helpers.accept_law`), at gamma 1 the first two tokens
together with that block's outcome (:func:`helpers.first_two_law`), and
every token that replaces a rejected draft (:func:`helpers.residual_law`).
All seeds share the models, so a residual row, once built, serves every
later seed: a residual built from or stored under the wrong draft row
shows here as a wrong law, not only in the output digests.
"""

import math

import numpy as np
import pytest

from helpers import accept_law, first_two_law, residual_law

from mmspec.core import MultimodalPrompt, RngState
from mmspec.engine import SpdConfig, spd_generate
from mmspec.harness import (
    CharTokenizer,
    demo_corpus_path,
    demo_dataset_path,
    load_dataset,
    render_template,
    train_models,
)
from mmspec.models import MultimodalTargetLm, TextOnlyDraftLm, load_ngram

PAIRS = ((3, 2), (4, 2))
GAMMAS = range(1, 8)
# Every chi-squared test of this module together raises a false alarm with probability at most FALSE_ALARM.
FALSE_ALARM = 1e-4
TESTS = len(PAIRS) * (len(GAMMAS) + 2)
RUNS_GAMMA_1 = 6000
RUNS_PER_GAMMA = 600
MIN_EXPECTED = 5.0
PIT_BINS = 20


def chi2_tail_bound(stat, dof):
    """An upper bound on P(X >= stat) for X chi-squared with ``dof`` degrees of
    freedom: the Chernoff bound ``(z e^(1 - z))^(dof / 2)``, z = stat / dof."""
    z = stat / dof
    return 1.0 if z <= 1.0 else math.exp(dof / 2 * (1.0 - z + math.log(z)))


def assert_follows(observed, probs, what):
    """Pearson's test of ``observed`` counts against the cell probabilities
    ``probs``; cells expected fewer than MIN_EXPECTED times are pooled."""
    observed, expected = np.ravel(observed), np.ravel(probs) * np.sum(observed)
    small = expected < MIN_EXPECTED
    assert observed[expected == 0.0].sum() == 0, f"{what}: an outcome of probability 0"
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    if expected[-1] < MIN_EXPECTED:  # too few pooled cells to test apart: fold them into the largest
        observed[np.argmax(expected[:-1])] += observed[-1]
        expected[np.argmax(expected[:-1])] += expected[-1]
        observed, expected = observed[:-1], expected[:-1]
    stat = float(((observed - expected) ** 2 / expected).sum())
    bound = chi2_tail_bound(stat, len(expected) - 1)
    assert bound >= FALSE_ALARM / TESTS, f"{what}: chi2 {stat:.1f} on {len(expected) - 1} dof, p <= {bound:.2e}"


@pytest.fixture(scope="module")
def chat_prompts():
    tokenizer = CharTokenizer()
    records = load_dataset(demo_dataset_path())
    return [MultimodalPrompt(r.image_ctx, render_template("chat", r, tokenizer)) for r in records]


@pytest.fixture(scope="module", params=PAIRS, ids=lambda pair: f"{pair[0]}-{pair[1]}")
def models(request, tmp_path_factory):
    target_order, draft_order = request.param
    paths = train_models(
        demo_corpus_path(), tmp_path_factory.mktemp("law"), target_order=target_order, draft_order=draft_order
    )
    return tuple(map(load_ngram, paths))


@pytest.fixture(scope="module")
def runs(models, chat_prompts):
    """For each gamma, ``(output, trace)`` of seeded runs of ``gamma + 1``
    tokens on one view pair over ``models``, cycling over the chat prompts."""
    target, draft = MultimodalTargetLm(models[0]), TextOnlyDraftLm(models[1])
    by_gamma = {}
    for gamma in GAMMAS:
        cfg = SpdConfig(gamma, "stochastic", gamma + 1, stop_on_eos=False)
        by_gamma[gamma] = [
            spd_generate(target, draft, chat_prompts[seed % len(chat_prompts)], cfg, RngState(seed, (gamma,)))
            for seed in range(RUNS_GAMMA_1 if gamma == 1 else RUNS_PER_GAMMA)
        ]
    return by_gamma


def test_chat_prompts_share_one_window(chat_prompts):
    """Every chat prompt ends in the same text, so every run starts from the
    same windows, and the image never enters one."""
    assert len({p.text[-3:] for p in chat_prompts}) == 1 and len(chat_prompts[0].text) > 3


def test_first_two_tokens_follow_the_law(models, chat_prompts, runs):
    target, draft = models
    first_law, second_law = first_two_law(target, draft, chat_prompts[0].text[-(target.order - 1) :])
    first, second = np.zeros_like(first_law), np.zeros_like(second_law)
    for (x, y), trace in runs[1]:
        first[trace.blocks[0].accepted, x] += 1
        second[trace.blocks[0].accepted, y] += 1
    assert_follows(first, first_law, "(accepted, first token)")
    assert_follows(second, second_law, "(accepted, second token)")


@pytest.mark.parametrize("gamma", GAMMAS[1:])
def test_accepted_drafts_follow_the_law(models, chat_prompts, runs, gamma):
    target, draft = models
    law = accept_law(target, draft, chat_prompts[0].text[-(target.order - 1) :], gamma)
    counts = np.bincount([trace.blocks[0].accepted for _, trace in runs[gamma]], minlength=gamma + 1)
    assert_follows(counts, law - np.append(law[1:], 0.0), f"accepted drafts at gamma {gamma}")


def test_corrections_follow_the_residual_law(models, chat_prompts, runs):
    """Each token that replaces a rejected draft, in every block of every
    run, is drawn from the residual law of its own windows.  Its randomized
    probability integral transform under that law is uniform on [0, 1)."""
    target, draft = models
    text, w = chat_prompts[0].text, target.order - 1
    transform = np.random.default_rng(0)
    pit = []
    for gamma in GAMMAS:
        for out, trace in runs[gamma]:
            start = 0
            for block in trace.blocks:
                k = block.accepted
                if block.correction_kind == "residual-resample" and len(block.emitted) > k:
                    law = residual_law(target, draft, (text + tuple(out[: start + k]))[-w:])
                    y = block.emitted[k]
                    assert law[y] > 0.0, f"correction {y} has probability 0 under its residual law"
                    pit.append(law[:y].sum() + transform.random() * law[y])
                start += len(block.emitted)
    counts = np.bincount((np.array(pit) * PIT_BINS).astype(int), minlength=PIT_BINS)
    assert_follows(counts, np.full(PIT_BINS, 1.0 / PIT_BINS), "correction transforms")
