"""Shared builders for test instances (models, prompts, dists, traces)."""

import numpy as np

from mmspec.core import MultimodalPrompt, ProbDist, RngState, Vocab
from mmspec.engine import BlockRecord, BlockTrace
from mmspec.models import BOS, NgramLm, train_ngram


def random_vocab(rng, min_size=2, max_size=16):
    size = int(rng.integers(min_size, max_size + 1))
    return Vocab(size=size, eos=int(rng.integers(0, size)))


def random_corpus(rng, vocab, n_seqs=20, min_len=3, max_len=12):
    return [
        rng.integers(0, vocab.size, int(rng.integers(min_len, max_len + 1))).tolist()
        for _ in range(n_seqs)
    ]


def random_model(rng, vocab, order=None, alpha=None, **corpus_kw):
    """Train a small n-gram model on a random corpus."""
    if order is None:
        order = int(rng.integers(1, 4))
    if alpha is None:
        alpha = float(rng.uniform(0.2, 1.5))
    return train_ngram(random_corpus(rng, vocab, **corpus_kw), order, alpha, vocab)


def loop_train_ngram(corpus, order, alpha, vocab):
    """The counting reference ``train_ngram`` is checked against: one Python
    step per token, contexts numbered as first seen."""
    seqs = [tuple(s) for s in corpus if len(s) > 0]
    need, size = order - 1, vocab.size
    rows = {}  # context -> its row, in first-seen order
    cells = []  # row * size + token, once per occurrence
    for seq in seqs:
        padded = (BOS,) * need + seq
        for i, tok in enumerate(seq):
            cells.append(rows.setdefault(padded[i : i + need], len(rows)) * size + tok)
    counts = np.bincount(cells, minlength=len(rows) * size).reshape(len(rows), size)
    return NgramLm(vocab, order, alpha, tuple(rows), counts)


def random_prompt(rng, vocab, max_image=4, max_text=6):
    img = tuple(rng.integers(0, vocab.size, int(rng.integers(0, max_image + 1))).tolist())
    txt = tuple(rng.integers(0, vocab.size, int(rng.integers(1, max_text + 1))).tolist())
    return MultimodalPrompt(image_ctx=img, text=txt)


def random_dist(rng, size, allow_zeros=False):
    """Random distribution; optionally with a few exact-zero entries."""
    w = rng.random(size) + 1e-3
    if allow_zeros and size > 2:
        n_zero = int(rng.integers(0, size - 1))
        w[rng.choice(size, size=n_zero, replace=False)] = 0.0
    return ProbDist(w / w.sum())


class FixedUniform:
    """Stand-in for RngState whose every draw is the same ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def assert_drawn(rng, k):
    """``rng`` has taken exactly ``k`` draws: its next draw is draw ``k`` of a
    fresh state at the same ``(seed, stream)``.  A draw is consumed."""
    fresh = RngState(rng.seed, rng.stream)
    for _ in range(k):
        fresh.uniform()
    assert rng.uniform() == fresh.uniform()


def trace_from_emission_counts(counts, gamma=1):
    """Skeletal trace from per-block emission counts; token values are
    placeholders, every block drafts ``gamma`` tokens."""
    return BlockTrace(
        [BlockRecord((0,) * gamma, min(n - 1, gamma), (0,) * n, "bonus") for n in counts]
    )
