"""Shared builders for test instances (models, prompts, dists, traces)."""

import numpy as np

from mmspec.core import MultimodalPrompt, ProbDist, RngState, Vocab, argmax, sample
from mmspec.engine import BlockRecord, BlockTrace
from mmspec.harness import CharTokenizer, demo_corpus_path
from mmspec.models import BOS, NgramLm, train_ngram


def bundled_corpus():
    """The bundled corpus as ``train_models`` trains on it, and its vocabulary."""
    tok = CharTokenizer()
    lines = demo_corpus_path().read_text(encoding="utf-8").splitlines()
    return [tok.encode(line) + [tok.vocab.eos] for line in lines if line.strip()], tok.vocab


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


def flat_next_dist(model, prefix):
    """``model``'s distribution over the next token after the flat
    ``prefix``, keyed by :meth:`NgramLm.context`'s BOS-padded window; the
    reference the prompt-conditioned views are checked against."""
    return model.rows.get(model.context(prefix), model._uniform)


def flat_score_block(model, prefix, block):
    """``model``'s distributions at every position along ``block`` after the
    flat ``prefix``, plus one more: entry ``j`` conditions on
    ``prefix + block[:j]``."""
    window = model.context(prefix) + tuple(block)
    need = model.order - 1
    return [model.rows.get(window[j : j + need], model._uniform) for j in range(len(block) + 1)]


def loop_walk(view, prompt, generated, n, rng=None, stop=None):
    """The reference :meth:`PromptConditionedLm.walk` is checked against:
    one ``next_dist`` call per token on a copy of the output grown by it."""
    seq, tokens, rows = list(generated), [], []
    for _ in range(n):
        row = view.next_dist(prompt, seq)
        tok = argmax(row) if rng is None else sample(row, rng)
        seq.append(tok)
        tokens.append(tok)
        rows.append(row)
        if tok == stop:
            break
    return tokens, rows


def cumsum_sample(dist, u):
    """The inverse-CDF rule :func:`sample` is checked against: the first index
    whose true cumulative sum exceeds ``u`` (numpy's ``searchsorted`` on the
    right), or the last positive entry when ``u`` lies past a sum that
    rounded below 1."""
    idx = int(np.searchsorted(np.cumsum(dist.probs), u, side="right"))
    return idx if idx < len(dist) else int(np.flatnonzero(dist.probs > 0.0)[-1])


def clamped_cdf(probs):
    """``ProbDist.cdf`` as the reference builds it: the cumulative sums of
    ``probs``, with 1.0 from the last positive entry on."""
    cdf = np.cumsum(probs)
    cdf[np.flatnonzero(probs > 0.0)[-1] :] = 1.0
    return cdf.tolist()


def boundary_uniforms(dist):
    """The u in [0, 1) where an inverse-CDF draw from ``dist`` can change:
    0, every cumulative sum, the float on either side of each, and the
    largest float below 1."""
    us = {0.0, float(np.nextafter(1.0, 0.0))}
    for total in np.cumsum(dist.probs).tolist():
        us.update((total, float(np.nextafter(total, 0.0)), float(np.nextafter(total, 2.0))))
    return sorted(u for u in us if 0.0 <= u < 1.0)


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


def accept_law(target, draft, window, gamma):
    """``A[k]`` for k = 0..gamma: the exact probability that a block drafted
    after the target window ``window`` has its first k tokens accepted.

    ``A_0 = 1`` and ``A_k(s) = sum_x m(s, x) A_{k-1}(s + x)`` over target
    windows ``s``, where ``s + x`` drops the window's first id and appends x,
    and the accept mass ``m(s, x) = min(p(x | s_draft), q(x | s))`` is
    Leviathan et al.'s beta split by token; ``s_draft`` is the last
    ``draft.order - 1`` ids of ``s``.  Rows come from ``NgramLm.rows`` by
    this function's own window arithmetic, not through the views: a window
    is an integer in base V + 1, with BOS as digit 0.  An unseen target
    window has the uniform row, so its accept mass and its successors
    depend only on its last ``w - 1`` ids: such windows share one state per
    ``w - 1`` ids.  Needs ``1 <= draft.order < target.order``.
    """
    size, w, dw = target.vocab.size, target.order - 1, draft.order - 1
    base = size + 1
    tail = base ** (w - 1)

    def code(ids):
        return sum((i + 1) * base**k for k, i in enumerate(reversed(ids)))

    seen = np.array(sorted(map(code, target.contexts)))
    states = np.concatenate([seen, np.arange(tail)])  # seen windows, then one state per unseen window's tail
    successor = (states % tail)[:, None] * base + np.arange(1, size + 1)
    at = np.searchsorted(seen, successor).clip(max=len(seen) - 1)
    successor = np.where(seen[at] == successor, at, len(seen) + successor % tail)
    q_rows = {code(ctx): row.probs for ctx, row in target.rows.items()}
    q = np.vstack([[q_rows[c] for c in seen.tolist()], np.full((tail, size), 1.0 / size)])
    p = np.full((base**dw, size), 1.0 / size)
    for ctx, row in draft.rows.items():
        p[code(ctx)] = row.probs
    mass = np.minimum(p[states % base**dw], q)
    start = code(window)
    start = int(np.searchsorted(seen, start)) if start in q_rows else len(seen) + start % tail
    law = [np.ones(len(states))]
    for _ in range(gamma):
        law.append((mass * law[-1][successor]).sum(axis=1))
    return np.array([a[start] for a in law])


def row_of(model, window):
    """``model``'s row after ``window``, read from ``NgramLm.rows``: the
    uniform row for a window never seen in training."""
    row = model.rows.get(tuple(window))
    return np.full(model.vocab.size, 1.0 / model.vocab.size) if row is None else row.probs


def first_two_law(target, draft, window):
    """Exact joint law of a gamma-1 run's first block outcome and its first
    two tokens after the target window ``window``: ``(accepted, first)``
    and ``(accepted, second)`` as 2 x V matrices, row 1 for an accepted
    draft.  An accepted draft x has mass ``m(s, x)`` (see
    :func:`accept_law`) and is followed by the bonus token from
    ``q(. | s + x)``; a rejection emits x with the rest of ``q(x | s)``,
    and losslessness makes the next token follow ``q(. | s + x)`` too.
    """
    q = row_of(target, window)
    accepted = np.minimum(row_of(draft, window[len(window) - (draft.order - 1) :]), q)
    first = np.stack([q - accepted, accepted])
    after = np.array([row_of(target, window[1:] + (x,)) for x in range(target.vocab.size)])
    return first, first @ after


def residual_law(target, draft, window):
    """Exact law of the token that replaces a draft rejected after the
    target window ``window``: ``max(0, q - p)`` normalized, or ``q`` itself
    where that has no mass."""
    q = row_of(target, window)
    res = np.maximum(q - row_of(draft, window[len(window) - (draft.order - 1) :]), 0.0)
    return res / res.sum() if res.sum() > 0.0 else q
