"""Shared builders for test instances (models, prompts, dists, traces)."""

import csv
import io

import numpy as np

from mmspec.core import MultimodalPrompt, ProbDist, RngState, Vocab, argmax, sample
from mmspec.engine import (
    STREAM_DRAFT,
    STREAM_RESAMPLE,
    STREAM_VERIFY,
    BlockRecord,
    BlockTrace,
    draft_block,
    verify_greedy,
    verify_stochastic,
)
from mmspec.harness import CSV_COLUMNS, CharTokenizer, demo_corpus_path
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


def code(window, size):
    """The integer code of a window of ids over a vocabulary of ``size``:
    digit ``id + 1`` in base ``size + 1`` per id, the last id lowest, so BOS
    is digit 0.  The reference ``NgramLm.rows``' keys are checked against."""
    return sum((i + 1) * (size + 1) ** k for k, i in enumerate(reversed(window)))


def context(model, prefix):
    """The BOS-padded window of the last ``order - 1`` ids of ``prefix``."""
    need = model.order - 1
    tail = tuple(prefix)[max(len(prefix) - need, 0) :] if need else ()
    return (BOS,) * (need - len(tail)) + tail


def flat_code(view, prompt, generated=()):
    """The :func:`code` of the window a prompt-conditioned ``view`` reads
    after ``generated``: the tail of image context, text and output for the
    target, of text and output for the draft."""
    head = prompt.image_ctx + prompt.text if view.sees_image else prompt.text
    return code(context(view.base, head + tuple(generated)), view.base.vocab.size)


def flat_next_dist(model, prefix):
    """``model``'s distribution over the next token after the flat
    ``prefix``, keyed by the :func:`code` of :func:`context`'s BOS-padded
    window; the reference the prompt-conditioned views are checked against."""
    return model.rows.get(code(context(model, prefix), model.vocab.size), model._uniform)


def flat_score_block(model, prefix, block):
    """``model``'s distributions at every position along ``block`` after the
    flat ``prefix``, plus one more: entry ``j`` conditions on
    ``prefix + block[:j]``."""
    window = context(model, prefix) + tuple(block)
    need, size = model.order - 1, model.vocab.size
    return [model.rows.get(code(window[j : j + need], size), model._uniform) for j in range(len(block) + 1)]


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


def keyless_spd_generate(target, draft, prompt, cfg, rng):
    """The reference ``spd_generate`` is checked against: the loop before it
    carried window codes, in which every block keys its draft walk and its
    target scoring from ``(prompt, out)``, so each block's first draft row is
    a ``next_dist`` call.  Residuals are built lazily, which gives the same
    rows as ``residual_table``."""
    greedy = cfg.mode == "greedy"
    streams = [None] * 3 if greedy else [rng.substream(s) for s in (STREAM_DRAFT, STREAM_VERIFY, STREAM_RESAMPLE)]
    eos, out, blocks = target.vocab.eos, [], []
    while True:
        tokens, dists = draft_block(draft, prompt, out, cfg.gamma, streams[0], cfg.mode)
        target_dists = target.score_block(prompt, out, tokens)
        if greedy:
            record = verify_greedy(target_dists, tokens)
        else:
            record = verify_stochastic(target_dists, tokens, dists, *streams[1:])
        emitted = record.emitted
        if cfg.stop_on_eos and eos in emitted:
            emitted = emitted[: emitted.index(eos) + 1]
        emitted = emitted[: cfg.max_new_tokens - len(out)]
        out += emitted
        blocks.append(record._replace(emitted=emitted))
        if len(out) == cfg.max_new_tokens or (cfg.stop_on_eos and eos in emitted):
            return out, BlockTrace(blocks)


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


def csv_writer_report(runs):
    """``report.csv``'s text as ``csv.writer`` renders it, a float cell as ``.12g`` and any other by ``str``:
    the reference the one-format row renderer is checked against."""
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([f"{v:.12g}" if isinstance(v, float) else str(v) for v in map(r.__getattribute__, CSV_COLUMNS)]
                     for r in runs)
    return rows.getvalue()


def accept_law(target, draft, window, gamma):
    """``A[k]`` for k = 0..gamma: the exact probability that a block drafted
    after the target window ``window`` has its first k tokens accepted.

    ``A_0 = 1`` and ``A_k(s) = sum_x m(s, x) A_{k-1}(s + x)`` over target
    windows ``s``, where ``s + x`` drops the window's first id and appends x,
    and the accept mass ``m(s, x) = min(p(x | s_draft), q(x | s))`` is
    Leviathan et al.'s beta split by token; ``s_draft`` is the last
    ``draft.order - 1`` ids of ``s``.  Rows come from ``NgramLm.rows`` by
    :func:`row_of`, not through the views, and windows are their
    :func:`code`, integers in base V + 1 with BOS as digit 0.  An unseen target
    window has the uniform row, so its accept mass and its successors
    depend only on its last ``w - 1`` ids: such windows share one state per
    ``w - 1`` ids.  Needs ``1 <= draft.order < target.order``.
    """
    size, w, dw = target.vocab.size, target.order - 1, draft.order - 1
    base = size + 1
    tail = base ** (w - 1)
    seen = np.array(sorted(code(ctx, size) for ctx in target.contexts))
    states = np.concatenate([seen, np.arange(tail)])  # seen windows, then one state per unseen window's tail
    successor = (states % tail)[:, None] * base + np.arange(1, size + 1)
    at = np.searchsorted(seen, successor).clip(max=len(seen) - 1)
    successor = np.where(seen[at] == successor, at, len(seen) + successor % tail)
    q_rows = {code(ctx, size): row_of(target, ctx) for ctx in target.contexts}
    q = np.vstack([[q_rows[c] for c in seen.tolist()], np.full((tail, size), 1.0 / size)])
    p = np.full((base**dw, size), 1.0 / size)
    for ctx in draft.contexts:
        p[code(ctx, size)] = row_of(draft, ctx)
    mass = np.minimum(p[states % base**dw], q)
    start = code(window, size)
    start = int(np.searchsorted(seen, start)) if start in q_rows else len(seen) + start % tail
    law = [np.ones(len(states))]
    for _ in range(gamma):
        law.append((mass * law[-1][successor]).sum(axis=1))
    return np.array([a[start] for a in law])


def row_of(model, window):
    """``model``'s row after ``window``, read from ``NgramLm.rows`` by its
    :func:`code`: the uniform row for a window never seen in training."""
    row = model.rows.get(code(window, model.vocab.size))
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
