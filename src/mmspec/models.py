"""N-gram language models and the prompt-conditioned views the engine uses.

Models here are deliberately tiny stand-ins for neural LMs: an order-n
model with additive smoothing supplies next-token distributions, and two
thin adapters give it the conditioning asymmetry that matters for
speculative decoding — the target sees image context plus text, the draft
sees text alone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from mmspec.core import MultimodalPrompt, ProbDist, TokenId, Vocab

__all__ = [
    "BOS",
    "EmptyCorpusError",
    "ModelFormatError",
    "MultimodalTargetLm",
    "NGRAM_FORMAT",
    "NgramLm",
    "PromptConditionedLm",
    "TextOnlyDraftLm",
    "load_ngram",
    "save_ngram",
    "train_ngram",
]

# Reserved begin-of-sequence marker used to left-pad short contexts.  It sits
# outside the token id space on purpose: it can appear in a context window but
# never in model output.
BOS: TokenId = -1

NGRAM_FORMAT = "ngram-v1"


class EmptyCorpusError(ValueError):
    """Raised when training is attempted on no usable sequences."""


class ModelFormatError(ValueError):
    """Raised when a model file does not parse as the expected format."""


# --------------------------------------------------------------------------- #
#  Flat-prefix model
# --------------------------------------------------------------------------- #


class NgramLm:
    """Order-n model with additive smoothing over a fixed vocabulary.

    The context window is the last ``order - 1`` prefix tokens, left-padded
    with :data:`BOS` when the prefix is shorter.  A context never seen in
    training yields the uniform distribution; otherwise
    ``(count + alpha) / (total + alpha * V)``.

    ``counts`` is one integer matrix, checked and frozen here, whose row
    ``i`` counts the tokens that followed ``contexts[i]`` in training: at
    least one row, ``vocab.size`` columns, no negative count.  :attr:`rows`
    holds the row of every such context.  It is built on first use, in one
    numpy pass over the matrix that is validated as a whole, so loading a
    model does no extra work.  A query is then one ``dict.get`` that falls
    back to the one shared uniform row; unseen contexts are never stored.
    """

    def __init__(
        self,
        vocab: Vocab,
        order: int,
        alpha: float,
        contexts: tuple[tuple[TokenId, ...], ...],
        counts: np.ndarray,
    ) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        alpha = float(alpha)
        if not (alpha > 0 and np.isfinite(alpha * vocab.size)):
            raise ValueError(f"smoothing alpha must be > 0 and alpha * vocab size finite, got {alpha}")
        # checked before the uniform row is allocated, so a huge vocab size fails first
        if not contexts:
            raise ValueError("no count rows; training always yields at least one")
        if counts.shape != (len(contexts), vocab.size) or counts.dtype.kind != "i":
            raise ValueError(f"count rows must be {vocab.size} integers each, got {counts.dtype} {counts.shape}")
        negative = np.flatnonzero(np.any(counts < 0, axis=1))
        if negative.size:
            raise ValueError(f"count row for context {list(contexts[negative[0]])} has a negative count")
        counts.setflags(write=False)
        self.vocab = vocab
        self.order = order
        self.alpha = alpha
        self.contexts = contexts
        self.counts = counts
        self._uniform = ProbDist(np.full(vocab.size, 1.0 / vocab.size))
        self._rows: dict[tuple[TokenId, ...], ProbDist] | None = None

    @property
    def rows(self) -> dict[tuple[TokenId, ...], ProbDist]:
        """Row of every context seen in training, keyed by its window; built on first use."""
        if self._rows is None:
            probs = self.counts + self.alpha
            probs /= (self.counts.sum(axis=1) + self.alpha * self.vocab.size)[:, None]
            # The uniform row's type is the class even while a tracer has replaced the name ProbDist.
            self._rows = dict(zip(self.contexts, type(self._uniform).table(probs)))
        return self._rows

    def context(self, prefix: Sequence[TokenId]) -> tuple[TokenId, ...]:
        """BOS-padded window of the last ``order - 1`` prefix tokens."""
        need = self.order - 1
        if need == 0:
            return ()
        window = tuple(prefix[-need:])
        if len(window) < need:
            window = (BOS,) * (need - len(window)) + window
        return window

    def next_dist(self, prefix: Sequence[TokenId]) -> ProbDist:
        """Distribution over the next token after ``prefix``."""
        return self.rows.get(self.context(prefix), self._uniform)

    def score_block(self, prefix: Sequence[TokenId], block: Sequence[TokenId]) -> list[ProbDist]:
        """Distributions at every position along ``block``, plus one more.

        Returns ``len(block) + 1`` distributions: entry ``j`` conditions on
        ``prefix + block[:j]``, so the last entry covers the position after
        the final block token.  It stands for a single target forward pass
        regardless of block length — that one-call accounting is what makes
        speculative verification cheaper than token-by-token scoring.
        """
        window = self.context(prefix) + tuple(block)
        need, get, uniform = self.order - 1, self.rows.get, self._uniform
        return [get(window[j : j + need], uniform) for j in range(len(block) + 1)]


def train_ngram(
    corpus: Sequence[Sequence[TokenId]],
    order: int,
    alpha: float,
    vocab: Vocab,
) -> NgramLm:
    """Count next-token occurrences over ``corpus`` and build an NgramLm.

    Each sequence is conceptually left-padded with :data:`BOS` so the
    position-0 prediction is defined.

    Raises:
        EmptyCorpusError: if the corpus has no non-empty sequences.
        ValueError: if any token id falls outside the vocabulary.
    """
    seqs = [tuple(s) for s in corpus if len(s) > 0]
    if not seqs:
        raise EmptyCorpusError("training corpus has no non-empty sequences")
    need, size = order - 1, vocab.size
    rows: dict[tuple[TokenId, ...], int] = {}  # context -> its row, in first-seen order
    cells = []  # row * size + token, once per occurrence
    for seq in seqs:
        for tok in seq:
            if not 0 <= tok < size:
                raise ValueError(f"token id {tok} outside vocab of size {size}")
        padded = (BOS,) * need + seq
        for i, tok in enumerate(seq):
            cells.append(rows.setdefault(padded[i : i + need], len(rows)) * size + tok)
    counts = np.bincount(cells, minlength=len(rows) * size).reshape(len(rows), size)
    return NgramLm(vocab, order, alpha, tuple(rows), counts)


# --------------------------------------------------------------------------- #
#  Serialization (format "ngram-v1")
# --------------------------------------------------------------------------- #


def save_ngram(model: NgramLm, path: str | Path) -> None:
    """Write a model as ``ngram-v1`` JSON; a given model always produces
    identical bytes (contexts are sorted)."""
    payload = {
        "format": NGRAM_FORMAT,
        "order": model.order,
        "alpha": model.alpha,
        "vocab_size": model.vocab.size,
        "eos": model.vocab.eos,
        "counts": [
            [list(ctx), row] for ctx, row in sorted(zip(model.contexts, model.counts.tolist()))
        ],
    }
    Path(path).write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def load_ngram(path: str | Path) -> NgramLm:
    """Read an ``ngram-v1`` model file back into an NgramLm.

    Raises:
        ModelFormatError: if the file is not valid ``ngram-v1``, including no
            count rows, a non-integer header value, context id or count, a
            context of the wrong length or with an id outside the
            vocabulary (other than :data:`BOS`), a repeated context, a
            count row of the wrong width or with a negative count, or an
            ``alpha`` that is not a JSON number, not finite and > 0, or
            whose ``alpha * vocab_size`` overflows.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != NGRAM_FORMAT:
        raise ModelFormatError(f"{path}: expected format {NGRAM_FORMAT!r}")
    try:
        size, eos, order = header = [payload[key] for key in ("vocab_size", "eos", "order")]
        if any(type(value) is not int for value in header):
            raise TypeError(f"vocab_size, eos and order must be integers, got {header}")
        vocab = Vocab(size=size, eos=eos)
        alpha = payload["alpha"]
        if type(alpha) not in (int, float):
            raise TypeError(f"alpha must be a number, got {alpha!r}")
        alpha = float(alpha)
        contexts = tuple(tuple(ctx) for ctx, _ in payload["counts"])
        table = np.array([row for _, row in payload["counts"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed {NGRAM_FORMAT} payload ({exc})") from exc
    seen: set[tuple[TokenId, ...]] = set()
    for ctx in contexts:
        if len(ctx) != order - 1 or any(type(t) is not int or not (t == BOS or 0 <= t < vocab.size) for t in ctx):
            raise ModelFormatError(f"{path}: context {list(ctx)} is not {order - 1} ids in [0, {vocab.size}) or BOS")
        if ctx in seen:
            raise ModelFormatError(f"{path}: context {list(ctx)} appears twice")
        seen.add(ctx)
    try:
        model = NgramLm(vocab, order, alpha, contexts, table)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    # numpy reads a JSON true/false in an integer row as 1/0, and only a file that holds such a literal can hide one;
    # the model has checked the shape, so every row is a list of vocab_size scalars here
    if "true" in text or "false" in text:
        for ctx, row in payload["counts"]:
            if any(type(c) is not int for c in row):
                raise ModelFormatError(f"{path}: count row for context {ctx} holds a non-integer count")
    return model


# --------------------------------------------------------------------------- #
#  Prompt-conditioned views
# --------------------------------------------------------------------------- #


class PromptConditionedLm:
    """Adapts a flat-prefix model to ``(prompt, generated)`` queries.

    A query keys ``base.rows``, which the view takes (building it if need be)
    when it is made, with the BOS-padded window of the flat prefix: one key
    and one ``dict.get`` that falls back to the shared uniform row.  Once the
    output fills the window the key is the output's tail.  Before that it
    is the prompt's BOS-padded tail topped up by the output, and that tail is
    computed once per prompt."""

    sees_image: bool  # whether the flat prefix starts with the image context

    def __init__(self, base: NgramLm) -> None:
        self.base = base
        self._need = base.order - 1
        self._get = base.rows.get
        self._uniform = base._uniform
        self._tail: tuple[MultimodalPrompt | None, tuple[TokenId, ...]] = (None, ())  # (prompt, its padded tail)

    @property
    def vocab(self) -> Vocab:
        return self.base.vocab

    def _short_key(self, prompt: MultimodalPrompt, generated: Sequence[TokenId]) -> tuple[TokenId, ...]:
        """The key for an output shorter than the window: the prompt's BOS-padded tail, topped up by the output."""
        tail, need = self._tail, self._need
        if tail[0] is not prompt:
            # each part cut to the window first, so a long prompt is never concatenated whole
            text = prompt.image_ctx[-need:] + prompt.text[-need:] if self.sees_image else prompt.text
            tail = self._tail = (prompt, self.base.context(text))
        return (tail[1] + tuple(generated))[-need:]

    def next_dist(self, prompt: MultimodalPrompt, generated: Sequence[TokenId] = ()) -> ProbDist:
        n, need = len(generated), self._need
        key = tuple(generated[n - need :]) if n >= need else self._short_key(prompt, generated)
        return self._get(key, self._uniform)

    def score_block(
        self, prompt: MultimodalPrompt, generated: Sequence[TokenId], block: Sequence[TokenId]
    ) -> list[ProbDist]:
        n, need = len(generated), self._need
        key = tuple(generated[n - need :]) if n >= need else self._short_key(prompt, generated)
        window, get, uniform = key + tuple(block), self._get, self._uniform
        dists = []  # a loop: on Python 3.11 a comprehension costs a frame per call
        for j in range(len(block) + 1):
            dists.append(get(window[j : j + need], uniform))
        return dists


class MultimodalTargetLm(PromptConditionedLm):
    """Image-aware view: conditions on image context, then text, then output."""

    sees_image = True


class TextOnlyDraftLm(PromptConditionedLm):
    """Text-only view: image context is invisible, by construction."""

    sees_image = False
