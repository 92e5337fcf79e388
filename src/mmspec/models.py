"""N-gram language models and the prompt-conditioned views the engine uses.

Models here are deliberately tiny stand-ins for neural LMs: an order-n
model with additive smoothing supplies next-token distributions, and two
thin adapters give it the conditioning asymmetry that matters for
speculative decoding — the target sees image context plus text, the draft
sees text alone.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_right
from collections import Counter
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from mmspec.core import (
    MultimodalPrompt,
    ProbDist,
    RngState,
    TokenId,
    Vocab,
    _read_utf8,
    _write_atomic,
)

__all__ = [
    "BOS",
    "EmptyCorpusError",
    "MAX_COUNT_CELLS",
    "ModelFormatError",
    "MultimodalTargetLm",
    "NGRAM_FORMAT",
    "NgramLm",
    "PromptConditionedLm",
    "TextOnlyDraftLm",
    "TrainingError",
    "load_ngram",
    "save_ngram",
    "train_ngram",
]

# Reserved begin-of-sequence marker used to left-pad short contexts.  It sits
# outside the token id space on purpose: it can appear in a context window but
# never in model output.
BOS: TokenId = -1

NGRAM_FORMAT = "ngram-v2"

# The most cells (contexts x vocab size) a model file's count matrix may have.  load_ngram checks it before it
# allocates the matrix, so a file of a few bytes cannot ask for a huge one; 2**22 int64 cells are 32 MiB, about 80
# times the bundled corpus's order-4 model.  train_ngram holds its window and count matrices to it too, so it never
# writes a model load_ngram refuses.
MAX_COUNT_CELLS = 1 << 22


class TrainingError(ValueError):
    """Raised when train_ngram cannot build a model from its arguments."""


class EmptyCorpusError(TrainingError):
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

    ``contexts`` are ``order - 1`` integer ids each, each BOS or in ``[0, V)``, none twice, and
    ``counts`` is one integer matrix whose row ``i`` counts the tokens that followed
    ``contexts[i]`` in training: ``vocab.size`` columns, no negative count, and no row
    whose total passes ``2**63 - 1``; both are checked here, however the model is built.  :attr:`rows`
    holds the row of every such context, a view of that row of :attr:`probs`,
    keyed by the context's window code: the ids as digits ``id + 1`` in base
    ``V + 1``, the last id lowest, so BOS is digit 0 and a window's suffix is
    its code modulo a power of ``V + 1``, such as a lower-order model's
    ``code_mod``.  Codes are Python ints, which never overflow.  The table
    is built on first use, in one numpy pass over the matrix that is
    validated as a whole, so loading a model does no extra work.  A query
    is then one ``dict.get`` that falls back to the one shared uniform row;
    unseen contexts are never stored.  ``residual_draft`` is the draft whose
    ``engine.residual_table`` these rows hold, if any.
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
        if set(map(len, contexts)) != {order - 1}:  # a wrong width or a colliding id would share a row's code
            bad = next(ctx for ctx in contexts if len(ctx) != order - 1)
            raise ValueError(f"context {list(bad)} is not a list of {order - 1} integers")
        # a float id would code as a float, True as id 1 and a numpy integer in int64 arithmetic, which wraps,
        # so the ids' types are checked before their values
        if not set(map(type, chain.from_iterable(contexts))) <= {int}:
            bad = next(ctx for ctx in contexts if any(type(v) is not int for v in ctx))
            raise ValueError(f"context {list(bad)} holds a non-integer")
        ids = set(chain.from_iterable(contexts))
        if ids and not (BOS <= min(ids) and max(ids) < vocab.size):  # BOS is -1: an id is BOS or in [0, V)
            bad = next(ctx for ctx in contexts if not all(BOS <= tok < vocab.size for tok in ctx))
            raise ValueError(f"context {list(bad)} holds an id outside [0, {vocab.size}) other than BOS")
        if len(set(contexts)) < len(contexts):
            twice = next(ctx for ctx, k in Counter(contexts).items() if k > 1)
            raise ValueError(f"context {list(twice)} appears twice")
        if counts.shape != (len(contexts), vocab.size) or counts.dtype.kind != "i":
            raise ValueError(f"count rows must be {vocab.size} integers each, got {counts.dtype} {counts.shape}")
        if counts.min() < 0:
            negative = np.flatnonzero((counts < 0).any(axis=1))[0]
            raise ValueError(f"count row for context {list(contexts[negative])} has a negative count")
        if counts.max() > np.iinfo(np.int64).max // vocab.size:  # only then can a row total pass 2**63 - 1
            # each count split at bit 32, so neither part's row sum can wrap: the total passes 2**63 - 1
            # exactly when high + (low >> 32) reaches 2**31
            high = (counts >> 32).sum(axis=1) + ((counts & 0xFFFFFFFF).sum(axis=1) >> 32)
            over = np.flatnonzero(high >= 1 << 31)
            if over.size:
                raise ValueError(f"count row for context {list(contexts[over[0]])} sums past 2**63 - 1")
        counts.setflags(write=False)
        self.vocab = vocab
        self.order = order
        self.alpha = alpha
        self.contexts = contexts
        self.counts = counts
        self._uniform = ProbDist(np.full(vocab.size, 1.0 / vocab.size))
        self._rows: dict[int, ProbDist] | None = None
        self.code_mod = (vocab.size + 1) ** (order - 1)  # codes lie below it; a code modulo it drops the oldest id
        self.residual_draft: NgramLm | None = None

    @functools.cached_property
    def probs(self) -> np.ndarray:
        """The smoothed row of every context seen in training, in ``contexts`` order."""
        probs = self.counts + self.alpha
        probs /= (self.counts.sum(axis=1) + self.alpha * self.vocab.size)[:, None]
        return probs

    @property
    def rows(self) -> dict[int, ProbDist]:
        """Row of every context seen in training, keyed by its window code; built on first use."""
        if self._rows is None:
            # The uniform row's type is the class even while a tracer has replaced the name ProbDist.
            codes = (_code(ctx, self.vocab.size + 1) for ctx in self.contexts)
            self._rows = dict(zip(codes, type(self._uniform).table(self.probs)))
        return self._rows


def _code(window: Sequence[TokenId], base: int) -> int:
    """The code of ``window``: each id is digit ``id + 1`` in ``base``, the vocab size + 1, the last id lowest."""
    code = 0
    for tok in window:
        code = code * base + tok + 1
    return code


def train_ngram(
    corpus: Sequence[Sequence[TokenId]],
    order: int,
    alpha: float,
    vocab: Vocab,
) -> NgramLm:
    """Count next-token occurrences over ``corpus`` and build an NgramLm.

    Each sequence is conceptually left-padded with :data:`BOS` so the
    position-0 prediction is defined.  Counting is array code: every
    token's window is gathered from one padded array, one stable lexsort
    groups equal windows, contexts are numbered in first-seen order, and
    one ``np.bincount`` fills the count matrix.

    Raises:
        TrainingError: if ``order`` is below 1; a token id is not an
            integer (a float or a boolean) or falls outside the vocabulary;
            or the window matrix (tokens x ``order - 1``) or the count
            matrix (contexts x vocab size) would have more than
            :data:`MAX_COUNT_CELLS` cells.
        EmptyCorpusError: if the corpus has no non-empty sequences.
    """
    return _count_ngrams(*_corpus_ids(corpus, vocab, (order,)), order, alpha, vocab)


def _corpus_ids(corpus: Sequence[Sequence[TokenId]], vocab: Vocab, orders: tuple[int, ...]) -> tuple[np.ndarray, list]:
    """The ids of ``corpus``'s non-empty sequences as one int64 array, and their lengths, once ``orders`` and every
    id pass :func:`train_ngram`'s checks but its matrix bounds."""
    if min(orders) < 1:
        raise TrainingError(f"order must be >= 1, got {min(orders)}")
    seqs = [seq for seq in corpus if len(seq) > 0]
    if not seqs:
        raise EmptyCorpusError("training corpus has no non-empty sequences")
    lengths = [len(seq) for seq in seqs]
    # as int64, numpy would count True as 1 and truncate 1.5, so the ids' types are checked first
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, chain.from_iterable(seqs)))):
        bad = next(t for t in chain.from_iterable(seqs) if type(t) is bool or not isinstance(t, (int, np.integer)))
        raise TrainingError(f"token id {bad!r} is not an integer")
    try:
        tokens = np.fromiter(chain.from_iterable(seqs), np.int64, sum(lengths))
        inside = tokens.min() >= 0 and tokens.max() < vocab.size
    except OverflowError:  # an id past int64
        inside = False
    if not inside:
        bad = next(t for t in chain.from_iterable(seqs) if not 0 <= t < vocab.size)
        raise TrainingError(f"token id {bad} outside vocab of size {vocab.size}")
    return tokens, lengths


def _count_ngrams(tokens: np.ndarray, lengths: list[int], order: int, alpha: float, vocab: Vocab) -> NgramLm:
    """:func:`train_ngram`'s model of the ids and lengths :func:`_corpus_ids` returns for ``order``."""
    need, size, n = order - 1, vocab.size, len(tokens)
    if n * need > MAX_COUNT_CELLS:  # before the window matrix is allocated
        raise TrainingError(
            f"{n} tokens x {need} window ids is more than the {MAX_COUNT_CELLS} cells an order-{order} model may use"
        )
    if need:
        # Each sequence's tokens follow its own `need` pads in one array.  Ids are stored shifted up by one, so BOS
        # is 0, in the smallest unsigned type that holds V: for a vocabulary below 2**16 the lexsort is a radix sort.
        at = np.arange(n) + np.repeat(np.arange(1, len(lengths) + 1) * need, lengths)
        padded = np.zeros(n + need * len(lengths), dtype=np.min_scalar_type(size))
        padded[at] = tokens + 1
        columns = [padded[at - back] for back in range(need, 0, -1)]  # the window matrix, one column per position
        ranked = np.lexsort(columns)  # stable: equal windows stay in corpus order
        starts = np.zeros(n, dtype=bool)  # where each run of equal windows begins in sorted order
        starts[0] = True
        for column in columns:
            run = column[ranked]
            starts[1:] |= run[1:] != run[:-1]
        firsts = ranked[starts]  # each distinct window's first position in the corpus
        seen = np.argsort(firsts)  # the runs in first-seen order
        number = np.empty(len(firsts), dtype=np.int64)  # each run's context index
        number[seen] = np.arange(len(firsts))
        rows = np.empty(n, dtype=np.int64)
        rows[ranked] = number[np.cumsum(starts) - 1]
        contexts = tuple(zip(*((column[firsts[seen]].astype(np.int64) - 1).tolist() for column in columns)))
    else:  # order 1: the one empty context
        contexts, rows = ((),), np.zeros(n, dtype=np.int64)
    if len(contexts) * size > MAX_COUNT_CELLS:  # before the count matrix is allocated
        raise TrainingError(
            f"{len(contexts)} contexts x vocab size {size} is more than the {MAX_COUNT_CELLS} count cells "
            "a model may hold"
        )
    counts = np.bincount(rows * size + tokens, minlength=len(contexts) * size).reshape(len(contexts), size)
    return NgramLm(vocab, order, alpha, contexts, counts)


# --------------------------------------------------------------------------- #
#  Serialization (format "ngram-v2")
# --------------------------------------------------------------------------- #


def save_ngram(model: NgramLm, path: str | Path) -> None:
    """Write a model's :func:`_ngram_text` to ``path``; :func:`mmspec.core._write_atomic` keeps any previous file if
    the write fails."""
    _write_atomic({Path(path): _ngram_text(model)})


def _ngram_text(model: NgramLm) -> str:
    """A model as ``ngram-v2`` JSON: the header, the sorted contexts, and a
    ``[context_index, token, count]`` triple for each nonzero count, in
    sorted order, so a given model always produces identical bytes."""
    order = sorted(range(len(model.contexts)), key=model.contexts.__getitem__)
    counts = model.counts[order]
    rows, tokens = np.nonzero(counts)  # row-major, so the triples come out sorted
    payload = {
        "format": NGRAM_FORMAT,
        "order": model.order,
        "alpha": model.alpha,
        "vocab_size": model.vocab.size,
        "eos": model.vocab.eos,
        "contexts": [list(model.contexts[i]) for i in order],
        "counts": np.stack([rows, tokens, counts[rows, tokens]], axis=1).tolist(),
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


def load_ngram(path: str | Path) -> NgramLm:
    """Read an ``ngram-v2`` model file back into an NgramLm.

    Raises:
        ModelFormatError: naming the file, if it is not UTF-8 JSON tagged
            ``ngram-v2`` (an ``ngram-v1`` file among them), or its payload
            breaks a rule of README's *Model files*: the loader checks the
            header's and the triples' JSON types, the triples and
            :data:`MAX_COUNT_CELLS`; NgramLm the rest, the context ids' types
            among them.
    """
    try:
        text = _read_utf8(Path(path), name_line=False)
    except ValueError as exc:  # it names the file and the byte
        raise ModelFormatError(str(exc)) from None
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep to parse
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    tag = payload.get("format") if isinstance(payload, dict) else None
    if tag != NGRAM_FORMAT:
        raise ModelFormatError(
            f"{path}: expected format {NGRAM_FORMAT!r}, got {tag!r}; run `mmspec train` to write the model again"
        )
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: {NGRAM_FORMAT} payload has no field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _lists(payload: dict, what: str) -> list[list]:
    """``payload[what]``, if it is a JSON list of lists."""
    value = payload[what]
    if type(value) is not list:
        raise TypeError(f"{what} must be a list, got {value!r}")
    if not set(map(type, value)) <= {list}:
        raise TypeError(f"{what} entry {next(row for row in value if type(row) is not list)!r} is not a list")
    return value


def _model_from_payload(payload: dict) -> NgramLm:
    """The model an ``ngram-v2`` payload describes; raises ``KeyError``,
    ``TypeError``, ``ValueError`` or ``OverflowError`` on a malformed one."""
    size, eos, order = header = [payload[key] for key in ("vocab_size", "eos", "order")]
    if any(type(value) is not int for value in header):
        raise TypeError(f"vocab_size, eos and order must be integers, got {header}")
    vocab = Vocab(size=size, eos=eos)
    alpha = payload["alpha"]
    if type(alpha) not in (int, float):
        raise TypeError(f"alpha must be a number, got {alpha!r}")
    contexts = tuple(map(tuple, _lists(payload, "contexts")))  # NgramLm checks their ids, the ids' types among them
    triples = _lists(payload, "counts")
    # as int64, numpy would read a JSON true/false as 1/0 and truncate a float, so the values' types are checked first
    if not set(map(type, chain.from_iterable(triples))) <= {int}:
        bad = next(triple for triple in triples if any(type(v) is not int for v in triple))
        raise TypeError(f"counts entry {bad!r} holds a non-integer")
    if not set(map(len, triples)) <= {3}:
        raise ValueError(f"counts entry {next(t for t in triples if len(t) != 3)} is not a list of 3 integers")
    cells = np.array(triples, dtype=np.int64).reshape(len(triples), 3)
    n = len(contexts)
    if max(n, 1) * size > MAX_COUNT_CELLS:  # before the matrix, or the model's uniform row, is allocated
        raise ValueError(
            f"{n} contexts x vocab size {size} is more than the {MAX_COUNT_CELLS} count cells a model file may hold"
        )
    index, token, count = cells.T
    for bad, reason in (
        ((index < 0) | (index >= n), f"names a context index outside [0, {n})"),
        ((token < 0) | (token >= size), f"names a token outside [0, {size})"),
        (count < 1, "holds a count below 1"),
    ):
        if bad.any():
            raise ValueError(f"counts entry {cells[np.argmax(bad)].tolist()} {reason}")
    cell, seen = np.unique(index * size + token, return_counts=True)  # below MAX_COUNT_CELLS: no overflow
    if (seen > 1).any():
        ctx, tok = divmod(int(cell[np.argmax(seen > 1)]), size)
        raise ValueError(f"the cell of context {list(contexts[ctx])}, token {tok} appears twice")
    counts = np.zeros((n, size), dtype=np.int64)
    counts[index, token] = count
    return NgramLm(vocab, order, alpha, contexts, counts)


# --------------------------------------------------------------------------- #
#  Prompt-conditioned views
# --------------------------------------------------------------------------- #


class PromptConditionedLm:
    """Adapts a flat-prefix model to ``(prompt, generated)`` queries.

    A query keys ``base.rows``, which the view takes (building it if need be)
    when it is made, with the code of the flat prefix's window: one integer
    and one ``dict.get`` that falls back to the shared uniform row.  Every
    code starts from :meth:`start`, the code of the prompt's own window,
    computed once per prompt, and moves on by one token as
    ``(key * base + tok + 1) % base**need``, or by a run of tokens with
    :meth:`shift`, or two views' codes at once with :func:`_shift_pair`;
    BOS padding is digit 0, so it costs nothing.  A caller that carries a
    code hands it to :meth:`walk` and :meth:`score_block`, which then shift
    nothing in before the first row."""

    sees_image: bool  # whether the flat prefix starts with the image context

    def __init__(self, base: NgramLm) -> None:
        self.base = base
        self._need = base.order - 1
        self._base = base.vocab.size + 1
        self._mod = base.code_mod  # 1 for order 1, whose key stays 0
        self._last = slice(-self._need, None) if self._need else slice(0)  # the ids of a sequence a window keeps
        self._get = base.rows.get
        self._uniform = base._uniform
        self._start: tuple[MultimodalPrompt | None, int] = (None, 0)  # (prompt, its window's code)

    @property
    def vocab(self) -> Vocab:
        return self.base.vocab

    def start(self, prompt: MultimodalPrompt) -> int:
        """The code of ``prompt``'s own window, kept for the last prompt; an order-1 model reads no prompt id."""
        if self._start[0] is not prompt:
            last, base = self._last, self._base
            # each part cut to the window first, so a long prompt is never concatenated whole
            window = (prompt.image_ctx[last] + prompt.text[last] if self.sees_image else prompt.text)[last]
            for tok in window:  # an id outside the vocab would code as another window
                if not 0 <= tok < base - 1:
                    raise ValueError(f"prompt window {list(window)} holds an id outside the vocab of size {base - 1}")
            self._start = (prompt, _code(window, base))
        return self._start[1]

    def next_dist(self, prompt: MultimodalPrompt, generated: Sequence[TokenId] = ()) -> ProbDist:
        return self._get(self.shift(self.start(prompt), generated), self._uniform)

    def shift(self, key: int, tokens: Sequence[TokenId]) -> int:
        """``key`` moved on by ``tokens``: the code of the window that ends with them.  Only the last ``need`` ids
        stay in a window, so only they are shifted in; ``need`` shifts push every digit of ``key`` out."""
        base, mod = self._base, self._mod
        for tok in tokens[self._last]:
            key = (key * base + tok + 1) % mod
        return key

    def walk(
        self,
        prompt: MultimodalPrompt,
        generated: Sequence[TokenId],
        n: int,
        rng: RngState | None = None,
        stop: TokenId | None = None,
        key: int | None = None,
    ) -> tuple[list[TokenId], list[ProbDist]]:
        """Continue ``generated`` by up to ``n`` tokens, stopping right after ``stop``: returns the tokens and
        each one's row.  A token is its row's argmax when ``rng`` is None; otherwise the walk bisects each row's
        cdf with its own draw, as :func:`sample` does, read from ``iter(rng)`` one token at a time, so a draw the
        walk never reads stays the stream's next one.  ``key``, if given, is ``generated``'s window code, which
        the caller carries; without it the first row is :meth:`next_dist`'s, which perfbench patches, and its key
        is shifted from :meth:`start` again for the rest.  Each later key is the last one shifted by the token
        just drawn, and ``generated`` is never changed."""
        if n < 1:
            return [], []
        row = self.next_dist(prompt, generated) if key is None else self._get(key, self._uniform)
        draws = None if rng is None else iter(rng)
        tok = row._top if draws is None else bisect_right(row.cdf, next(draws))
        tokens, rows = [tok], [row]
        if n > 1 and tok != stop:
            if key is None:
                key = self.shift(self.start(prompt), generated)
            base, mod, get, uniform = self._base, self._mod, self._get, self._uniform
            for u in repeat(None, n - 1) if draws is None else islice(draws, n - 1):
                key = (key * base + tok + 1) % mod
                row = get(key, uniform)
                tok = row._top if u is None else bisect_right(row.cdf, u)
                tokens.append(tok)
                rows.append(row)
                if tok == stop:
                    break
        return tokens, rows

    def score_block(
        self,
        prompt: MultimodalPrompt,
        generated: Sequence[TokenId],
        block: Sequence[TokenId],
        key: int | None = None,
    ) -> list[ProbDist]:
        """The rows after ``generated`` and after each prefix of ``block``; ``key``, if given, is ``generated``'s
        window code, which the caller carries."""
        if key is None:
            key = self.shift(self.start(prompt), generated)
        base, mod, get, uniform = self._base, self._mod, self._get, self._uniform
        dists = [get(key, uniform)]  # a loop: on Python 3.11 a comprehension costs a frame per call
        for tok in block:
            key = (key * base + tok + 1) % mod
            dists.append(get(key, uniform))
        return dists


def _shift_pair(
    first: PromptConditionedLm, second: PromptConditionedLm, key1: int, key2: int, tokens: Sequence[TokenId]
) -> tuple[int, int]:
    """``(first.shift(key1, tokens), second.shift(key2, tokens))`` in one call, not two: how a speculative run moves
    both views' codes on by each block's emitted tokens."""
    base, mod = first._base, first._mod
    for tok in tokens[first._last]:
        key1 = (key1 * base + tok + 1) % mod
    base, mod = second._base, second._mod
    for tok in tokens[second._last]:
        key2 = (key2 * base + tok + 1) % mod
    return key1, key2


class MultimodalTargetLm(PromptConditionedLm):
    """Image-aware view: conditions on image context, then text, then output."""

    sees_image = True


class TextOnlyDraftLm(PromptConditionedLm):
    """Text-only view: image context is invisible, by construction."""

    sees_image = False
