"""Draft/verify generation loop with lossless acceptance rules.

One round works like this: the draft proposes ``gamma`` tokens
autoregressively, the target scores the whole block in a single call, and a
verification rule walks the block left to right.  In stochastic mode each
position is accepted with probability ``min(1, q/p)`` and the first
rejection is replaced by a draw from the residual ``max(0, q - p)``; in
greedy mode a position is accepted only if it equals the target argmax,
which is also the correction on mismatch.  A fully accepted block earns one
bonus token from the target's extra distribution.  Both rules leave the
output distributed exactly as plain autoregressive decoding from the
target.

A round builds little beyond what it returns: drafting is one walk of
the draft view (:meth:`~mmspec.models.PromptConditionedLm.walk`), which
keys each row after the first by shifting the last key by the token just
drawn and never touches the caller's output; from the second block on, the
walk and the target's scoring start from window codes the loop carries
from block to block; the baseline is one walk of
the target view; verification reads rows as floats through
``ProbDist.values``; and a greedy run derives no random stream at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from mmspec.core import (
    AllZeroError,
    MultimodalPrompt,
    ProbDist,
    RngState,
    TokenId,
    argmax,
    as_integer,
    normalize,
    sample,
)
from mmspec.models import NgramLm, PromptConditionedLm, _shift_pair

__all__ = [
    "BlockRecord",
    "BlockTrace",
    "DraftZeroProbError",
    "ShapeMismatchError",
    "SpdConfig",
    "autoregressive_generate",
    "draft_block",
    "residual_dist",
    "residual_table",
    "spd_generate",
    "verify_greedy",
    "verify_stochastic",
]

MODES = ("stochastic", "greedy")

# Substream ids under the run-level stream: drafting, accept/reject draws,
# and residual/bonus draws are kept independent so that a perturbation on
# the verification side can never shift what the draft proposes.
STREAM_DRAFT = 0
STREAM_VERIFY = 1
STREAM_RESAMPLE = 2


class DraftZeroProbError(ValueError):
    """Raised when a drafted token has zero probability under the draft."""


class ShapeMismatchError(ValueError):
    """Raised when target distributions do not line up with a draft block."""


# --------------------------------------------------------------------------- #
#  Config and record types
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SpdConfig:
    """Knobs for one speculative generation run."""

    gamma: int
    mode: str = "stochastic"
    max_new_tokens: int = 64
    stop_on_eos: bool = True

    def __post_init__(self) -> None:
        # unchecked, a float fails only inside the walk, as a bare TypeError, and True or 'no' runs as 1 or True
        for name in ("gamma", "max_new_tokens"):
            as_integer(name, getattr(self, name))
        if type(self.stop_on_eos) is not bool:
            raise ValueError(f"stop_on_eos must be a bool, got {self.stop_on_eos!r}")
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")


class BlockRecord(NamedTuple):
    """One verified draft block.

    ``emitted`` is the accepted prefix plus exactly one trailing token: a
    residual resample or greedy correction on rejection, or the bonus token
    when the whole block was accepted; :func:`spd_generate` cuts it at EOS
    and at the length limit.  ``accepted == len(draft_tokens)`` holds
    exactly when ``correction_kind == "bonus"``.
    """

    draft_tokens: tuple[TokenId, ...]
    accepted: int
    emitted: tuple[TokenId, ...]
    correction_kind: str  # "residual-resample" | "greedy-correction" | "bonus"


# ``_new_record(BlockRecord, (draft_tokens, accepted, emitted, correction_kind))`` builds a record in C, without
# the Python-level ``__new__`` frame a NamedTuple's constructor costs on every block.
_new_record = tuple.__new__
_DRAFTED, _EMITTED = attrgetter("draft_tokens"), attrgetter("emitted")


@dataclass
class BlockTrace:
    """Call accounting for a generation run: one block per target call."""

    blocks: list[BlockRecord] = field(default_factory=list)

    @property
    def target_calls(self) -> int:
        return len(self.blocks)

    @property
    def draft_calls(self) -> int:
        return sum(map(len, map(_DRAFTED, self.blocks)))

    @property
    def total_emitted(self) -> int:
        return sum(map(len, map(_EMITTED, self.blocks)))


# --------------------------------------------------------------------------- #
#  Single-step pieces
# --------------------------------------------------------------------------- #


def residual_dist(q: ProbDist, p: ProbDist) -> ProbDist:
    """Normalized ``max(0, q - p)``: where to resample after a rejection.

    Kept in ``q.residuals`` under ``p``, a dict made with ``q``'s first
    residual: :func:`residual_table` stores most pairs, and any other pair
    is built on its first rejection and kept unless the build fails.

    Raises:
        AllZeroError: if ``q <= p`` entrywise; :func:`verify_stochastic`
            then resamples from ``q``.
    """
    memo = q.residuals or {}
    res = memo.get(p)
    if res is None:
        res = memo[p] = normalize(np.maximum(q.probs - p.probs, 0.0))
        q.residuals = memo
    return res


def residual_table(target: NgramLm, draft: NgramLm) -> None:
    """Mark ``target`` as built against ``draft`` and store, in one numpy
    pass, the residual of each ``target`` row against the ``draft`` row of
    its context's suffix (or the uniform row), bit-equal to
    :func:`residual_dist`'s, by ``setdefault`` so a built one is kept."""
    target.residual_draft = draft
    pairs = [(q, draft.rows.get(code % draft.code_mod, draft._uniform)) for code, q in target.rows.items()]
    res = target.probs - np.array([p.probs for _, p in pairs])  # then clipped and normalized in place
    np.maximum(res, 0.0, out=res)
    totals = res.sum(axis=1)
    kept = np.flatnonzero(totals > 0.0)
    res = res[kept]
    res /= totals[kept, None]
    for i, row in zip(kept.tolist(), ProbDist.table(res)):
        q, p = pairs[i]
        q.residuals = q.residuals or {}
        q.residuals.setdefault(p, row)


def draft_block(
    draft: PromptConditionedLm,
    prompt: MultimodalPrompt,
    generated: Sequence[TokenId],
    gamma: int,
    rng: RngState | None,
    key: int | None = None,
) -> tuple[tuple[TokenId, ...], list[ProbDist]]:
    """Draft ``gamma`` tokens autoregressively: returns ``(tokens, dists)``, each token's draft row.

    Drafting never stops early — a draft-predicted EOS is proposed and
    verified like any other token.  The block is one :meth:`walk
    <mmspec.models.PromptConditionedLm.walk>` of the draft view, which never
    changes ``generated``: each token is a draw from ``rng``, or its row's
    argmax when ``rng`` is None.  ``key``, if given, is ``generated``'s window
    code in the draft view, which :func:`spd_generate` carries from block to
    block.
    """
    tokens, dists = draft.walk(prompt, generated, gamma, rng, None, key)
    return tuple(tokens), dists


def verify_stochastic(
    target_dists: Sequence[ProbDist],
    tokens: Sequence[TokenId],
    dists: Sequence[ProbDist],
    rng: RngState,
    resample_rng: RngState,
    models: tuple[NgramLm, NgramLm] | None = None,
) -> BlockRecord:
    """Accept/reject ``tokens`` drafted from ``dists`` so the output follows the target exactly.

    Scans positions left to right, consuming one uniform from ``rng`` per
    scanned position; position ``j`` survives with probability
    ``min(1, q_j/p_j)``.  The first rejection is replaced by a draw from the
    residual distribution and everything after it is discarded; a clean
    sweep appends a bonus token from the final target distribution.
    Residual and bonus draws come from ``resample_rng``.

    A residual with no positive mass (``q <= p`` entrywise, so the rows
    differ only by rounding, yet ``q_j/p_j < 1``) resamples from ``q``
    itself: that rejection has rounding-level probability, so the output
    still follows the target within ``PROB_SUM_TOL``.  Given the rows'
    ``models``, the first rejection builds their :func:`residual_table`.

    Raises:
        ShapeMismatchError: unless ``len(target_dists) == len(tokens) + 1``
            and ``len(dists) == len(tokens)``.
        DraftZeroProbError: if a drafted token has zero draft probability.
    """
    n = len(tokens)
    if len(target_dists) != n + 1 or len(dists) != n:
        raise ShapeMismatchError(f"{n} drafted tokens, {len(dists)} draft and {len(target_dists)} target distributions")
    uniform = rng.uniform
    for j, tok in enumerate(tokens):
        p, q = dists[j], target_dists[j]
        p_j = p.values[tok]
        if p_j == 0.0:
            raise DraftZeroProbError("drafted token has zero draft probability")
        # u < 1, so this is u >= min(1, q_j / p_j)
        if uniform() >= q.values[tok] / p_j:
            if models is not None and models[0].residual_draft is not models[1]:
                residual_table(*models)
            try:
                res = residual_dist(q, p)
            except AllZeroError:
                res = q
            fix = sample(res, resample_rng)
            return _new_record(BlockRecord, (tokens, j, tokens[:j] + (fix,), "residual-resample"))
    bonus = sample(target_dists[n], resample_rng)
    return _new_record(BlockRecord, (tokens, n, tokens + (bonus,), "bonus"))


def verify_greedy(target_dists: Sequence[ProbDist], tokens: Sequence[TokenId]) -> BlockRecord:
    """Accept drafted tokens while they equal the target argmax.

    On the first mismatch the target argmax itself is emitted as the
    correction, which makes the overall output identical to greedy decoding
    from the target alone.
    """
    n = len(tokens)
    if len(target_dists) != n + 1:
        raise ShapeMismatchError(f"expected {n + 1} target distributions, got {len(target_dists)}")
    for j, tok in enumerate(tokens):
        top = argmax(target_dists[j])
        if tok != top:
            return _new_record(BlockRecord, (tokens, j, tokens[:j] + (top,), "greedy-correction"))
    return _new_record(BlockRecord, (tokens, n, tokens + (argmax(target_dists[n]),), "bonus"))


# --------------------------------------------------------------------------- #
#  Generation loops
# --------------------------------------------------------------------------- #


def spd_generate(
    target: PromptConditionedLm,
    draft: PromptConditionedLm,
    prompt: MultimodalPrompt,
    cfg: SpdConfig,
    rng: RngState | None,
) -> tuple[list[TokenId], BlockTrace]:
    """Speculative generation: returns ``(tokens, trace)``.

    Each loop iteration drafts a full ``gamma`` block, scores it with one
    target call, verifies, and appends the verified emission.  With
    ``stop_on_eos`` the emission is cut after the first EOS (keeping the EOS
    itself); the final emission is also cut to fit ``max_new_tokens``.  The
    trace records post-truncation emissions, so block efficiency computed
    from it matches the tokens actually returned.

    Stochastic draft, accept/reject, and resample draws come from three
    substreams of ``rng``, so draft proposals depend only on the seed and
    the text-side prefix — never on image context or verification outcomes
    inside a block.  Greedy mode never reads ``rng``; it may be ``None``,
    and the draft walk gets no stream, so it takes each row's argmax.
    Verification gets the models until their :func:`residual_table` is built.

    The loop starts each view's window code from the prompt's
    (:meth:`~mmspec.models.PromptConditionedLm.start`) and shifts both by
    every block's emitted tokens in one :func:`~mmspec.models._shift_pair`
    call, so drafting and scoring start from that code.  Only the first
    block's draft walk keys itself, which takes its first row from
    ``next_dist``.
    """
    gamma, limit, stop_on_eos = cfg.gamma, cfg.max_new_tokens, cfg.stop_on_eos
    greedy, base = cfg.mode == "greedy", (target.base, draft.base)
    models = None if greedy or base[0].residual_draft is base[1] or base[1].order > base[0].order else base
    if greedy:
        draft_rng = verify_rng = resample_rng = None
    elif rng is None:
        raise ValueError("stochastic mode needs an rng")
    else:
        draft_rng = rng.substream(STREAM_DRAFT)
        verify_rng = rng.substream(STREAM_VERIFY)
        resample_rng = rng.substream(STREAM_RESAMPLE)
    eos = target.vocab.eos
    out: list[TokenId] = []
    trace = BlockTrace()
    blocks = trace.blocks
    draft_key, target_key = draft.start(prompt), target.start(prompt)  # the codes of empty ``out``'s windows
    while True:
        # the first block's walk keys itself, so next_dist, which perfbench patches, still runs once per run
        tokens, dists = draft_block(draft, prompt, out, gamma, draft_rng, draft_key if blocks else None)
        target_dists = target.score_block(prompt, out, tokens, target_key)
        if greedy:
            record = verify_greedy(target_dists, tokens)
        else:
            record = verify_stochastic(target_dists, tokens, dists, verify_rng, resample_rng, models)
        emitted = record.emitted
        room = limit - len(out)
        if len(emitted) < room and not (stop_on_eos and eos in emitted):
            out += emitted
            blocks.append(record)
            draft_key, target_key = _shift_pair(draft, target, draft_key, target_key, emitted)
            continue
        # EOS or the length limit ends the run with this block.
        if stop_on_eos and eos in emitted:
            emitted = emitted[: emitted.index(eos) + 1]
        emitted = emitted[:room]
        if len(emitted) < len(record.emitted):
            record = BlockRecord(record.draft_tokens, record.accepted, emitted, record.correction_kind)
        out += emitted
        blocks.append(record)
        return out, trace


def autoregressive_generate(
    target: PromptConditionedLm,
    prompt: MultimodalPrompt,
    max_new_tokens: int,
    rng: RngState | None = None,
    *,
    stop_on_eos: bool = True,
) -> list[TokenId]:
    """Plain one-token-per-call decoding from the target, as one walk of its view; the baseline.  Each token is
    a draw from ``rng``, or its row's argmax when ``rng`` is None, as in greedy mode."""
    if type(max_new_tokens) is not int:  # an int skips the call, which costs ~5% of a 16-token greedy baseline run
        as_integer("max_new_tokens", max_new_tokens)
    if max_new_tokens < 1:
        raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
    if type(stop_on_eos) is not bool:  # "no" is truthy, and would run with the EOS stop
        raise ValueError(f"stop_on_eos must be a bool, got {stop_on_eos!r}")
    stop = target.vocab.eos if stop_on_eos else None
    return target.walk(prompt, (), max_new_tokens, rng, stop)[0]
