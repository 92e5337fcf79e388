"""Exact enumeration checks for the generation engine.

Everything here recomputes what the engine is supposed to do from first
principles — analytic single-step marginals and exhaustive sums over every
random path — without calling any engine code.  It exists for tests and the
acceptance suite only; the engine never imports it.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from mmspec.core import MultimodalPrompt, ProbDist, TokenId
from mmspec.models import PromptConditionedLm

__all__ = [
    "MAX_PATHS",
    "SeqDist",
    "TooLargeError",
    "enumerate_autoregressive",
    "enumerate_spd",
    "induced_step_dist",
]

# Exhaustive enumeration is only sane up to about a million paths.
MAX_PATHS = 10**6

SeqDist = dict[tuple[TokenId, ...], float]


class TooLargeError(ValueError):
    """Raised when an enumeration would exceed MAX_PATHS paths."""


def induced_step_dist(p: ProbDist, q: ProbDist) -> ProbDist:
    """Marginal of a single draft/accept/resample step.

    Computed from the decomposition itself — accept mass
    ``p(x) * min(1, q(x)/p(x))`` plus total rejection mass routed through the
    normalized residual — rather than from the identity that the result
    equals ``q``, so comparing against ``q`` is a genuine check.
    """
    pv, qv = p.probs, q.probs
    if pv.size != qv.size:
        raise ValueError(f"dimension mismatch: {pv.size} vs {qv.size}")
    accept_ratio = np.ones_like(pv)
    mask = pv > 0.0
    accept_ratio[mask] = np.minimum(1.0, qv[mask] / pv[mask])
    accept_mass = pv * accept_ratio
    reject_mass = max(0.0, float((pv * (1.0 - accept_ratio)).sum()))
    residual_raw = np.maximum(qv - pv, 0.0)
    residual_total = float(residual_raw.sum())
    # With no residual mass (q <= p entrywise) the rule resamples from q.
    residual = residual_raw / residual_total if residual_total > 0.0 else qv
    return ProbDist(accept_mass + reject_mass * residual)


def enumerate_autoregressive(
    target: PromptConditionedLm,
    prompt: MultimodalPrompt,
    length: int,
    *,
    stop_on_eos: bool = True,
) -> SeqDist:
    """Exact output distribution of one-token-at-a-time sampling.

    Sequences end when they reach ``length`` tokens or (with
    ``stop_on_eos``) emit EOS, whose branch banks its mass immediately.
    Zero-probability sequences are omitted from the result.

    Raises:
        TooLargeError: if ``vocab_size ** length`` exceeds MAX_PATHS.
    """
    vocab = target.vocab
    if vocab.size**length > MAX_PATHS:
        raise TooLargeError(f"{vocab.size}^{length} paths exceed {MAX_PATHS}")
    done: SeqDist = defaultdict(float)
    frontier: SeqDist = {(): 1.0}
    for _ in range(length):
        nxt: SeqDist = defaultdict(float)
        for gen, mass in frontier.items():
            probs = target.next_dist(prompt, gen).probs
            for tok in range(vocab.size):
                m = mass * float(probs[tok])
                if m == 0.0:
                    continue
                seq = gen + (tok,)
                if (stop_on_eos and tok == vocab.eos) or len(seq) == length:
                    done[seq] += m
                else:
                    nxt[seq] += m
        frontier = nxt
    return dict(done)


def _draft_sequences(draft, prompt, gen, gamma, vocab_size):
    """All positive-probability draft blocks after prefix ``gen``:
    (tokens, draft mass, per-position dists)."""
    seqs = [((), 1.0, ())]
    for _ in range(gamma):
        grown = []
        for toks, mass, dists in seqs:
            d = draft.next_dist(prompt, gen + toks).probs
            for tok in range(vocab_size):
                pt = float(d[tok])
                if pt > 0.0:
                    grown.append((toks + (tok,), mass * pt, dists + (d,)))
        seqs = grown
    return seqs


def _block_outcomes(target, draft, prompt, gen, gamma):
    """Exact distribution over one round's emission (before truncation).

    Sums over every draft block, accept/reject pattern, and residual or
    bonus choice.  Mirrors the stochastic verification rule but shares no
    code with the engine.
    """
    out: SeqDist = defaultdict(float)
    vocab_size = target.vocab.size
    for toks, draft_mass, dists in _draft_sequences(draft, prompt, gen, gamma, vocab_size):
        q_dists = target.score_block(prompt, gen, toks)
        surviving = draft_mass
        for j, tok in enumerate(toks):
            p_j = float(dists[j][tok])
            q_j = float(q_dists[j].probs[tok])
            accept = min(1.0, q_j / p_j)
            reject_mass = surviving * (1.0 - accept)
            if reject_mass > 0.0:
                residual = np.maximum(q_dists[j].probs - dists[j], 0.0)
                total = residual.sum()
                # With no residual mass (q <= p entrywise) the rule resamples from q.
                residual = residual / total if total > 0.0 else q_dists[j].probs
                for fix in range(vocab_size):
                    if residual[fix] > 0.0:
                        out[toks[:j] + (fix,)] += reject_mass * float(residual[fix])
            surviving *= accept
            if surviving == 0.0:
                break
        if surviving > 0.0:
            bonus = q_dists[gamma].probs
            for tok in range(vocab_size):
                if bonus[tok] > 0.0:
                    out[toks + (tok,)] += surviving * float(bonus[tok])
    return out


def enumerate_spd(
    target: PromptConditionedLm,
    draft: PromptConditionedLm,
    prompt: MultimodalPrompt,
    gamma: int,
    length: int,
    *,
    stop_on_eos: bool = True,
) -> SeqDist:
    """Exact output distribution of stochastic speculative generation.

    Applies the same emission rules as the generation loop — EOS cuts an
    emission after the EOS itself, the final emission is cut to ``length``
    tokens — by exhaustively summing over random paths.  Greedy mode has no
    randomness to enumerate, so only the stochastic protocol lives here.

    Raises:
        TooLargeError: if ``vocab_size ** (length + gamma)`` exceeds
            MAX_PATHS.
    """
    vocab = target.vocab
    if vocab.size ** (length + gamma) > MAX_PATHS:
        raise TooLargeError(f"{vocab.size}^{length + gamma} paths exceed {MAX_PATHS}")
    done: SeqDist = defaultdict(float)
    frontier: SeqDist = {(): 1.0}
    while frontier:
        nxt: SeqDist = defaultdict(float)
        for gen, mass in frontier.items():
            for emitted, prob in _block_outcomes(target, draft, prompt, gen, gamma).items():
                m = mass * prob
                if m == 0.0:
                    continue
                kept = list(emitted)
                if stop_on_eos and vocab.eos in kept:
                    kept = kept[: kept.index(vocab.eos) + 1]
                room = length - len(gen)
                kept = kept[:room]
                seq = gen + tuple(kept)
                terminal = len(seq) >= length or (stop_on_eos and vocab.eos in kept)
                if terminal:
                    done[seq] += m
                else:
                    nxt[seq] += m
        frontier = nxt
    return dict(done)
