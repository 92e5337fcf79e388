"""Block efficiency, memory-bound speed-up, and token-rate reporting.

Block efficiency (tau) is tokens emitted per target call.  Memory-bound
speed-up (MBSU) discounts tau by the drafting overhead: a block costs
``c * gamma`` draft passes plus one target pass, with ``c`` the relative
cost of a draft pass, so ``mbsu = tau / (c * gamma + 1)``.  A scaled
variant ``c * tau / (c * gamma + 1)`` is reported alongside it for
comparison with cost-weighted accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Sequence

from mmspec.engine import BlockTrace

__all__ = [
    "CostModel",
    "DEFAULT_DRAFT_COST",
    "EmptyTraceError",
    "GammaAggregate",
    "PromptRun",
    "RunReport",
    "ZeroTimeError",
    "aggregate",
    "block_efficiency",
    "mbsu",
    "mbsu_c_scaled",
    "token_rate_ratio",
]

# Default relative draft cost: a draft roughly 60x smaller than its target
# (think ~115M against ~7B parameters).
DEFAULT_DRAFT_COST = 115.0 / 7000.0


class EmptyTraceError(ValueError):
    """Raised when block efficiency is asked of a trace with no target calls."""


class ZeroTimeError(ValueError):
    """Raised when a token rate is computed over a non-positive duration."""


@dataclass(frozen=True)
class CostModel:
    """Relative cost ``c`` of one draft pass against one target pass."""

    c: float = DEFAULT_DRAFT_COST

    def __post_init__(self) -> None:
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"relative draft cost must be in (0, 1], got {self.c}")


# --------------------------------------------------------------------------- #
#  Scalar metrics
# --------------------------------------------------------------------------- #


def block_efficiency(trace: BlockTrace) -> float:
    """Average tokens emitted per target call; lies in ``[1, gamma + 1]``.

    Counts post-truncation emissions, so the value stays consistent with the
    tokens actually returned by generation.

    Raises:
        EmptyTraceError: if the trace records no target calls.
    """
    if trace.target_calls == 0:
        raise EmptyTraceError("trace has no target calls")
    return trace.total_emitted / trace.target_calls


def mbsu(tau: float, gamma: int, cost: CostModel) -> float:
    """Expected memory-bound speed-up ``tau / (c * gamma + 1)``.

    As ``c`` approaches zero — free drafting — this tends to ``tau``.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    return tau / (cost.c * gamma + 1.0)


def mbsu_c_scaled(tau: float, gamma: int, cost: CostModel) -> float:
    """Cost-weighted variant ``c * tau / (c * gamma + 1)``; reported next to
    :func:`mbsu` so both normalizations are visible in the output."""
    return cost.c * mbsu(tau, gamma, cost)


def token_rate_ratio(
    spd_tokens: int,
    spd_time: float,
    ar_tokens: int,
    ar_time: float,
) -> float:
    """Speculative tokens/second divided by baseline tokens/second.

    Raises:
        ZeroTimeError: if either duration is not positive.
    """
    if spd_time <= 0.0 or ar_time <= 0.0:
        raise ZeroTimeError(f"durations must be positive, got {spd_time} and {ar_time}")
    if spd_tokens < 1 or ar_tokens < 1:
        raise ValueError("token counts must be >= 1")
    return (spd_tokens / spd_time) / (ar_tokens / ar_time)


# --------------------------------------------------------------------------- #
#  Per-run records and aggregation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PromptRun:
    """Metrics for one prompt at one gamma, with its matched baseline."""

    prompt_id: str
    gamma: int
    mode: str
    tokens: int
    target_calls: int
    tau: float
    mbsu: float
    mbsu_c_scaled: float
    wall_time_s: float
    baseline_tokens: int
    baseline_time_s: float


@dataclass(frozen=True)
class GammaAggregate:
    """Unweighted per-prompt means plus a pooled token-rate ratio."""

    gamma: int
    mean_tau: float
    mean_mbsu: float
    token_rate_ratio: float


@dataclass(frozen=True)
class RunReport:
    """Everything one experiment produced: config echo, rows, aggregates."""

    config: dict
    runs: tuple[PromptRun, ...]
    aggregates: tuple[GammaAggregate, ...]


def aggregate(runs: Sequence[PromptRun]) -> GammaAggregate:
    """Aggregate prompt runs for a single gamma.

    tau and MBSU are unweighted means across prompts; the token-rate ratio
    is pooled from summed tokens and summed times, not a mean of per-prompt
    ratios.
    """
    if not runs:
        raise ValueError("no prompt runs to aggregate")
    gammas = {r.gamma for r in runs}
    if len(gammas) != 1:
        raise ValueError(f"aggregate expects a single gamma, got {sorted(gammas)}")
    rate = token_rate_ratio(
        sum(r.tokens for r in runs),
        sum(r.wall_time_s for r in runs),
        sum(r.baseline_tokens for r in runs),
        sum(r.baseline_time_s for r in runs),
    )
    return GammaAggregate(
        gamma=gammas.pop(),
        mean_tau=fmean(r.tau for r in runs),
        mean_mbsu=fmean(r.mbsu for r in runs),
        token_rate_ratio=rate,
    )
