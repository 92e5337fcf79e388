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
    "aggregate",
    "block_efficiency",
    "mbsu",
    "mbsu_c_scaled",
]

# Default relative draft cost: a draft roughly 60x smaller than its target
# (think ~115M against ~7B parameters).
DEFAULT_DRAFT_COST = 115.0 / 7000.0


class EmptyTraceError(ValueError):
    """Raised when block efficiency is asked of a trace with no target calls."""


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


# --------------------------------------------------------------------------- #
#  Per-run records and aggregation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PromptRun:
    """Metrics for one prompt's speculative run at one gamma."""

    prompt_id: str
    gamma: int
    mode: str
    tokens: int
    target_calls: int
    tau: float
    mbsu: float
    mbsu_c_scaled: float
    wall_time_s: float


@dataclass(frozen=True)
class GammaAggregate:
    """Unweighted per-prompt means plus a pooled token-rate ratio: SPD tokens
    per modeled second, as the modeled baseline emits one token per second."""

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
    return GammaAggregate(
        gamma=gammas.pop(),
        mean_tau=fmean(r.tau for r in runs),
        mean_mbsu=fmean(r.mbsu for r in runs),
        token_rate_ratio=sum(r.tokens for r in runs) / sum(r.wall_time_s for r in runs),
    )
