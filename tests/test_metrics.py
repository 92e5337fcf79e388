"""Tests for scalar metrics and per-run aggregation."""

import pytest

from helpers import trace_from_emission_counts

from mmspec.engine import BlockTrace
from mmspec.metrics import (
    CostModel,
    DEFAULT_DRAFT_COST,
    EmptyTraceError,
    PromptRun,
    aggregate,
    block_efficiency,
    mbsu,
    mbsu_c_scaled,
)


def make_run(pid="p0", gamma=3, tau=2.0, tokens=20, calls=10, wall=5.0):
    cost = CostModel()
    return PromptRun(
        prompt_id=pid,
        gamma=gamma,
        mode="greedy",
        tokens=tokens,
        target_calls=calls,
        tau=tau,
        mbsu=mbsu(tau, gamma, cost),
        mbsu_c_scaled=mbsu_c_scaled(tau, gamma, cost),
        wall_time_s=wall,
    )


class TestCostModel:
    def test_default_ratio(self):
        assert CostModel().c == pytest.approx(115.0 / 7000.0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            CostModel(0.0)
        with pytest.raises(ValueError):
            CostModel(1.5)
        assert CostModel(1.0).c == 1.0


class TestBlockEfficiency:
    def test_mean_emissions(self):
        """Blocks emitting 4, 2, 3 tokens give tau = 3.0 exactly."""
        trace = trace_from_emission_counts([4, 2, 3], gamma=3)
        assert block_efficiency(trace) == 3.0

    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            block_efficiency(BlockTrace())


class TestMbsu:
    def test_frozen_value(self):
        """tau=2, gamma=3 at the default cost: 2 / (3c + 1) = 1.90606."""
        assert mbsu(2.0, 3, CostModel()) == pytest.approx(1.9060585432266848, abs=1e-12)

    def test_free_draft_limit(self):
        """As c tends to 0, mbsu tends to tau."""
        assert mbsu(2.5, 4, CostModel(1e-12)) == pytest.approx(2.5, abs=1e-9)

    def test_identity_regime_value(self):
        """tau = gamma + 1 = 4 gives 4 / (3c + 1) = 3.81212 at default cost."""
        assert mbsu(4.0, 3, CostModel()) == pytest.approx(3.8121170864533696, abs=1e-12)

    def test_scaled_variant_is_c_times_mbsu(self):
        cost = CostModel(0.25)
        assert mbsu_c_scaled(2.0, 3, cost) == pytest.approx(0.25 * mbsu(2.0, 3, cost))

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            mbsu(2.0, 0, CostModel())


class TestAggregate:
    def test_means_and_pooled_rate(self):
        runs = [
            make_run(pid="a", tau=2.0, tokens=20, wall=5.0),
            make_run(pid="b", tau=3.0, tokens=30, wall=5.0),
        ]
        agg = aggregate(runs)
        assert agg.mean_tau == pytest.approx(2.5)
        assert agg.mean_mbsu == pytest.approx((runs[0].mbsu + runs[1].mbsu) / 2)
        # pooled: 50 tokens / 10 s = 5.0, not the mean of per-prompt ratios (4.0 and 6.0)
        assert agg.token_rate_ratio == pytest.approx(5.0)

    def test_means_bounded_by_extremes(self):
        runs = [make_run(pid=str(i), tau=1.0 + i) for i in range(5)]
        agg = aggregate(runs)
        taus = [r.tau for r in runs]
        assert min(taus) <= agg.mean_tau <= max(taus)
        mbsus = [r.mbsu for r in runs]
        assert min(mbsus) <= agg.mean_mbsu <= max(mbsus)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mixed_gamma_rejected(self):
        with pytest.raises(ValueError):
            aggregate([make_run(gamma=3), make_run(gamma=5)])


class TestDefaultCost:
    def test_value(self):
        assert DEFAULT_DRAFT_COST == pytest.approx(0.016428571428571428)
