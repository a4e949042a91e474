"""Unit tests for the experiment harness."""

import math

import pytest

from repro.datasets import boolean_table
from repro.experiments import (
    SCALES,
    agg_factory,
    capture_recapture_factory,
    collect_trajectories,
    hd_size_factory,
    metrics_at_costs,
    resolve_scale,
)
from repro.experiments.config import default_scale_name
from repro.utils.stats import StreamingMeanSeries


@pytest.fixture(scope="module")
def table():
    return boolean_table(400, [0.5] * 10, seed=31)


class TestScales:
    def test_resolve_by_name(self):
        assert resolve_scale("tiny").name == "tiny"

    def test_resolve_passthrough(self):
        s = SCALES["small"]
        assert resolve_scale(s) is s

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert resolve_scale(None).name == "small"

    def test_repro_full_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_scale_name() == "paper"

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            resolve_scale("huge")

    def test_all_scales_well_formed(self):
        for scale in SCALES.values():
            assert scale.m > 0 and scale.k > 0 and scale.replications > 0
            assert len(scale.cost_grid) >= 3
            assert list(scale.cost_grid) == sorted(scale.cost_grid)


class TestFactories:
    def test_hd_factory_trajectories_independent(self, table):
        factory = hd_size_factory(table, k=10, budget=120, r=2, dub=8)
        t1 = factory(1)
        t2 = factory(2)
        assert len(t1) > 0 and len(t2) > 0
        assert t1.values != t2.values or t1.xs != t2.xs

    def test_agg_factory(self, table):
        factory = agg_factory(
            table, k=10, budget=120, aggregate="sum", measure="VALUE",
            r=2, dub=8,
        )
        trajectory = factory(3)
        assert len(trajectory) > 0
        assert all(v > 0 for v in trajectory.values)

    def test_cr_factory_respects_budget(self, table):
        factory = capture_recapture_factory(table, k=10, budget=100)
        trajectory = factory(4)
        assert not trajectory.xs or max(trajectory.xs) <= 100

    def test_collect_trajectories_count(self, table):
        factory = hd_size_factory(table, k=10, budget=80, r=2, dub=8)
        trajectories = collect_trajectories(factory, 3, base_seed=5)
        assert len(trajectories) == 3

    def test_collect_validation(self, table):
        factory = hd_size_factory(table, k=10, budget=80)
        with pytest.raises(ValueError):
            collect_trajectories(factory, 0, base_seed=1)

    def test_collect_parallel_matches_sequential(self, table):
        factory = hd_size_factory(table, k=10, budget=80, r=2, dub=8)
        sequential = collect_trajectories(factory, 4, base_seed=5)
        parallel = collect_trajectories(factory, 4, base_seed=5, workers=3)
        for a, b in zip(sequential, parallel):
            assert a.xs == b.xs
            assert a.values == b.values


class TestMetrics:
    def _trajectories(self):
        t1 = StreamingMeanSeries()
        t1.append(10, 90.0)
        t1.append(20, 100.0)
        t2 = StreamingMeanSeries()
        t2.append(15, 110.0)
        return [t1, t2]

    def test_metrics_basic(self):
        metrics = metrics_at_costs(self._trajectories(), truth=100.0, costs=[20])
        point = metrics[0]
        assert point.replications == 2
        assert point.mean_estimate == pytest.approx(105.0)
        assert point.mse == pytest.approx((0 + 100) / 2)
        assert point.mean_relative_error == pytest.approx(0.05)

    def test_metrics_before_any_estimate(self):
        metrics = metrics_at_costs(self._trajectories(), truth=100.0, costs=[5])
        assert metrics[0].replications == 0
        assert math.isnan(metrics[0].mse)

    def test_metrics_partial_coverage(self):
        metrics = metrics_at_costs(self._trajectories(), truth=100.0, costs=[12])
        assert metrics[0].replications == 1
        assert metrics[0].mean_estimate == pytest.approx(90.0)

    def test_infinite_estimates_dropped(self):
        t = StreamingMeanSeries()
        t.append(10, float("inf"))
        metrics = metrics_at_costs([t], truth=100.0, costs=[10])
        assert metrics[0].replications == 0

    def test_std_zero_for_single_observation(self):
        t = StreamingMeanSeries()
        t.append(10, 42.0)
        metrics = metrics_at_costs([t], truth=100.0, costs=[10])
        assert metrics[0].std_estimate == 0.0


class TestCollectSpecRuns:
    def _spec(self):
        from repro.api import DatasetSpec, EstimationSpec, RegimeSpec, TargetSpec

        return EstimationSpec(
            target=TargetSpec(
                dataset=DatasetSpec(name="iid", m=300, seed=5), k=20
            ),
            regime=RegimeSpec(rounds=3, seed=0),
        )

    def test_replication_seeds_vary_only_the_session(self):
        from repro.experiments.harness import collect_spec_runs

        reports = collect_spec_runs(self._spec(), replications=3, base_seed=11)
        assert len(reports) == 3
        assert all(r.rounds == 3 for r in reports)
        # Distinct session seeds -> (almost surely) distinct estimates.
        assert len({r.estimate for r in reports}) > 1
        # The embedded spec echoes the derived seed per replication.
        assert [r.spec.regime.seed for r in reports] == [11, 11 + 7919, 11 + 2 * 7919]

    def test_worker_pool_matches_sequential(self):
        from repro.experiments.harness import collect_spec_runs

        sequential = collect_spec_runs(self._spec(), replications=3, base_seed=11)
        pooled = collect_spec_runs(
            self._spec(), replications=3, base_seed=11, workers=3
        )
        assert [r.to_json() for r in sequential] == [r.to_json() for r in pooled]

    def test_rejects_zero_replications(self):
        import pytest

        from repro.experiments.harness import collect_spec_runs

        with pytest.raises(ValueError):
            collect_spec_runs(self._spec(), replications=0, base_seed=1)
