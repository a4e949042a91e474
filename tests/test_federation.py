"""Federated estimation: targets, policies, scheduler, acceptance bars."""

import math

import numpy as np
import pytest

from repro.datasets import boolean_table
from repro.datasets.federation import (
    federated_sources,
    heterogeneous_federation,
    skewed_probabilities,
)
from repro.experiments.harness import collect_federated_runs
from repro.federation import (
    FederatedAggEstimator,
    FederatedSizeEstimator,
    FederatedSource,
    FederatedTarget,
    SourcePilot,
    apportion,
    available_policies,
    resolve_policy,
)


@pytest.fixture(scope="module")
def target():
    """The 3-source heterogeneous acceptance fixture (shared, read-only)."""
    return heterogeneous_federation(
        num_sources=3, base_m=250, n_attrs=13, k=16, seed=5
    )


def pilots(**kwargs):
    base = dict(
        a=SourcePilot("a", 3, 100.0, 50.0, 20.0),
        b=SourcePilot("b", 3, 100.0, 10.0, 20.0),
        c=SourcePilot("c", 3, 100.0, 10.0, 80.0),
    )
    base.update(kwargs)
    return list(base.values())


class TestTarget:
    def test_sources_validated(self):
        table = boolean_table(64, [0.5] * 8, seed=1)
        with pytest.raises(ValueError, match="name"):
            FederatedSource("", table)
        with pytest.raises(ValueError, match="k"):
            FederatedSource("x", table, k=0)
        with pytest.raises(ValueError, match="cost_per_query"):
            FederatedSource("x", table, cost_per_query=0)

    def test_duplicate_names_rejected(self):
        table = boolean_table(64, [0.5] * 8, seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            FederatedTarget(
                [FederatedSource("x", table), FederatedSource("x", table)]
            )

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FederatedTarget([])

    def test_lookup_by_name_and_index(self, target):
        assert target["source_00"] is target[0]
        assert "source_01" in target
        with pytest.raises(KeyError, match="no source named"):
            target["nope"]

    def test_truth_is_sum_of_sources(self, target):
        assert target.true_total_size() == sum(s.true_size for s in target)
        assert target.true_total_sum("VALUE") == pytest.approx(
            sum(s.true_sum("VALUE") for s in target)
        )


class TestPolicies:
    def test_registry(self):
        assert set(available_policies()) >= {
            "uniform", "cost_weighted", "neyman"
        }
        with pytest.raises(ValueError, match="unknown allocation policy"):
            resolve_policy("magic")
        policy = resolve_policy("neyman")
        assert resolve_policy(policy) is policy

    def test_apportion_sums_exactly_and_deterministically(self):
        alloc = apportion(100, [1.0, 1.0, 1.0], ["a", "b", "c"])
        assert sum(alloc.values()) == 100
        # Largest-remainder ties break by position: first source wins.
        assert alloc == {"a": 34, "b": 33, "c": 33}

    def test_apportion_degenerate_weights_fall_back_to_uniform(self):
        alloc = apportion(9, [0.0, float("nan"), -5.0], ["a", "b", "c"])
        assert alloc == {"a": 3, "b": 3, "c": 3}

    def test_uniform_ignores_pilots(self):
        alloc = resolve_policy("uniform").allocate(300, pilots())
        assert alloc == {"a": 100, "b": 100, "c": 100}

    def test_cost_weighted_equalises_rounds(self):
        alloc = resolve_policy("cost_weighted").allocate(300, pilots())
        # a and b cost 20/round, c costs 80: c gets 4x their budget and
        # every source then affords the same round count.
        assert alloc == {"a": 50, "b": 50, "c": 200}
        assert alloc["c"] / 80 == pytest.approx(alloc["a"] / 20)

    def test_neyman_prefers_spread_and_cost(self):
        alloc = resolve_policy("neyman").allocate(300, pilots())
        # a has 5x b's spread at equal cost: ~5x the budget.
        assert alloc["a"] > 4 * alloc["b"]
        # c has b's spread but 4x the per-round cost: sqrt(4)=2x budget.
        assert alloc["c"] == pytest.approx(2 * alloc["b"], rel=0.1)

    def test_neyman_zero_spread_falls_back_to_cost_weighted(self):
        flat = [
            SourcePilot("a", 3, 100.0, 0.0, 20.0),
            SourcePilot("b", 3, 100.0, 0.0, 80.0),
        ]
        assert resolve_policy("neyman").allocate(100, flat) == \
            resolve_policy("cost_weighted").allocate(100, flat)


class TestDatasets:
    def test_skewed_probabilities_endpoints(self):
        iid = skewed_probabilities(12, 0.0)
        assert np.allclose(iid, 0.5)
        mixed = skewed_probabilities(12, 1.0)
        assert np.all((mixed > 0) & (mixed <= 0.5))
        assert mixed.min() < 0.1  # genuinely skewed tail

    def test_generator_is_seeded(self):
        a = federated_sources([200, 100], seed=9)
        b = federated_sources([200, 100], seed=9)
        for source_a, source_b in zip(a, b):
            assert np.array_equal(source_a.table._data, source_b.table._data)

    def test_heterogeneous_sources_differ(self, target):
        sizes = [s.true_size for s in target]
        ks = [s.k for s in target]
        assert len(set(sizes)) > 1 and len(set(ks)) > 1

    def test_overlapping_universes_share_rows(self):
        fed = federated_sources([150, 150], n_attrs=12, overlap=0.4, seed=3)
        rows_a = {row.tobytes() for row in fed[0].table._data}
        rows_b = {row.tobytes() for row in fed[1].table._data}
        shared = rows_a & rows_b
        assert len(shared) > 0
        # Each table itself stays duplicate-free (checked at build), and
        # per-source sizes are what was asked for.
        assert fed[0].true_size == 150 and fed[1].true_size == 150

    def test_overlap_past_64_attributes_stays_duplicate_free(self):
        # 70 Boolean attributes: the row keys are Python ints.
        fed = federated_sources([150, 150], n_attrs=70, overlap=0.4, seed=3)
        rows_a = {row.tobytes() for row in fed[0].table._data}
        rows_b = {row.tobytes() for row in fed[1].table._data}
        assert len(rows_a) == len(rows_b) == 150
        assert rows_a & rows_b

    @pytest.mark.parametrize("n_attrs", [12, 70])
    def test_shared_universe_is_the_row_sorted_pool(self, n_attrs):
        # The pool is indexed by a permutation of its sorted distinct rows,
        # so the row-key dedup must reproduce the 2-D unique's row order.
        from repro.datasets.federation import _overlap_universe
        from repro.utils.rng import spawn_rng

        rows, seed = 40, 17
        rng = spawn_rng(seed)
        raw = (rng.random((rows * 2 + 64, n_attrs)) < 0.5).astype(np.int8)
        unique = np.unique(raw, axis=0)
        expected = unique[rng.permutation(unique.shape[0])[:rows]]
        np.testing.assert_array_equal(
            _overlap_universe(n_attrs, rows, seed), expected
        )

    def test_churning_sources_advance(self):
        fed = federated_sources(
            [150, 100], churn_rates=[0.2, 0.0], seed=3
        )
        before = fed[0].table.version
        deltas = fed.advance_epoch()
        assert deltas["source_00"] is not None
        assert deltas["source_01"] is None
        assert fed[0].table.version == before + 1


class TestFederatedScheduler:
    @pytest.mark.parametrize("policy", ["uniform", "cost_weighted", "neyman"])
    def test_bit_identical_across_worker_counts(self, target, policy):
        payloads = {}
        for workers in (1, 2, 4):
            estimator = FederatedSizeEstimator(
                target, policy=policy, pilot_rounds=2, seed=11
            )
            payloads[workers] = estimator.run(
                query_budget=350, workers=workers
            ).to_dict()
        assert payloads[1] == payloads[2] == payloads[4]

    def test_budget_respected_up_to_last_round_overshoot(self, target):
        estimator = FederatedSizeEstimator(
            target, policy="neyman", pilot_rounds=2, seed=11
        )
        result = estimator.run(query_budget=400)
        max_round_units = max(
            source_estimate.cost_units / source_estimate.rounds
            for source_estimate in result.per_source
        )
        # Pilot phases are pre-allocation spend; each source's main phase
        # can overshoot by at most one atomic round.
        assert result.total_cost_units < 400 + len(target) * max_round_units
        assert sum(result.allocations.values()) == int(
            400 - result.pilot_cost_units
        )

    def test_pilot_heavier_than_budget_rejected(self, target):
        estimator = FederatedSizeEstimator(
            target, policy="uniform", pilot_rounds=2, seed=1
        )
        with pytest.raises(ValueError, match="pilot"):
            estimator.run(query_budget=10)

    def test_validation(self, target):
        with pytest.raises(ValueError, match="pilot_rounds"):
            FederatedSizeEstimator(target, pilot_rounds=1)
        estimator = FederatedSizeEstimator(target, seed=1)
        with pytest.raises(ValueError, match="positive finite budget"):
            estimator.run(query_budget=None)
        with pytest.raises(ValueError, match="workers"):
            estimator.run(query_budget=500, workers=0)

    def test_cost_per_query_scales_units(self):
        fed = federated_sources(
            [150, 150], costs_per_query=[3.0, 1.0], seed=4
        )
        result = FederatedSizeEstimator(
            fed, policy="uniform", pilot_rounds=2, seed=2
        ).run(query_budget=500)
        expensive = result.source("source_00")
        assert expensive.cost_units == pytest.approx(3.0 * expensive.queries)
        # Equal unit budgets + 3x pricing => far fewer queries afforded.
        cheap = result.source("source_01")
        assert expensive.queries < cheap.queries

    def test_federated_agg_sum(self):
        fed = federated_sources([200, 120], seed=6)
        result = FederatedAggEstimator(
            fed, aggregate="sum", measure="VALUE", policy="neyman", seed=3
        ).run(query_budget=600)
        truth = fed.true_total_sum("VALUE")
        assert result.total == pytest.approx(truth, rel=0.5)
        assert result.std_error > 0

    def test_federated_avg_refused(self, target):
        with pytest.raises(ValueError, match="AVG"):
            FederatedAggEstimator(target, aggregate="avg", measure="VALUE")

    def test_result_payload_roundtrips(self, target):
        result = FederatedSizeEstimator(
            target, policy="cost_weighted", pilot_rounds=2, seed=8
        ).run(query_budget=350)
        payload = result.to_dict()
        assert payload["policy"] == "cost_weighted"
        assert len(payload["per_source"]) == len(target)
        assert payload["total_queries"] == sum(
            entry["queries"] for entry in payload["per_source"]
        )
        with pytest.raises(KeyError):
            result.source("nope")


class TestAcceptance:
    """The ISSUE acceptance bar: coverage and neyman-beats-uniform."""

    BUDGET = 700
    REPLICATIONS = 200

    @pytest.fixture(scope="class")
    def runs(self, target):
        return {
            policy: collect_federated_runs(
                target,
                self.REPLICATIONS,
                base_seed=1000,
                policy=policy,
                query_budget=self.BUDGET,
                pilot_rounds=2,
                workers=4,
            )
            for policy in ("uniform", "neyman")
        }

    def test_unbiased_and_covered(self, target, runs):
        truth = target.true_total_size()
        for policy, results in runs.items():
            totals = np.array([r.total for r in results])
            # Unbiasedness: replication mean within 3 SE of the truth.
            se = totals.std(ddof=1) / math.sqrt(len(totals))
            assert abs(totals.mean() - truth) <= 3 * se, policy
            coverage = np.mean(
                [r.ci95[0] <= truth <= r.ci95[1] for r in results]
            )
            assert coverage >= 0.85, (policy, coverage)

    def test_neyman_beats_uniform_at_matched_budget(self, target, runs):
        truth = target.true_total_size()

        def mse(results):
            totals = np.array([r.total for r in results])
            return float(np.mean((totals - truth) ** 2))

        assert mse(runs["neyman"]) < 0.85 * mse(runs["uniform"])

    def test_replication_collection_worker_invariant(self, target):
        sequential = collect_federated_runs(
            target, 3, base_seed=50, policy="neyman", query_budget=350,
            pilot_rounds=2, workers=1,
        )
        threaded = collect_federated_runs(
            target, 3, base_seed=50, policy="neyman", query_budget=350,
            pilot_rounds=2, workers=3,
        )
        assert [r.to_dict() for r in sequential] == [
            r.to_dict() for r in threaded
        ]
