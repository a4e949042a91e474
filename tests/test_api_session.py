"""The Estimation facade: compile-and-run equivalence for all regimes.

The front-door contract: for a fixed seed, ``Estimation(spec).run()``
reproduces the exact estimates and costs of the equivalent hand-built
estimator stack, and a spec serialized through JSON produces a report
that is byte-identical to the original's.
"""

import json
import math

import pytest

from repro.api import (
    AggregateReport,
    AggregateSpec,
    ChurnSpec,
    DatasetSpec,
    Estimation,
    EstimationSpec,
    FederationSpec,
    MethodSpec,
    RegimeSpec,
    TargetSpec,
    run_spec,
)
from repro.core.dynamic import track
from repro.core.estimators import HDUnbiasedAgg, HDUnbiasedSize
from repro.datasets import bool_iid
from repro.datasets.federation import heterogeneous_federation
from repro.federation import FederatedSizeEstimator
from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.interface import TopKInterface


def iid_target(k=20, **kwargs):
    return TargetSpec(
        dataset=DatasetSpec(name="iid", m=500, seed=3), k=k, **kwargs
    )


def hand_built_client(seed=3, k=20, m=500):
    table = bool_iid(m=m, seed=seed)
    return HiddenDBClient(TopKInterface(table, k)), table


class TestStaticEquivalence:
    def test_matches_hand_built_stack(self):
        spec = EstimationSpec(
            target=iid_target(), regime=RegimeSpec(rounds=5, seed=3)
        )
        report = Estimation(spec).run()
        client, _ = hand_built_client()
        result = HDUnbiasedSize(client, r=4, dub=32, seed=3).run(rounds=5)
        assert report.estimate == result.mean
        assert report.total_queries == result.total_cost
        assert report.rounds == result.rounds == 5
        assert report.stop_reason == "rounds"
        assert report.trajectory == list(
            zip(result.trajectory.xs, result.trajectory.values)
        )

    def test_default_rounds_is_twenty(self):
        spec = EstimationSpec(target=iid_target(), regime=RegimeSpec(seed=3))
        assert Estimation(spec).run().rounds == 20

    def test_sum_aggregate(self):
        spec = EstimationSpec(
            target=TargetSpec(
                dataset=DatasetSpec(name="yahoo", m=400, seed=5), k=30
            ),
            aggregate=AggregateSpec(kind="sum", measure="PRICE"),
            regime=RegimeSpec(rounds=4, seed=5),
        )
        report = Estimation(spec).run()
        from repro.datasets import yahoo_auto

        table = yahoo_auto(m=400, seed=5)
        estimator = HDUnbiasedAgg(
            HiddenDBClient(TopKInterface(table, 30)),
            aggregate="sum", measure="PRICE", r=4, dub=32, seed=5,
        )
        assert report.estimate == estimator.run(rounds=4).mean


class TestBudgetedEquivalence:
    def test_budget_with_workers(self):
        spec = EstimationSpec(
            target=iid_target(),
            regime=RegimeSpec(query_budget=150, seed=3, workers=2),
        )
        report = Estimation(spec).run()
        client, _ = hand_built_client()
        result = HDUnbiasedSize(client, r=4, dub=32, seed=3).run(
            query_budget=150, workers=2
        )
        assert report.estimate == result.mean
        assert report.total_queries == result.total_cost
        assert report.stop_reason == "budget"

    def test_precision(self):
        spec = EstimationSpec(
            target=iid_target(),
            regime=RegimeSpec(target_precision=0.25, seed=3),
        )
        report = Estimation(spec).run()
        client, _ = hand_built_client()
        result = HDUnbiasedSize(client, r=4, dub=32, seed=3).run_until(0.25)
        assert report.estimate == result.mean
        assert report.stop_reason == "precision"


class TestTrackingEquivalence:
    def test_matches_track(self):
        spec = EstimationSpec(
            target=iid_target(churn=ChurnSpec(epochs=3, rate=0.1), k=25),
            regime=RegimeSpec(rounds=8, seed=2),
            method=MethodSpec(policy="reissue", reissue_per_epoch=3),
        )
        report = Estimation(spec).run()
        result = track(
            bool_iid(m=500, seed=3),
            epochs=3, churn=0.1, policy="reissue", k=25, rounds=8,
            reissue_per_epoch=3, seed=2, churn_seed=0,
        )
        assert report.per_epoch == result.to_dict()["epochs"]
        assert report.total_queries == result.total_cost
        assert report.estimate == result.epochs[-1].estimate
        assert report.stop_reason == "epochs"


class TestFederatedEquivalence:
    def spec(self):
        return EstimationSpec(
            target=TargetSpec(
                federation=FederationSpec(sources=2, base_m=250, seed=7),
                k=16,
            ),
            regime=RegimeSpec(query_budget=400, seed=7),
            method=MethodSpec(policy="uniform", pilot_rounds=2),
        )

    def test_matches_hand_built_stack(self):
        report = Estimation(self.spec()).run()
        target = heterogeneous_federation(
            num_sources=2, base_m=250, k=16, overlap=0.0, seed=7,
        )
        result = FederatedSizeEstimator(
            target, policy="uniform", pilot_rounds=2, seed=7
        ).run(query_budget=400)
        assert report.estimate == result.total
        assert report.cost_units == result.total_cost_units
        assert report.allocations == result.allocations
        assert report.per_source == [s.to_dict() for s in result.per_source]

    def test_ground_truth_reads_the_compiled_target(self):
        estimation = Estimation(self.spec())
        estimation.run()
        assert estimation.ground_truth() == (
            estimation.federation.true_total_size()
        )


class TestSerializedReproduction:
    """spec -> JSON -> spec -> identical seeded AggregateReport."""

    @pytest.mark.parametrize("spec", [
        EstimationSpec(target=iid_target(), regime=RegimeSpec(rounds=4, seed=3)),
        EstimationSpec(
            target=iid_target(),
            regime=RegimeSpec(query_budget=120, seed=3, workers=2),
        ),
        EstimationSpec(
            target=iid_target(churn=ChurnSpec(epochs=2, rate=0.1), k=25),
            regime=RegimeSpec(rounds=6, seed=2),
            method=MethodSpec(reissue_per_epoch=2),
        ),
        EstimationSpec(
            target=TargetSpec(
                federation=FederationSpec(sources=2, base_m=250, seed=7),
                k=16,
            ),
            regime=RegimeSpec(query_budget=400, seed=7),
            method=MethodSpec(policy="uniform", pilot_rounds=2),
        ),
    ], ids=["static", "budgeted", "tracking", "federated"])
    def test_report_identical_through_json(self, spec):
        direct = Estimation(spec).run()
        rebuilt = Estimation(EstimationSpec.from_json(spec.to_json())).run()
        assert direct.to_json() == rebuilt.to_json()

    def test_report_json_is_strict_rfc8259(self):
        # Tracking reports have no session-level standard error; the NaN
        # must serialize as null so jq/JSON.parse-style consumers can
        # read a shipped report.
        spec = EstimationSpec(
            target=iid_target(churn=ChurnSpec(epochs=2, rate=0.1), k=25),
            regime=RegimeSpec(rounds=6, seed=2),
        )
        report = Estimation(spec).run()
        text = report.to_json()
        assert "NaN" not in text

        def no_constants(name):
            raise AssertionError(f"non-strict JSON constant {name}")

        json.loads(text, parse_constant=no_constants)
        parsed = AggregateReport.from_json(text)
        assert math.isnan(parsed.std_error)
        assert parsed.to_json() == text

    def test_malformed_report_payloads_raise_value_error(self):
        base = {
            "mode": "static", "estimate": 1.0, "std_error": 1.0,
            "ci95": [0.0, 2.0], "rounds": 1, "total_queries": 1,
            "cost_units": 1.0, "stop_reason": "rounds",
        }
        bad_ci = dict(base, ci95=None)
        with pytest.raises(ValueError, match="ci95"):
            AggregateReport.from_dict(bad_ci)
        bad_traj = dict(base, trajectory=[[1.0]])
        with pytest.raises(ValueError, match="trajectory"):
            AggregateReport.from_dict(bad_traj)
        # A null trajectory reads back as empty, like an omitted one.
        assert AggregateReport.from_dict(dict(base, trajectory=None)).trajectory == []

    def test_report_round_trips_byte_identically(self):
        spec = EstimationSpec(
            target=iid_target(), regime=RegimeSpec(rounds=4, seed=3)
        )
        report = Estimation(spec).run()
        once = report.to_json()
        assert AggregateReport.from_json(once).to_json() == once
        assert AggregateReport.from_json(once).spec == spec


class TestInjection:
    def test_custom_dataset_requires_injected_table(self):
        spec = EstimationSpec(
            target=TargetSpec(dataset=DatasetSpec(name="custom"), k=20),
            regime=RegimeSpec(rounds=3, seed=3),
        )
        with pytest.raises(ValueError, match="custom"):
            Estimation(spec).run()
        table = bool_iid(m=300, seed=9)
        report = Estimation(spec, table=table).run()
        assert report.rounds == 3
        assert report.estimate > 0

    def test_run_spec_convenience(self):
        spec = EstimationSpec(
            target=iid_target(), regime=RegimeSpec(rounds=3, seed=3)
        )
        assert run_spec(spec).to_json() == Estimation(spec).run().to_json()

    def test_estimation_rejects_non_spec(self):
        with pytest.raises(TypeError, match="EstimationSpec"):
            Estimation({"rounds": 5})
