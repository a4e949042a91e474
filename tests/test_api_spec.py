"""Unit tests for the declarative spec layer (`repro.api.spec`)."""

import dataclasses
import json

import pytest

from repro.api import (
    AggregateSpec,
    ChurnSpec,
    DatasetSpec,
    EstimationSpec,
    FederationSpec,
    MethodSpec,
    RegimeSpec,
    TargetSpec,
)


def dataset_target(**kwargs):
    return TargetSpec(dataset=DatasetSpec(name="iid", m=500, seed=3), **kwargs)


class TestModeResolution:
    def test_static(self):
        spec = EstimationSpec(target=dataset_target(), regime=RegimeSpec(rounds=5))
        assert spec.mode == "static"

    def test_budgeted_by_budget(self):
        spec = EstimationSpec(
            target=dataset_target(), regime=RegimeSpec(query_budget=100)
        )
        assert spec.mode == "budgeted"

    def test_budgeted_by_precision(self):
        spec = EstimationSpec(
            target=dataset_target(), regime=RegimeSpec(target_precision=0.1)
        )
        assert spec.mode == "budgeted"

    def test_tracking(self):
        spec = EstimationSpec(target=dataset_target(churn=ChurnSpec(epochs=3)))
        assert spec.mode == "tracking"

    def test_federated(self):
        spec = EstimationSpec(
            target=TargetSpec(federation=FederationSpec(sources=2)),
            regime=RegimeSpec(query_budget=400),
        )
        assert spec.mode == "federated"


class TestEagerValidation:
    def test_target_needs_exactly_one_of_dataset_federation(self):
        with pytest.raises(ValueError, match="exactly one"):
            TargetSpec()
        with pytest.raises(ValueError, match="exactly one"):
            TargetSpec(dataset=DatasetSpec(), federation=FederationSpec())

    def test_unknown_dataset_and_backend(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            DatasetSpec(name="postgres")
        # A target names no backend; a spec that does is refused like any
        # other unknown key.
        payload = EstimationSpec(target=dataset_target()).to_dict()
        payload["target"]["backend"] = "gpu"
        with pytest.raises(
            ValueError,
            match=r"unknown key\(s\) in spec section 'target': \['backend'\]",
        ):
            EstimationSpec.from_dict(payload)

    def test_churn_needs_dataset(self):
        with pytest.raises(ValueError, match="dataset targets only"):
            TargetSpec(
                federation=FederationSpec(sources=2), churn=ChurnSpec()
            )

    def test_aggregate_measure_rules(self):
        with pytest.raises(ValueError, match="needs a measure"):
            AggregateSpec(kind="sum")
        with pytest.raises(ValueError, match="takes no measure"):
            AggregateSpec(kind="size", measure="PRICE")
        with pytest.raises(ValueError, match="unknown aggregate"):
            AggregateSpec(kind="median")

    def test_precision_refuses_workers(self):
        with pytest.raises(ValueError, match="sequential"):
            RegimeSpec(target_precision=0.1, workers=2)

    def test_regime_bounds(self):
        with pytest.raises(ValueError):
            RegimeSpec(rounds=0)
        with pytest.raises(ValueError):
            RegimeSpec(query_budget=0)
        with pytest.raises(ValueError):
            RegimeSpec(workers=0)

    def test_federated_needs_budget(self):
        with pytest.raises(ValueError, match="query_budget"):
            EstimationSpec(
                target=TargetSpec(federation=FederationSpec(sources=2))
            )

    def test_federated_refuses_rounds_and_avg(self):
        fed = TargetSpec(federation=FederationSpec(sources=2))
        with pytest.raises(ValueError, match="budget-driven"):
            EstimationSpec(
                target=fed, regime=RegimeSpec(rounds=5, query_budget=400)
            )
        with pytest.raises(ValueError, match="AVG"):
            EstimationSpec(
                target=fed,
                aggregate=AggregateSpec(kind="avg", measure="PRICE"),
                regime=RegimeSpec(query_budget=400),
            )

    def test_federated_refuses_condition_and_walk_knobs(self):
        fed = TargetSpec(federation=FederationSpec(sources=2))
        with pytest.raises(ValueError, match="condition"):
            EstimationSpec(
                target=fed,
                aggregate=AggregateSpec(kind="count", condition={"A00": 1}),
                regime=RegimeSpec(query_budget=400),
            )
        # r/dub/weight_adjustment are per-source in a federation; a spec
        # setting them would be silently ignored, so it is refused.
        for knob in ({"r": 8}, {"dub": 64}, {"weight_adjustment": False}):
            with pytest.raises(ValueError, match="per-source"):
                EstimationSpec(
                    target=fed,
                    regime=RegimeSpec(query_budget=400),
                    method=MethodSpec(**knob),
                )

    def test_tracking_forwards_walk_knobs(self):
        from repro.api.compiler import tracker_kwargs

        spec = EstimationSpec(
            target=dataset_target(churn=ChurnSpec(epochs=2)),
            method=MethodSpec(r=3, dub=8, weight_adjustment=True),
        )
        _, build_kwargs = tracker_kwargs(spec)
        assert build_kwargs["r"] == 3
        assert build_kwargs["dub"] == 8
        assert build_kwargs["weight_adjustment"] is True
        # Unset knobs stay unset so track()'s plain-walk defaults apply.
        _, plain = tracker_kwargs(
            EstimationSpec(target=dataset_target(churn=ChurnSpec(epochs=2)))
        )
        assert "r" not in plain and "dub" not in plain

    def test_unknown_policies(self):
        with pytest.raises(ValueError, match="unknown allocation policy"):
            EstimationSpec(
                target=TargetSpec(federation=FederationSpec(sources=2)),
                regime=RegimeSpec(query_budget=400),
                method=MethodSpec(policy="magic"),
            )
        with pytest.raises(ValueError, match="unknown tracking policy"):
            EstimationSpec(
                target=dataset_target(churn=ChurnSpec(epochs=2)),
                method=MethodSpec(policy="magic"),
            )

    def test_tracking_refuses_global_budget(self):
        with pytest.raises(ValueError, match="per-epoch"):
            EstimationSpec(
                target=dataset_target(churn=ChurnSpec(epochs=2)),
                regime=RegimeSpec(query_budget=100),
            )

    def test_restart_refuses_reissue_knobs(self):
        with pytest.raises(ValueError, match="reissue"):
            EstimationSpec(
                target=dataset_target(churn=ChurnSpec(epochs=2)),
                method=MethodSpec(policy="restart", reissue_per_epoch=3),
            )

    def test_mode_specific_knobs_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="pilot_rounds"):
            EstimationSpec(
                target=dataset_target(), method=MethodSpec(pilot_rounds=3)
            )
        with pytest.raises(ValueError, match="tracking runs only"):
            EstimationSpec(
                target=dataset_target(), method=MethodSpec(reissue_per_epoch=3)
            )
        with pytest.raises(ValueError, match="no policy"):
            EstimationSpec(
                target=dataset_target(), method=MethodSpec(policy="reissue")
            )


class TestSerialization:
    def spec(self):
        return EstimationSpec(
            target=dataset_target(k=20, churn=ChurnSpec(epochs=3, rate=0.1)),
            aggregate=AggregateSpec(kind="count", condition={"A00": 1}),
            regime=RegimeSpec(rounds=8, seed=2, workers=2),
            method=MethodSpec(policy="reissue", reissue_per_epoch=3),
        )

    def test_round_trip_equality(self):
        spec = self.spec()
        assert EstimationSpec.from_json(spec.to_json()) == spec

    def test_round_trip_is_byte_identical(self):
        spec = self.spec()
        once = spec.to_json()
        assert EstimationSpec.from_json(once).to_json() == once

    def test_canonical_json_is_sorted_and_versioned(self):
        payload = json.loads(self.spec().to_json())
        assert payload["schema_version"] == 1
        assert list(payload) == sorted(payload)

    def test_condition_is_copied_not_aliased(self):
        condition = {"A00": 1}
        spec = EstimationSpec(
            target=dataset_target(),
            aggregate=AggregateSpec(kind="count", condition=condition),
        )
        condition["A01"] = 0
        assert spec.aggregate.condition == {"A00": 1}

    def test_from_dict_rejects_unknown_keys(self):
        payload = self.spec().to_dict()
        payload["extra"] = 1
        with pytest.raises(ValueError, match="unknown spec section"):
            EstimationSpec.from_dict(payload)
        payload = self.spec().to_dict()
        payload["regime"]["turbo"] = True
        with pytest.raises(ValueError, match="turbo"):
            EstimationSpec.from_dict(payload)

    def test_from_dict_rejects_retired_keys(self):
        """Specs written for 1.6 set three keys this version dropped."""
        payload = self.spec().to_dict()
        payload["method"].update(batch_probes=None, cohort=False)
        with pytest.raises(
            ValueError,
            match=r"section 'method': \['batch_probes', 'cohort'\]",
        ):
            EstimationSpec.from_dict(payload)
        payload = self.spec().to_dict()
        payload["target"]["backend"] = "scan"
        with pytest.raises(ValueError, match=r"section 'target': \['backend'\]"):
            EstimationSpec.from_dict(payload)

    def test_from_dict_rejects_wrong_version(self):
        payload = self.spec().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            EstimationSpec.from_dict(payload)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            EstimationSpec.from_json("{nope")
        with pytest.raises(ValueError, match="missing 'target'"):
            EstimationSpec.from_json("{}")

    def test_null_sections_are_clean(self):
        # An explicit null target is a clean error, not an AttributeError.
        with pytest.raises(ValueError, match="missing 'target'"):
            EstimationSpec.from_json('{"schema_version": 1, "target": null}')
        # Null optional sections fall back to their defaults.
        payload = self.spec().to_dict()
        payload["method"] = None
        payload["aggregate"] = None
        payload["regime"] = None
        payload["target"]["churn"] = None
        spec = EstimationSpec.from_dict(payload)
        assert spec == EstimationSpec(target=dataset_target(k=20))

    def test_with_seed_replaces_only_the_session_seed(self):
        spec = self.spec()
        reseeded = spec.with_seed(99)
        assert reseeded.regime.seed == 99
        assert reseeded.target == spec.target
        assert dataclasses.replace(
            reseeded, regime=dataclasses.replace(reseeded.regime, seed=2)
        ) == spec
