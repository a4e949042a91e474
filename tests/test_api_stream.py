"""Streaming sessions: worker-count invariance and clean cancellation.

The acceptance contract: ``Estimation.stream()`` yields the *same*
snapshot sequence at ``workers=1`` and ``workers=4`` (only speculative
discarded work differs), and cancelling mid-flight leaves the stream's
:class:`QueryBudget` ledger settled — no lease open, a final report with
``stop_reason == "cancelled"``.
"""

import json

import pytest

from repro.api import (
    AggregateSpec,
    ChurnSpec,
    DatasetSpec,
    Estimation,
    EstimationSpec,
    FederationSpec,
    MethodSpec,
    RegimeSpec,
    TargetSpec,
)


def strip_spec(report):
    """Snapshot payload minus the spec echo (which names the worker
    count and so legitimately differs between invariance runs)."""
    payload = report.to_dict()
    payload.pop("spec", None)
    return json.dumps(payload, sort_keys=True)


def budgeted_spec(workers):
    return EstimationSpec(
        target=TargetSpec(dataset=DatasetSpec(name="iid", m=500, seed=3), k=20),
        regime=RegimeSpec(query_budget=200, seed=3, workers=workers),
    )


class TestWorkerInvariance:
    def test_budgeted_snapshots_identical_at_1_and_4_workers(self):
        streams, sequences = [], []
        for workers in (1, 4):
            stream = Estimation(budgeted_spec(workers)).stream()
            sequences.append([strip_spec(s) for s in stream])
            streams.append(stream)
        assert sequences[0] == sequences[1]
        assert len(sequences[0]) >= 2
        assert strip_spec(streams[0].result) == strip_spec(streams[1].result)
        assert streams[0].result.stop_reason == "budget"
        assert streams[0].budget.outstanding == 0
        assert streams[1].budget.outstanding == 0

    def test_static_snapshots_identical_and_one_per_round(self):
        sequences = []
        for workers in (1, 4):
            spec = EstimationSpec(
                target=TargetSpec(
                    dataset=DatasetSpec(name="iid", m=500, seed=3), k=20
                ),
                regime=RegimeSpec(rounds=6, seed=3, workers=workers),
            )
            stream = Estimation(spec).stream()
            sequences.append([strip_spec(s) for s in stream])
            assert stream.result.stop_reason == "rounds"
            assert stream.result.rounds == 6
        assert sequences[0] == sequences[1]
        assert len(sequences[0]) == 6

    def test_final_snapshot_matches_run_on_the_engine_path(self):
        stream = Estimation(budgeted_spec(4)).stream()
        for _ in stream:
            pass
        report = Estimation(budgeted_spec(4)).run()
        assert strip_spec(stream.result) == strip_spec(report)


def cost_model_spec(
    dataset="iid", m=500, k=20, kind="size", measure=None, churn=None,
    federation=None, method=None, **regime,
):
    if federation is not None:
        target = TargetSpec(federation=federation, k=k)
    else:
        target = TargetSpec(
            dataset=DatasetSpec(name=dataset, m=m, seed=3), k=k, churn=churn
        )
    return EstimationSpec(
        target=target,
        aggregate=AggregateSpec(kind=kind, measure=measure),
        regime=RegimeSpec(**regime),
        method=method or MethodSpec(),
    )


PRICE = dict(dataset="yahoo", m=3000, k=50, measure="PRICE")

#: Specs whose stream runs the cost model their run() runs.
SAME_COST_MODEL = {
    "static_w2": cost_model_spec(rounds=6, seed=5, workers=2),
    "static_w3": cost_model_spec(rounds=5, seed=5, workers=3),
    "budgeted_w2": cost_model_spec(query_budget=300, seed=5, workers=2),
    "budgeted_w3": cost_model_spec(query_budget=300, seed=5, workers=3),
    "budgeted_capped_w3": cost_model_spec(
        query_budget=10_000, rounds=6, seed=4, workers=3
    ),
    "precision_size": cost_model_spec(target_precision=0.2, seed=5),
    "precision_size_budget": cost_model_spec(
        target_precision=0.01, query_budget=250, seed=5
    ),
    "precision_capped": cost_model_spec(
        target_precision=0.001, rounds=8, seed=5
    ),
    "precision_sum": cost_model_spec(
        kind="sum", target_precision=0.2, seed=2, **PRICE
    ),
    "precision_sum_budget": cost_model_spec(
        kind="sum", target_precision=0.01, query_budget=400, seed=2, **PRICE
    ),
    "avg_w2": cost_model_spec(
        kind="avg", query_budget=400, seed=2, workers=2, **PRICE
    ),
    "avg_precision": cost_model_spec(
        kind="avg", target_precision=0.1, seed=2, **PRICE
    ),
    "tracking_reissue": cost_model_spec(
        k=25, churn=ChurnSpec(epochs=3, rate=0.1), rounds=8, seed=2,
        method=MethodSpec(reissue_per_epoch=3),
    ),
    "tracking_restart": cost_model_spec(
        k=25, churn=ChurnSpec(epochs=3, rate=0.1), rounds=6, seed=2,
        workers=2, method=MethodSpec(policy="restart"),
    ),
    "federated": cost_model_spec(
        federation=FederationSpec(sources=2, base_m=250, seed=7), k=16,
        query_budget=400, seed=7,
        method=MethodSpec(policy="uniform", pilot_rounds=2),
    ),
}


class TestCostModels:
    """``stream()`` iterates the round loop ``run()`` drains, so its
    result is ``run()``'s report byte for byte — except for a static or
    budgeted spec at ``workers=1``, where ``run()`` shares one client
    across rounds while the stream, as at every worker count, gives each
    round a fresh one.
    """

    @pytest.mark.parametrize("name", sorted(SAME_COST_MODEL))
    def test_stream_result_is_the_run_report(self, name):
        spec = SAME_COST_MODEL[name]
        stream = Estimation(spec).stream()
        snapshots = list(stream)
        assert snapshots and not stream.result.partial
        assert stream.result.to_json() == Estimation(spec).run().to_json()

    @pytest.mark.parametrize("regime", [
        dict(rounds=6),
        dict(query_budget=300),
        dict(query_budget=10_000, rounds=6),
    ], ids=["static", "budgeted", "budgeted_capped"])
    def test_workers_1_stream_is_the_engine_cost_model(self, regime):
        sequential = cost_model_spec(seed=5, workers=1, **regime)
        engine = cost_model_spec(seed=5, workers=2, **regime)
        stream = Estimation(sequential).stream()
        list(stream)
        assert strip_spec(stream.result) == strip_spec(
            Estimation(engine).run()
        )
        # run() at workers=1 shares one client's cache across rounds, so
        # each of its rounds charges fewer queries than a fresh client's.
        shared = Estimation(sequential).run()
        assert (
            shared.total_queries / shared.rounds
            < stream.result.total_queries / stream.result.rounds
        )


class TestSnapshotShape:
    def test_snapshots_are_partial_then_final_is_concrete(self):
        stream = Estimation(budgeted_spec(2)).stream()
        snapshots = list(stream)
        assert all(s.partial for s in snapshots)
        assert all(s.stop_reason == "streaming" for s in snapshots)
        assert not stream.result.partial
        assert stream.result.stop_reason == "budget"
        # Rounds accumulate one at a time — the "progressive" contract.
        assert [s.rounds for s in snapshots] == list(
            range(1, len(snapshots) + 1)
        )


class TestCancellation:
    def test_cancel_settles_budget_and_finalizes(self):
        stream = Estimation(budgeted_spec(4)).stream()
        seen = 0
        for _ in stream:
            seen += 1
            if seen == 2:
                stream.cancel()
                break
        assert stream.cancelled
        assert stream.result.stop_reason == "cancelled"
        assert not stream.result.partial
        assert stream.result.rounds == 2
        ledger = stream.budget.ledger()
        assert stream.budget.outstanding == 0
        # Speculative waves were voided, not charged.
        assert ledger["rounds_settled"] == 2

    def test_context_manager_cancels_on_exit(self):
        with Estimation(budgeted_spec(4)).stream() as stream:
            next(stream)
        assert stream.cancelled
        assert stream.result.stop_reason == "cancelled"
        assert stream.budget.outstanding == 0

    def test_cancel_before_first_snapshot_runs_nothing(self):
        stream = Estimation(budgeted_spec(4)).stream()
        stream.cancel()  # generator never started: nothing ran
        assert stream.cancelled
        assert stream.result is None
        assert stream.budget is None  # no ledger was ever opened

    def test_cancel_after_natural_end_is_a_noop(self):
        stream = Estimation(budgeted_spec(2)).stream()
        list(stream)
        reason = stream.result.stop_reason
        stream.cancel()
        assert not stream.cancelled
        assert stream.result.stop_reason == reason


class TestPrecisionStream:
    def test_sequential_adaptive_stream(self):
        spec = EstimationSpec(
            target=TargetSpec(
                dataset=DatasetSpec(name="iid", m=500, seed=3), k=20
            ),
            regime=RegimeSpec(target_precision=0.25, seed=3),
        )
        stream = Estimation(spec).stream()
        snapshots = list(stream)
        assert stream.result.stop_reason == "precision"
        assert len(snapshots) == stream.result.rounds
        assert stream.result.relative_halfwidth <= 0.25 * 1.0001


class TestTrackingStream:
    def spec(self):
        return EstimationSpec(
            target=TargetSpec(
                dataset=DatasetSpec(name="iid", m=500, seed=3), k=25,
                churn=ChurnSpec(epochs=3, rate=0.1),
            ),
            regime=RegimeSpec(rounds=8, seed=2),
            method=MethodSpec(reissue_per_epoch=3),
        )

    def test_one_snapshot_per_epoch_and_final_matches_run(self):
        stream = Estimation(self.spec()).stream()
        snapshots = list(stream)
        assert len(snapshots) == 3
        assert [len(s.per_epoch) for s in snapshots] == [1, 2, 3]
        report = Estimation(self.spec()).run()
        assert stream.result.per_epoch == report.per_epoch
        assert stream.result.stop_reason == "epochs"

    def test_cancel_between_epochs(self):
        stream = Estimation(self.spec()).stream()
        next(stream)
        stream.cancel()
        assert stream.result.stop_reason == "cancelled"
        assert len(stream.result.per_epoch) == 1


class TestFederatedStream:
    def spec(self):
        return EstimationSpec(
            target=TargetSpec(
                federation=FederationSpec(sources=2, base_m=250, seed=7),
                k=16,
            ),
            regime=RegimeSpec(query_budget=400, seed=7),
            method=MethodSpec(policy="uniform", pilot_rounds=2),
        )

    def test_phase_snapshots_and_final_matches_run(self):
        stream = Estimation(self.spec()).stream()
        snapshots = list(stream)
        # allocation snapshot + one per source
        assert len(snapshots) == 3
        assert snapshots[0].per_source is None  # pilots only so far
        assert len(snapshots[2].per_source) == 2
        report = Estimation(self.spec()).run()
        assert stream.result.to_json() == report.to_json()

    def test_cancel_mid_schedule_leaves_ledger_settled(self):
        stream = Estimation(self.spec()).stream()
        next(stream)  # allocations computed, no main phase yet
        stream.cancel()
        assert stream.result.stop_reason == "cancelled"
        assert stream.budget is not None
        assert stream.budget.outstanding == 0

    def test_worker_invariance(self):
        import dataclasses

        sequences = []
        for workers in (1, 3):
            spec = self.spec()
            spec = dataclasses.replace(
                spec, regime=dataclasses.replace(spec.regime, workers=workers)
            )
            stream = Estimation(spec).stream()
            sequences.append([strip_spec(s) for s in stream])
        assert sequences[0] == sequences[1]


class TestStreamErrors:
    def test_budget_too_small_raises_on_first_next(self):
        spec = EstimationSpec(
            target=TargetSpec(
                federation=FederationSpec(sources=3, base_m=250, seed=7),
                k=16,
            ),
            regime=RegimeSpec(query_budget=5, seed=7),
            method=MethodSpec(policy="uniform", pilot_rounds=2),
        )
        stream = Estimation(spec).stream()
        with pytest.raises(ValueError, match="pilot"):
            next(stream)
