"""The dynamic-database subsystem: RS-style reissue tracking.

Acceptance criteria covered here:

* **Per-epoch unbiasedness** — over 200 seeded replications against a
  *fixed* churn stream, the mean `RSReissueEstimator` estimate falls
  within the 95% CI of the true post-churn size at every epoch.
* **Cost at matched variance** — the reissue policy's per-epoch query cost
  beats a restart baseline scaled to the same variance.
* **Worker-count invariance** — `track` output is bit-identical for any
  worker count (the per-epoch fan-out goes through ParallelSession).
"""

import numpy as np
import pytest

from repro.core.dynamic import (
    EpochEstimate,
    RestartEstimator,
    RSReissueEstimator,
    TrackResult,
    track,
)
from repro.datasets import ChurnGenerator, bool_iid, yahoo_auto
from repro.experiments.harness import collect_epoch_trajectories
from repro.hidden_db import ConjunctiveQuery, HiddenDBClient, TopKInterface


def make_client(table, k=32):
    return HiddenDBClient(TopKInterface(table, k))


class TestRSReissueMechanics:
    def test_first_step_runs_the_full_pool(self):
        table = bool_iid(m=200, n=10, seed=1)
        estimator = RSReissueEstimator(
            make_client(table), rounds=12, reissue_per_epoch=3, seed=5
        )
        first = estimator.step()
        assert first.epoch == 0 and first.reissued == 12
        assert first.drift == 0.0 and first.changed == 0
        second = estimator.step()
        assert second.epoch == 1 and second.reissued == 3
        assert second.cost < first.cost

    def test_no_churn_means_no_drift(self):
        table = bool_iid(m=200, n=10, seed=2)
        estimator = RSReissueEstimator(
            make_client(table), rounds=10, reissue_per_epoch=4, seed=9
        )
        initial = estimator.step()
        for _ in range(3):
            step = estimator.step()
            # A reissued walk against an unchanged database replays its
            # exact path: zero difference, zero detected changes.
            assert step.drift == 0.0
            assert step.changed == 0
            assert step.estimate == pytest.approx(initial.estimate)

    def test_churn_is_detected(self):
        table = bool_iid(m=300, n=10, seed=3)
        client = make_client(table)
        churn = ChurnGenerator(table, rate=0.3, seed=7)
        estimator = RSReissueEstimator(
            client, rounds=16, reissue_per_epoch=8, seed=11
        )
        estimator.step()
        churn.epoch()
        step = estimator.step()
        assert step.version == 1
        assert step.changed > 0  # heavy churn must flip some subtree

    def test_epoch_budget_shrinks_the_subset(self):
        table = bool_iid(m=300, n=10, seed=4)
        estimator = RSReissueEstimator(
            make_client(table), rounds=16, reissue_per_epoch=8,
            epoch_query_budget=1, seed=13,
        )
        estimator.step()
        step = estimator.step()
        assert step.reissued == 1  # budget affords a single replay

    def test_parameter_validation(self):
        table = bool_iid(m=100, n=8, seed=0)
        with pytest.raises(ValueError, match="rounds"):
            RSReissueEstimator(make_client(table), rounds=1)
        with pytest.raises(ValueError, match="reissue_per_epoch"):
            RSReissueEstimator(make_client(table), reissue_per_epoch=0)
        with pytest.raises(ValueError, match="exceed"):
            RSReissueEstimator(
                make_client(table), rounds=8, reissue_per_epoch=32
            )
        with pytest.raises(ValueError, match="count.*sum|sum.*count"):
            RSReissueEstimator(make_client(table), aggregate="avg")
        with pytest.raises(ValueError, match="workers"):
            RSReissueEstimator(make_client(table), workers=0)

    def test_sum_aggregate_tracks_measure(self):
        table = bool_iid(m=200, n=10, seed=6)
        result = track(
            table, epochs=3, churn=0.1, policy="reissue", k=32,
            rounds=12, reissue_per_epoch=4, aggregate="sum",
            measure="VALUE", seed=3, churn_seed=2,
        )
        for epoch in result.epochs:
            assert np.isfinite(epoch.estimate)
            assert epoch.truth > 0
        # Truths move with churn (measures of inserted/deleted tuples).
        assert len(set(result.truths)) > 1


class TestRestartBaseline:
    def test_every_epoch_is_a_fresh_session(self):
        table = bool_iid(m=200, n=10, seed=1)
        estimator = RestartEstimator(
            make_client(table), rounds_per_epoch=8, seed=5
        )
        a, b = estimator.step(), estimator.step()
        assert a.reissued == b.reissued == 8
        # Fresh seeds every epoch: on a static table the estimates are
        # different draws (while both stay unbiased).
        assert a.estimate != b.estimate


class TestTrack:
    def test_truths_follow_the_churned_table(self):
        table = bool_iid(m=300, n=10, seed=1)
        result = track(
            table, epochs=4, churn=0.2, policy="reissue", k=32,
            rounds=8, reissue_per_epoch=3, seed=2, churn_seed=3,
        )
        assert isinstance(result, TrackResult)
        assert [e.version for e in result.epochs] == [0, 1, 2, 3]
        assert result.truths[0] == 300.0
        assert len(set(result.truths)) > 1  # churn moved the truth
        assert result.epochs[-1].truth == float(table.num_tuples)

    def test_worker_count_invariance(self):
        results = []
        for workers in (1, 3):
            table = bool_iid(m=300, n=10, seed=1)
            results.append(
                track(
                    table, epochs=4, churn=0.1, policy="reissue", k=32,
                    rounds=12, reissue_per_epoch=4, seed=7, churn_seed=3,
                    workers=workers,
                )
            )
        a, b = results
        assert a.estimates == b.estimates
        assert a.costs == b.costs
        assert [e.changed for e in a.epochs] == [e.changed for e in b.epochs]

    def test_restart_policy_worker_invariance(self):
        results = []
        for workers in (1, 2):
            table = bool_iid(m=300, n=10, seed=1)
            results.append(
                track(
                    table, epochs=3, churn=0.1, policy="restart", k=32,
                    rounds=8, seed=7, churn_seed=3, workers=workers,
                )
            )
        assert results[0].estimates == results[1].estimates
        assert results[0].costs == results[1].costs

    def test_policies_share_the_same_ground_truth(self):
        truths = []
        for policy in ("reissue", "restart"):
            table = bool_iid(m=300, n=10, seed=1)
            extra = {"reissue_per_epoch": 3} if policy == "reissue" else {}
            result = track(
                table, epochs=4, churn=0.15, policy=policy, k=32,
                rounds=8, seed=2, churn_seed=9, **extra,
            )
            truths.append(result.truths)
        assert truths[0] == truths[1]  # churn_seed pins the evolution

    def test_restart_rejects_reissue_only_knobs(self):
        table = bool_iid(m=100, n=8, seed=0)
        with pytest.raises(ValueError, match="reissue"):
            track(table, epochs=2, policy="restart", reissue_per_epoch=3)
        with pytest.raises(ValueError, match="reissue"):
            track(table, epochs=2, policy="restart", epoch_query_budget=50)

    def test_to_dict_round_trips_the_trajectory(self):
        table = bool_iid(m=200, n=10, seed=1)
        result = track(
            table, epochs=2, churn=0.1, policy="reissue", k=32,
            rounds=6, reissue_per_epoch=2, seed=2, churn_seed=3,
        )
        payload = result.to_dict()
        assert payload["policy"] == "reissue"
        assert len(payload["epochs"]) == 2
        assert payload["total_cost"] == result.total_cost
        assert {"epoch", "version", "estimate", "truth", "cost",
                "reissued", "changed", "drift"} <= set(payload["epochs"][0])

    def test_unknown_policy_rejected(self):
        table = bool_iid(m=100, n=8, seed=0)
        with pytest.raises(ValueError, match="policy"):
            track(table, epochs=2, policy="magic")


class TestEpochTrajectories:
    def test_replications_share_truths_and_vary_estimates(self):
        runs = collect_epoch_trajectories(
            lambda: bool_iid(m=200, n=10, seed=11),
            replications=5, base_seed=50,
            epochs=3, churn=0.1, churn_seed=5,
            policy="reissue", k=32, rounds=8, reissue_per_epoch=3,
        )
        truths = runs[0].truths
        assert all(r.truths == truths for r in runs)
        assert len({tuple(r.estimates) for r in runs}) > 1

    def test_replication_fanout_matches_sequential(self):
        kwargs = dict(
            replications=4, base_seed=50, epochs=3, churn=0.1,
            churn_seed=5, policy="reissue", k=32, rounds=8,
            reissue_per_epoch=3,
        )
        sequential = collect_epoch_trajectories(
            lambda: bool_iid(m=200, n=10, seed=11), workers=1, **kwargs
        )
        parallel = collect_epoch_trajectories(
            lambda: bool_iid(m=200, n=10, seed=11), workers=3, **kwargs
        )
        assert [r.estimates for r in sequential] == [r.estimates for r in parallel]
        assert [r.costs for r in sequential] == [r.costs for r in parallel]


class TestAcceptance:
    """The ISSUE's quantitative acceptance criteria (scaled to CI time)."""

    REPLICATIONS = 200

    def test_per_epoch_unbiasedness_within_ci(self):
        """Mean estimate within the 95% CI of the post-churn truth, every epoch."""
        runs = collect_epoch_trajectories(
            lambda: bool_iid(m=256, n=10, seed=11),
            replications=self.REPLICATIONS, base_seed=100,
            epochs=4, churn=0.08, churn_seed=5,
            policy="reissue", k=32, rounds=24, reissue_per_epoch=6,
            workers=4,
        )
        truths = runs[0].truths
        assert all(r.truths == truths for r in runs), "churn must be pinned"
        for epoch in range(4):
            estimates = np.array([r.estimates[epoch] for r in runs])
            se = estimates.std(ddof=1) / np.sqrt(self.REPLICATIONS)
            deviation = abs(float(estimates.mean()) - truths[epoch])
            assert deviation <= 1.96 * se, (
                f"epoch {epoch}: |{estimates.mean():.2f} - {truths[epoch]}| "
                f"> 1.96 * {se:.2f}"
            )

    def test_reissue_beats_restart_at_matched_variance(self):
        """Reissue pays fewer queries per epoch than a variance-matched restart."""
        common = dict(
            replications=80, base_seed=300, epochs=4, churn=0.03,
            churn_seed=9, k=32, workers=4,
        )
        factory = lambda: bool_iid(m=256, n=10, seed=11)  # noqa: E731
        reissue = collect_epoch_trajectories(
            factory, policy="reissue", rounds=32, reissue_per_epoch=8,
            **common,
        )
        restart = collect_epoch_trajectories(
            factory, policy="restart", rounds=32, **common,
        )
        reissue_est = np.array([r.estimates for r in reissue])
        restart_est = np.array([r.estimates for r in restart])
        reissue_cost = np.array([r.costs for r in reissue], dtype=float)
        restart_cost = np.array([r.costs for r in restart], dtype=float)
        # Restart's per-round variance and cost, pooled over churned epochs.
        sigma2_round = float(restart_est[:, 1:].var(axis=0, ddof=1).mean()) * 32
        cost_per_round = float(restart_cost[:, 1:].mean()) / 32
        for epoch in range(1, 4):
            var_reissue = float(reissue_est[:, epoch].var(ddof=1))
            cost_reissue = float(reissue_cost[:, epoch].mean())
            # Rounds a restart session would need to match this variance.
            matched_rounds = sigma2_round / var_reissue
            matched_cost = matched_rounds * cost_per_round
            assert cost_reissue < matched_cost, (
                f"epoch {epoch}: reissue {cost_reissue:.0f} queries vs "
                f"variance-matched restart {matched_cost:.0f}"
            )
