"""Unit tests for the service layer: jobs, scheduler, cache, admission."""

import threading

import pytest

from repro.api import DatasetSpec, Estimation, EstimationSpec, RegimeSpec, TargetSpec
from repro.api.report import AggregateReport
from repro.core.budget import QueryBudget
from repro.service import (
    AdmissionRefused,
    EstimationService,
    Job,
    JobCancelled,
    JobScheduler,
    ResultCache,
    TenantBudgets,
)


def make_spec(seed=0, rounds=4, m=400, k=24, dataset_seed=3, **regime):
    return EstimationSpec(
        target=TargetSpec(
            dataset=DatasetSpec(name="iid", m=m, seed=dataset_seed), k=k
        ),
        regime=RegimeSpec(rounds=rounds, seed=seed, **regime),
    )


def make_report(estimate=1.0):
    return AggregateReport(
        mode="static", estimate=estimate, std_error=0.1, ci95=(0.8, 1.2),
        rounds=4, total_queries=10, cost_units=10.0, stop_reason="rounds",
    )


class TestJob:
    def test_lifecycle_and_result(self):
        job = Job(make_spec())
        assert job.state == "queued" and not job.done
        assert job._start()
        assert job.state == "running"
        report = make_report()
        job._complete("done", report=report)
        assert job.done
        assert job.result(timeout=1) is report

    def test_result_timeout(self):
        job = Job(make_spec())
        with pytest.raises(TimeoutError):
            job.result(timeout=0.01)

    def test_queued_cancellation(self):
        job = Job(make_spec())
        assert job.cancel()
        assert job.state == "cancelled"
        assert not job._start()  # the runner must skip it
        with pytest.raises(JobCancelled):
            job.result(timeout=1)

    def test_failed_job_reraises(self):
        job = Job(make_spec())
        job._start()
        boom = ValueError("boom")
        job._complete("failed", error=boom)
        with pytest.raises(ValueError, match="boom"):
            job.result(timeout=1)

    def test_snapshot_fanout_replays_full_log(self):
        job = Job(make_spec(), stream=True)
        job._start()
        early = [make_report(i) for i in range(3)]
        for snapshot in early:
            job._push_snapshot(snapshot)
        job._complete("done", report=early[-1])
        # A subscriber arriving after completion still sees everything.
        assert [s.estimate for s in job.snapshots()] == [0.0, 1.0, 2.0]
        assert [s.estimate for s in job.snapshot_log] == [0.0, 1.0, 2.0]


class TestJobScheduler:
    def test_runs_jobs_and_counts_lifecycle(self):
        done = []

        def runner(job):
            job._start()
            job._complete("done", report=make_report(job.id))
            done.append(job.id)

        with JobScheduler(runner, workers=2) as scheduler:
            jobs = [scheduler.submit(Job(make_spec(seed=i))) for i in range(5)]
            for job in jobs:
                job.result(timeout=5)
        assert sorted(done) == sorted(j.id for j in jobs)
        report = scheduler.report()
        assert report["submitted"] == 5 and report["done"] == 5

    def test_runner_exception_fails_the_job(self):
        def runner(job):
            job._start()
            raise RuntimeError("runner bug")

        with JobScheduler(runner, workers=1) as scheduler:
            job = scheduler.submit(Job(make_spec()))
            with pytest.raises(RuntimeError, match="runner bug"):
                job.result(timeout=5)
        assert scheduler.report()["failed"] == 1

    def test_forgetful_runner_fails_the_job(self):
        with JobScheduler(lambda job: job._start(), workers=1) as scheduler:
            job = scheduler.submit(Job(make_spec()))
            with pytest.raises(RuntimeError, match="without finishing"):
                job.result(timeout=5)

    def test_closed_scheduler_refuses(self):
        scheduler = JobScheduler(lambda job: None, workers=1)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(Job(make_spec()))

    def test_bounded_concurrency(self):
        gate = threading.Event()
        running = []

        def runner(job):
            job._start()
            running.append(job.id)
            gate.wait(5)
            job._complete("done", report=make_report())

        scheduler = JobScheduler(runner, workers=2)
        jobs = [scheduler.submit(Job(make_spec(seed=i))) for i in range(4)]
        for _ in range(100):
            if len(running) == 2:
                break
            threading.Event().wait(0.01)
        assert len(running) == 2  # pool bound holds; two stay queued
        gate.set()
        for job in jobs:
            job.result(timeout=5)
        scheduler.close()


class TestResultCache:
    def test_hit_requires_matching_version(self):
        cache = ResultCache(max_entries=4)
        cache.store("t", "spec", 0, make_report(42.0))
        hit = cache.lookup("t", "spec", 0)
        assert hit is not None and hit.estimate == 42.0
        assert cache.lookup("t", "spec", 1) is None  # stale: evicted
        assert cache.lookup("t", "spec", 0) is None  # really gone
        report = cache.report()
        assert report["hits"] == 1
        assert report["stale_evictions"] == 1
        assert report["entries"] == 0

    def test_hits_are_fresh_parses(self):
        cache = ResultCache()
        original = make_report(7.0)
        cache.store("t", "spec", 0, original)
        hit = cache.lookup("t", "spec", 0)
        assert hit is not original
        assert hit.to_json() == original.to_json()

    def test_lru_capacity_eviction(self):
        cache = ResultCache(max_entries=2)
        cache.store("t", "a", 0, make_report(1))
        cache.store("t", "b", 0, make_report(2))
        assert cache.lookup("t", "a", 0) is not None  # refresh "a"
        cache.store("t", "c", 0, make_report(3))  # evicts LRU "b"
        assert cache.lookup("t", "b", 0) is None
        assert cache.lookup("t", "a", 0) is not None
        assert cache.report()["evictions"] == 1

    def test_invalidate_target_scopes_to_token(self):
        cache = ResultCache()
        cache.store("alpha", "s1", 0, make_report(1))
        cache.store("alpha", "s2", 0, make_report(2))
        cache.store("beta", "s1", 0, make_report(3))
        assert cache.invalidate_target("alpha") == 2
        assert cache.lookup("beta", "s1", 0) is not None
        assert cache.report()["stale_evictions"] == 2

    def test_restore_overwrites_in_place(self):
        cache = ResultCache(max_entries=2)
        cache.store("t", "a", 0, make_report(1))
        cache.store("t", "a", 1, make_report(2))
        assert len(cache) == 1
        assert cache.lookup("t", "a", 1).estimate == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestTenantBudgets:
    def test_refuses_once_ceiling_spent(self):
        budgets = TenantBudgets({"acme": 100})
        lease = budgets.admit("acme")
        budgets.settle("acme", lease, 120)  # jobs are atomic: overshoot ok
        with pytest.raises(AdmissionRefused, match="acme"):
            budgets.admit("acme")
        ledger = budgets.ledger("acme")
        assert ledger["spent"] == 120 and ledger["overshoot"] == 20

    def test_out_of_order_completion_settles_in_issuance_order(self):
        budgets = TenantBudgets({"t": 1_000})
        first, second, third = (budgets.admit("t") for _ in range(3))
        budgets.settle("t", third, 30)   # finishes first, settles last
        assert budgets.ledger("t")["spent"] == 0  # deferred
        budgets.settle("t", first, 10)
        assert budgets.ledger("t")["spent"] == 10  # third still waits
        budgets.settle("t", second, 20)
        assert budgets.ledger("t")["spent"] == 60  # pump drained the buffer
        assert budgets.ledger("t")["rounds_settled"] == 3

    def test_cancel_unblocks_the_pump(self):
        budgets = TenantBudgets({"t": 1_000})
        first, second = budgets.admit("t"), budgets.admit("t")
        budgets.settle("t", second, 20)
        budgets.cancel("t", first)  # failed job: no charge, pump advances
        ledger = budgets.ledger("t")
        assert ledger["spent"] == 20 and ledger["cancelled"] == 1

    def test_cancel_keeps_a_recorded_deferred_charge(self):
        # Lease 2's cost is recorded but deferred behind the still-open
        # lease 1; a late cancel (post-settle failure path) must not void
        # the real spend — the charge stands and settles in order.
        budgets = TenantBudgets({"t": 1_000})
        first, second = budgets.admit("t"), budgets.admit("t")
        budgets.settle("t", second, 60)  # deferred: first still open
        budgets.cancel("t", second)  # no-op — the recorded charge stands
        budgets.settle("t", first, 10)
        ledger = budgets.ledger("t")
        assert ledger["spent"] == 70
        assert ledger["rounds_settled"] == 2 and ledger["cancelled"] == 0

    def test_unlimited_default_tracks_spend(self):
        budgets = TenantBudgets()
        lease = budgets.admit("anyone")
        budgets.settle("anyone", lease, 55)
        ledger = budgets.ledger("anyone")
        assert ledger["total"] is None and ledger["spent"] == 55

    def test_default_ceiling_applies_to_unlisted_tenants(self):
        budgets = TenantBudgets({"vip": 10_000}, default_ceiling=50)
        lease = budgets.admit("walkin")
        budgets.settle("walkin", lease, 60)
        with pytest.raises(AdmissionRefused):
            budgets.admit("walkin")
        budgets.admit("vip")  # unaffected
        assert set(budgets.report()) == {"vip", "walkin"}


class TestEstimationService:
    def test_report_matches_sequential_facade(self):
        spec = make_spec(seed=5)
        expected = Estimation(spec).run().to_json()
        with EstimationService(workers=2) as service:
            assert service.submit(spec).result(60).to_json() == expected

    def test_cached_resubmission_is_free(self, monkeypatch):
        spec = make_spec(seed=6)
        with EstimationService(workers=1) as service:
            first = service.submit(spec).result(60)
            # From here on, any hidden-database query is an error.
            from repro.hidden_db.interface import TopKInterface

            def forbidden(self, q, count_only=False):
                raise AssertionError("cache hit must not query the database")

            monkeypatch.setattr(TopKInterface, "query", forbidden)
            job = service.submit(spec)
            again = job.result(60)
            assert job.cached
            assert again.to_json() == first.to_json()
            cache = service.metrics()["cache"]
            assert cache["hits"] == 1 and cache["misses"] == 1

    def test_streaming_job_fans_out_and_skips_cache(self):
        spec = make_spec(seed=7, rounds=5)
        with EstimationService(workers=1) as service:
            job = service.submit(spec, stream=True)
            snapshots = list(job.snapshots())
            final = job.result(60)
            assert len(snapshots) == 5
            assert all(s.partial for s in snapshots)
            assert not final.partial
            assert service.metrics()["cache"]["entries"] == 0

    def test_tenant_ceiling_refuses_after_spend(self):
        with EstimationService(
            workers=1, tenant_budgets={"acme": 1}
        ) as service:
            service.submit(make_spec(seed=1), tenant="acme").result(60)
            with pytest.raises(AdmissionRefused):
                for seed in range(20):
                    service.submit(
                        make_spec(seed=10 + seed), tenant="acme"
                    ).result(60)

    def test_failed_job_reraises_and_cancels_lease(self):
        spec = EstimationSpec(
            target=TargetSpec(dataset=DatasetSpec(name="custom"), k=8),
            regime=RegimeSpec(rounds=2, seed=0),
        )
        with EstimationService(workers=1) as service:
            job = service.submit(spec)  # custom dataset without a table
            with pytest.raises(ValueError, match="custom"):
                job.result(60)
            ledger = service.budgets.ledger("default")
            assert ledger["cancelled"] == 1 and ledger["spent"] == 0

    def test_injected_table_reports_and_caches(self, small_iid_table):
        spec = EstimationSpec(
            target=TargetSpec(dataset=DatasetSpec(name="custom"), k=24),
            regime=RegimeSpec(rounds=3, seed=2),
        )
        expected = Estimation(spec, table=small_iid_table).run().to_json()
        with EstimationService(workers=1) as service:
            job = service.submit(spec, table=small_iid_table)
            assert job.result(60).to_json() == expected
            repeat = service.submit(spec, table=small_iid_table)
            assert repeat.result(60).to_json() == expected
            assert repeat.cached

    def test_non_spec_submission_rejected(self):
        with EstimationService(workers=1) as service:
            with pytest.raises(TypeError, match="EstimationSpec"):
                service.submit({"target": {}})

    def test_run_many_orders_reports(self):
        specs = [make_spec(seed=s) for s in range(4)]
        expected = [Estimation(s).run().to_json() for s in specs]
        with EstimationService(workers=4) as service:
            got = [r.to_json() for r in service.run_many(specs)]
        assert got == expected

    def test_metrics_shape(self):
        with EstimationService(workers=1) as service:
            service.submit(make_spec(seed=3)).result(60)
            metrics = service.metrics()
        assert metrics["jobs"]["done"] == 1
        assert metrics["served_tables"] == 1
        assert "default" in metrics["tenants"]


class TestServiceHygiene:
    def test_concurrent_first_compiles_share_one_table(self):
        # Racing first compiles of the same dataset (here with different
        # page sizes) must produce ONE table: an epoch bump has to reach
        # every job's view, or a stale estimate gets cached.
        import threading

        with EstimationService(workers=2) as service:
            barrier = threading.Barrier(2)
            tables = {}

            def compile_for(k):
                spec = EstimationSpec(
                    target=TargetSpec(
                        dataset=DatasetSpec(name="iid", m=400, seed=3), k=k
                    ),
                    regime=RegimeSpec(rounds=2, seed=0),
                )
                barrier.wait(5)
                job = Job(spec)
                token, table, version = service._resolve_target(job)
                tables[k] = table

            threads = [
                threading.Thread(target=compile_for, args=(k,))
                for k in (24, 48)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
            assert tables[24] is tables[48]
            assert tables[24].version == 0
            service.apply_updates(
                DatasetSpec(name="iid", m=400, seed=3), deletes=[0, 1]
            )
            assert tables[24].version == 1
            assert service.metrics()["served_tables"] == 1

    def test_submit_after_close_cancels_the_lease(self):
        service = EstimationService(workers=1, tenant_budgets={"t": 100})
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(make_spec(), tenant="t")
        ledger = service.budgets.ledger("t")
        # The refused hand-off voided its lease: the settlement pump is
        # not stalled and the tenant is not charged.
        assert ledger["cancelled"] == 1 and ledger["spent"] == 0

    def test_failure_after_settlement_keeps_the_original_error(
        self, monkeypatch
    ):
        # An exception raised after the tenant lease settled (e.g. in the
        # cache store) must surface itself — not a bookkeeping error
        # about cancelling an already-settled lease.
        with EstimationService(workers=1) as service:
            def boom(*args, **kwargs):
                raise RuntimeError("store boom")

            monkeypatch.setattr(service.cache, "store", boom)
            job = service.submit(make_spec(seed=11))
            with pytest.raises(RuntimeError, match="store boom"):
                job.result(60)

    def test_tracker_close_releases_the_engine_pool(self):
        from repro.core.dynamic import build_tracker
        from repro.datasets import bool_iid

        estimator, churn_gen, table = build_tracker(
            bool_iid(m=128, n=9, seed=1),
            churn=0.05, policy="reissue", k=16, rounds=6, workers=2,
            seed=3, churn_seed=0,
        )
        estimator.step()
        session = estimator._engine_session
        assert session is not None and session._pool is not None
        estimator.close()
        assert estimator._engine_session is None
        assert session._pool is None

    def test_terminal_jobs_are_released_but_still_counted(self):
        with EstimationService(workers=1) as service:
            jobs = [service.submit(make_spec(seed=s)) for s in range(3)]
            for job in jobs:
                job.result(60)
            report = service.scheduler.report()
            assert report["submitted"] == 3 and report["done"] == 3
            # The registry holds in-flight jobs only — history is counters.
            assert service.scheduler.job(jobs[0].id) is None
            assert len(service.scheduler._jobs) == 0

    def test_injected_table_with_churn_refused(self, small_iid_table):
        from repro.api import ChurnSpec

        spec = EstimationSpec(
            target=TargetSpec(
                dataset=DatasetSpec(name="custom"),
                k=24,
                churn=ChurnSpec(epochs=2, rate=0.05),
            ),
            regime=RegimeSpec(rounds=4, seed=1),
        )
        with EstimationService(workers=1) as service:
            with pytest.raises(ValueError, match="private table copy"):
                service.submit(spec, table=small_iid_table)

    def test_cancelled_stream_settles_its_real_spend(self, monkeypatch):
        # Cancellation is cooperative at a snapshot boundary, so without a
        # gate the worker may finish all six rounds before the consumer's
        # cancel lands.  Hold the producer just after it records the second
        # snapshot (outside the job lock, so snapshots() still advances)
        # until the consumer has asked to cancel.
        cancel_sent = threading.Event()
        original_push = Job._push_snapshot

        def gated_push(job, snapshot):
            original_push(job, snapshot)
            if len(job.snapshot_log) == 2:
                cancel_sent.wait(60)

        monkeypatch.setattr(Job, "_push_snapshot", gated_push)
        with EstimationService(
            workers=1, tenant_budgets={"t": 10_000}
        ) as service:
            job = service.submit(make_spec(seed=4, rounds=6),
                                 tenant="t", stream=True)
            for i, _snapshot in enumerate(job.snapshots()):
                if i == 1:
                    job.cancel()
                    cancel_sent.set()
            job.wait(60)
            assert job.state == "cancelled"
            assert job.report is not None  # partial result delivered
            # The cancel landed at the boundary it was requested at.
            assert len(job.snapshot_log) == 2
            assert job.report.stop_reason == "cancelled"
            assert job.report.rounds == 2
            ledger = service.budgets.ledger("t")
            # The queries the stream issued are charged, not voided.
            assert ledger["spent"] == job.report.cost_units > 0
            assert ledger["cancelled"] == 0

    def test_injected_targets_do_not_pin_the_service(self, small_iid_table):
        import gc
        import weakref

        spec = EstimationSpec(
            target=TargetSpec(dataset=DatasetSpec(name="custom"), k=24),
            regime=RegimeSpec(rounds=2, seed=1),
        )
        service = EstimationService(workers=1)
        service.submit(spec, table=small_iid_table).result(60)
        service.close()
        ref = weakref.ref(service)
        del service
        gc.collect()
        # The session-scoped table outlives the service; its anon-token
        # finalizer must not keep the service (and its cache) alive.
        assert ref() is None


class TestSubmitManyFacade:
    def test_matches_sequential_runs(self):
        specs = [make_spec(seed=s) for s in range(3)]
        expected = [Estimation(s).run().to_json() for s in specs]
        reports = Estimation.submit_many(specs, workers=3)
        assert [r.to_json() for r in reports] == expected

    def test_duplicate_specs_share_cache(self):
        spec = make_spec(seed=9)
        reports = Estimation.submit_many([spec, spec], workers=1)
        assert reports[0].to_json() == reports[1].to_json()


class TestBudgetNextSettleIndex:
    def test_tracks_the_settlement_cursor(self):
        budget = QueryBudget(100)
        assert budget.next_settle_index is None
        first, second = budget.lease(), budget.lease()
        assert budget.next_settle_index == 0
        budget.settle(first, 10)
        assert budget.next_settle_index == 1
        budget.cancel(second)
        assert budget.next_settle_index is None
