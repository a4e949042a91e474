"""The concurrent estimation service: one pool, many specs, exact caching.

:class:`EstimationService` multiplexes :class:`~repro.api.spec.EstimationSpec`
submissions over a bounded :class:`~repro.service.scheduler.JobScheduler`,
memoises finished reports in a :class:`~repro.service.cache.ResultCache`
keyed by ``(target, canonical spec JSON, epoch version)``, and enforces
per-tenant query-budget ceilings through a
:class:`~repro.service.admission.TenantBudgets` lease ledger.

Determinism contract
--------------------
Every job is a self-contained seeded estimation, so a report returned by
the service is **byte-identical** to ``Estimation(spec).run()`` for the
same spec — whatever the pool size, submission order, or what else runs
concurrently.  Streamed jobs reuse the PR 4 session protocol, so their
snapshot *sequences* are equally invariant.

Caching contract
----------------
A cache entry binds the spec's canonical JSON to the target's epoch
version at execution time.  Repeat submissions are free (zero
hidden-database queries — the job completes without compiling an
estimator) and an :meth:`apply_updates` epoch bump invalidates exactly
the entries bound to the mutated table: the next submission recomputes
against the live epoch, and a stale estimate is never served (the client
layer's ``StaleResultError`` discipline, lifted to the service).
Streaming jobs bypass the cache — their value is the per-round snapshot
sequence, which a hit could not replay.

Static and budgeted dataset specs share one compiled table per distinct
dataset — compiled once, read concurrently (rounds never mutate it).
Tracking specs always run on a private copy (their churn epochs mutate
it), and generated federations are rebuilt per job from the spec's seed;
both remain cacheable because the spec fully determines the outcome.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.report import AggregateReport
from repro.api.session import Estimation
from repro.api.spec import DatasetSpec, EstimationSpec
from repro.hidden_db.table import HiddenTable
from repro.hidden_db.versioning import TableDelta
from repro.service.admission import TenantBudgets
from repro.service.cache import ResultCache
from repro.service.jobs import Job
from repro.service.scheduler import JobScheduler

__all__ = ["EstimationService"]

Cost = Union[int, float]


def _dataset_token(dataset: DatasetSpec) -> str:
    """Canonical token naming a generated dataset target."""
    return "dataset:" + json.dumps(
        dataclasses.asdict(dataset), sort_keys=True
    )


class EstimationService:
    """Concurrent front door: submit many specs, get exact reports.

    Parameters
    ----------
    workers:
        Jobs in flight at once (the scheduler's pool size).
    cache_size:
        Result-cache capacity (``None`` = unbounded, ``0`` disables
        caching entirely).
    tenant_budgets:
        Per-tenant query-budget ceilings in cost units (see
        :class:`~repro.service.admission.TenantBudgets`).
    default_tenant_budget:
        Ceiling for tenants not listed (``None`` = unlimited).
    cache:
        A pre-built :class:`ResultCache` to serve from (overrides
        *cache_size*) — the server layer injects a journal-warmed cache
        here so a restarted service replays its memo.
    """

    def __init__(
        self,
        workers: int = 2,
        cache_size: Optional[int] = 256,
        tenant_budgets: Optional[Mapping[str, Cost]] = None,
        default_tenant_budget: Optional[Cost] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.cache: Optional[ResultCache] = (
            cache if cache is not None
            else None if cache_size == 0
            else ResultCache(cache_size)
        )
        self.budgets = TenantBudgets(tenant_budgets, default_tenant_budget)
        self.scheduler = JobScheduler(self._run_job, workers=workers)
        self._lock = threading.Lock()
        #: token -> compiled shared table (dataset targets).
        self._tables: Dict[str, HiddenTable] = {}
        #: token -> single-flight lock: one compiled table per dataset.
        self._table_locks: Dict[str, threading.Lock] = {}
        #: id(injected target) -> stable anonymous token.  Entries are
        #: dropped when the target is garbage-collected (the finalizer
        #: guards against a recycled id aliasing a dead target's token).
        self._anon_tokens: Dict[int, str] = {}
        self._anon_counter = 0
        self._stale_uncached = 0

    # -- target resolution ------------------------------------------------

    def _anon_token(self, target: object) -> str:
        with self._lock:
            token = self._anon_tokens.get(id(target))
            if token is None:
                self._anon_counter += 1
                token = f"injected:{self._anon_counter}"
                self._anon_tokens[id(target)] = token
                # The finalizer must reference the dict, never the
                # service: a bound service method would keep the whole
                # service (cache, tables) alive as long as the target.
                weakref.finalize(
                    target, self._anon_tokens.pop, id(target), None
                )
            return token

    @staticmethod
    def _federation_version(federation) -> int:
        """Aggregate epoch of an injected federation's source tables.

        Each table's version is monotone and the source list is fixed,
        so the sum is monotone too — any source mutation moves it, which
        is what keys the cache entries of federated runs correctly.
        """
        return int(
            sum(int(source.table.version) for source in federation.sources)
        )

    def _resolve_target(self, job: Job):
        """(token, table-to-inject, version-at-start) for *job*.

        The token scopes cache invalidation; the injected table (shared,
        pre-compiled under the service lock) is what makes concurrent
        static jobs against one dataset race-free.
        """
        spec = job.spec
        if job.injected_federation is not None:
            return (
                self._anon_token(job.injected_federation),
                None,
                self._federation_version(job.injected_federation),
            )
        if job.injected_table is not None:
            table = job.injected_table
            return self._anon_token(table), table, int(table.version)
        if spec.target.federation is not None:
            # Generated fixture: rebuilt per job from the spec seed.
            return "federation", None, 0
        dataset = spec.target.dataset
        if dataset.name == "custom":
            raise ValueError(
                "dataset 'custom' carries no generator; submit with "
                "table=..."
            )
        if spec.target.churn is not None:
            # Tracking mutates its table: private copy per job, but the
            # outcome is a pure function of the spec, so still cacheable.
            return "tracking", None, 0
        token = _dataset_token(dataset)
        table = self._shared_table(token, spec)
        return token, table, int(table.version)

    def _shared_table(self, token: str, spec: EstimationSpec) -> HiddenTable:
        """The shared compiled table for a dataset target, built once."""
        from repro.api.compiler import build_table

        with self._lock:
            table = self._tables.get(token)
            if table is not None:
                return table
            token_lock = self._table_locks.setdefault(token, threading.Lock())
        # Single flight per dataset: concurrent first submissions serialize
        # on the token lock, so the dataset is generated exactly once.
        # Distinct datasets still compile in parallel, and the
        # service-wide lock is never held across a generator build.
        with token_lock:
            with self._lock:
                table = self._tables.get(token)
                if table is not None:
                    return table
            table = build_table(spec)
            with self._lock:
                self._tables[token] = table
                return table

    # -- submission --------------------------------------------------------

    def submit(
        self,
        spec: EstimationSpec,
        table: Optional[HiddenTable] = None,
        federation=None,
        tenant: str = "default",
        stream: bool = False,
    ) -> Job:
        """Admit one spec; returns the :class:`Job` future.

        Raises :class:`~repro.service.admission.AdmissionRefused`
        synchronously when *tenant* has spent its ceiling — refusals are
        a property of the submission order and the settled spend, never
        of worker scheduling.
        """
        if not isinstance(spec, EstimationSpec):
            raise TypeError(
                f"submit needs an EstimationSpec, got {type(spec).__name__}"
            )
        if spec.target.churn is not None and table is not None:
            # track() churns its table in place; an injected table would
            # be mutated under the caller (and any concurrent job sharing
            # it), and a resubmission would start from the churned state
            # — both determinism contracts broken.  Tracking runs on
            # private generated copies only.
            raise ValueError(
                "tracking (churn) specs run on a private table copy; the "
                "service cannot track an injected table"
            )
        job = Job(spec, tenant=tenant, stream=stream)
        job.injected_table = table
        job.injected_federation = federation
        job.lease = self.budgets.admit(tenant)
        try:
            return self.scheduler.submit(job)
        except BaseException:
            # A refused hand-off (e.g. the scheduler closed concurrently)
            # must not leave the lease open: it would stall the tenant's
            # in-order settlement pump forever.
            self.budgets.cancel(tenant, job.lease)
            raise

    def submit_many(
        self,
        specs: Sequence[EstimationSpec],
        tenant: str = "default",
        stream: bool = False,
    ) -> List[Job]:
        """Admit a batch (in order); returns one job per spec."""
        return [self.submit(spec, tenant=tenant, stream=stream) for spec in specs]

    def run_many(
        self,
        specs: Sequence[EstimationSpec],
        tenant: str = "default",
        timeout: Optional[float] = None,
    ) -> List[AggregateReport]:
        """Submit a batch and block for the reports, in submission order."""
        jobs = self.submit_many(specs, tenant=tenant)
        return [job.result(timeout) for job in jobs]

    # -- execution (scheduler runner) -------------------------------------

    def _run_job(self, job: Job) -> None:
        if not job._start():  # cancelled while queued
            self.budgets.cancel(job.tenant, job.lease)
            return
        try:
            token, shared_table, version = self._resolve_target(job)
            spec_json = job.spec.to_json()
            use_cache = self.cache is not None and not job.stream
            if use_cache:
                hit = self.cache.lookup(token, spec_json, version)
                if hit is not None:
                    # Free: no estimator is compiled, no query charged.
                    self.budgets.settle(job.tenant, job.lease, 0)
                    job._complete("done", report=hit, cached=True)
                    return
            estimation = Estimation(
                job.spec,
                table=shared_table,
                federation=job.injected_federation,
            )
            if job.stream:
                report = self._run_streaming(job, estimation)
                if report is None:  # cancelled mid-flight
                    return
            else:
                report = estimation.run()
            self.budgets.settle(job.tenant, job.lease, report.cost_units)
            if use_cache:
                if self._live_version(job, token, estimation) == version:
                    self.cache.store(token, spec_json, version, report)
                else:
                    # The target moved mid-run: the report reflects a
                    # crossed epoch and must never be served again.
                    with self._lock:
                        self._stale_uncached += 1
            job._complete("done", report=report)
        except BaseException as exc:  # noqa: BLE001 - job must terminate
            self.budgets.cancel(job.tenant, job.lease)
            job._complete("failed", error=exc)

    def _run_streaming(self, job: Job, estimation: Estimation):
        """Drive the PR 4 streaming session, fanning snapshots out."""
        stream = estimation.stream()
        cancelled = False
        for snapshot in stream:
            job._push_snapshot(snapshot)
            if job.cancel_requested:
                stream.cancel()  # settles the session's budget ledger
                cancelled = True
                break
        if cancelled:
            # The session really spent queries and the partial report is
            # delivered — settle the lease with the actual spend, or a
            # tenant could stream-and-cancel its way past any ceiling.
            spent = (
                stream.result.cost_units if stream.result is not None else 0
            )
            self.budgets.settle(job.tenant, job.lease, spent)
            job._complete("cancelled", report=stream.result)
            return None
        return stream.result

    def _live_version(self, job: Job, token: str, estimation: Estimation) -> int:
        """The target's epoch version after the run (0 for ephemerals)."""
        if job.injected_federation is not None:
            return self._federation_version(job.injected_federation)
        if job.injected_table is not None:
            return int(job.injected_table.version)
        if token.startswith("dataset:"):
            table = estimation.table
            return int(table.version) if table is not None else 0
        return 0

    # -- mutation / invalidation ------------------------------------------

    def apply_updates(
        self,
        dataset: Union[DatasetSpec, HiddenTable],
        inserts=None,
        deletes=None,
        modifications=None,
        insert_measures=None,
    ) -> Tuple[TableDelta, int]:
        """Mutate a served table and invalidate exactly its cache entries.

        *dataset* is either the :class:`DatasetSpec` of a shared generated
        table or an injected :class:`HiddenTable` previously submitted.
        Returns ``(delta, evicted)`` — the epoch's
        :class:`~repro.hidden_db.versioning.TableDelta` and how many cache
        entries the bump evicted.  Entries bound to other targets are
        untouched.  Apply updates between jobs: an in-flight job against
        the mutated target may surface the interface layer's
        ``StaleResultError`` (and its report is discarded from caching
        either way).
        """
        if isinstance(dataset, HiddenTable):
            token = self._anon_token(dataset)
            table = dataset
        else:
            token = _dataset_token(dataset)
            with self._lock:
                table = self._tables.get(token)
            if table is None:
                raise KeyError(
                    f"no served table for dataset {dataset!r}; submit a "
                    f"spec against it first"
                )
        delta = table.apply_updates(
            inserts=inserts,
            deletes=deletes,
            modifications=modifications,
            insert_measures=insert_measures,
        )
        evicted = self.invalidate(token)
        return delta, evicted

    def invalidate(self, target: Union[str, DatasetSpec, HiddenTable]) -> int:
        """Evict every cache entry bound to *target*; returns how many."""
        if self.cache is None:
            return 0
        if isinstance(target, HiddenTable):
            token = self._anon_token(target)
        elif isinstance(target, DatasetSpec):
            token = _dataset_token(target)
        else:
            token = target
        return self.cache.invalidate_target(token)

    # -- observability -----------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """One merged snapshot: scheduler, cache, tenants, targets.

        The ``counters`` block is strictly monotonic over the service's
        lifetime (jobs by terminal state, cache hits/misses served,
        admission refusals) — the server and the load bench read rates
        off successive snapshots without deriving them from job listings.
        """
        with self._lock:
            served_tables = len(self._tables)
            stale_uncached = self._stale_uncached
        jobs = self.scheduler.report()
        cache_report = self.cache.report() if self.cache is not None else None
        return {
            "jobs": jobs,
            "cache": cache_report,
            "tenants": self.budgets.report(),
            "served_tables": served_tables,
            "stale_uncached": stale_uncached,
            "counters": {
                "jobs_done": jobs["done"],
                "jobs_failed": jobs["failed"],
                "jobs_cancelled": jobs["cancelled"],
                "cache_hits": cache_report["hits"] if cache_report else 0,
                "cache_misses": cache_report["misses"] if cache_report else 0,
                "admission_refusals": self.budgets.total_refusals,
            },
        }

    # -- shutdown ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting submissions; optionally drain in-flight jobs."""
        self.scheduler.close(wait=wait)

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
