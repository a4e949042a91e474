"""The transport-independent op-dispatch table.

Every transport the estimation server speaks — the stdio loop behind
``hiddendb-repro serve``, the asyncio TCP listener, the HTTP/1.1 adapter
— parses its own framing and then hands one decoded request payload to
:meth:`ServiceProtocol.dispatch`.  The protocol owns everything that must
not differ between transports: op validation, spec parsing, the job
registry that ``result`` / ``cancel`` address, journaling, and the shape
of every response fragment.  A transport only decides *when* a response
is written (the stdio loop defers until the job resolves to keep its
strict input-order contract; the TCP server acks immediately and pushes
completion events).

The op table
------------

======== ==================================================================
op       request payload
======== ==================================================================
submit   ``{"op": "submit", "spec": {...}, "id"?, "tenant"?, "stream"?,``
         ``"wait"?}`` — or a bare :class:`EstimationSpec` object (the
         original stdio shorthand).  Admits one job.
result   ``{"op": "result", "job": N}`` — the terminal response of job
         *N*: waits if in flight, replays the journal for jobs from a
         previous server life.
cancel   ``{"op": "cancel", "job": N}`` — request cancellation (queued
         jobs die immediately; streaming jobs at the next snapshot).
cache    ``{"op": "cache"}`` — result-cache statistics.
metrics  ``{"op": "metrics"}`` — the service's merged metrics snapshot
         (transports may graft their own block on top).
update   ``{"op": "update", "dataset": {...}, "inserts"?, "deletes"?,``
         ``"modifications"?}`` — mutate a served table, invalidating
         exactly its cache entries.
======== ==================================================================

Anything else — a non-object payload, an unknown op, a missing required
field — raises :class:`OpError`, which every transport turns into a
structured ``{"status": "error", "error": ...}`` response (never a dead
connection, never a traceback).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.api.spec import DatasetSpec, EstimationSpec, _section_from_dict
from repro.service.core import EstimationService
from repro.service.jobs import Job, reserve_job_ids

__all__ = ["OPS", "OpError", "OpOutcome", "ServiceProtocol", "job_payload"]

#: The ops every transport understands (the protocol's public surface).
OPS = ("submit", "result", "cancel", "cache", "metrics", "update")


class OpError(ValueError):
    """A request the protocol refuses (malformed payload, unknown op)."""


@dataclass
class OpOutcome:
    """What one dispatched op asks its transport to do.

    ``response`` is the immediate payload fragment.  When ``job`` is set
    the op's *final* response is ``{**response, **job_payload(job)}``,
    produced once the job is terminal — the transport chooses whether to
    block for it (stdio, ``wait: true``) or to ack now and push a
    completion event later (TCP).  ``stream`` asks the transport to fan
    the job's snapshot sequence out before the final response; ``barrier``
    marks synchronous ops that must observe service state only after
    every earlier request resolved (the stdio ordering contract).
    """

    response: Dict[str, Any] = field(default_factory=dict)
    job: Optional[Job] = None
    stream: bool = False
    barrier: bool = False


def job_payload(job: Job) -> Dict[str, Any]:
    """The terminal response fragment for *job* (must be terminal).

    ``done`` carries the report (and whether the cache served it),
    ``cancelled`` the partial report when one exists, ``failed`` maps to
    ``status: error`` with the stringified cause.
    """
    if job.state == "done":
        return {
            "status": "done",
            "state": "done",
            "cached": job.cached,
            "report": job.report.to_dict(),
        }
    if job.state == "cancelled":
        return {
            "status": "cancelled",
            "state": "cancelled",
            "report": job.report.to_dict() if job.report is not None else None,
        }
    return {
        "status": "error",
        "state": "failed",
        "error": str(job.error),
    }


class ServiceProtocol:
    """One op-dispatch table over one :class:`EstimationService`.

    Tracks every job admitted through any transport (so ``result`` and
    ``cancel`` address jobs across connections), remembers a bounded
    window of terminal responses for re-reporting, and — when a
    :class:`~repro.server.journal.Journal` is attached — appends each
    submission and terminal transition so a restarted server can replay.

    Parameters
    ----------
    service:
        The backing estimation service.
    journal:
        Optional append-only journal (durability).
    default_tenant:
        Tenant charged when a request names none.
    terminal_window:
        How many terminal job responses to keep addressable in memory
        (the journal re-reports older ones after a restart).
    """

    def __init__(
        self,
        service: EstimationService,
        journal=None,
        default_tenant: str = "default",
        terminal_window: int = 1024,
    ) -> None:
        self.service = service
        self.journal = journal
        self.default_tenant = default_tenant
        self.terminal_window = terminal_window
        self._lock = threading.Lock()
        #: In-flight jobs admitted through this protocol.
        self._jobs: Dict[int, Job] = {}
        #: Terminal response fragments, oldest first (bounded window).
        self._terminal: "OrderedDict[int, Dict[str, Any]]" = OrderedDict()
        #: Jobs lost to a restart -> why (their ``result`` error text).
        self._orphaned: Dict[int, str] = {}
        #: Journaled job id -> the re-admitted job's live id.
        self._aliases: Dict[int, int] = {}
        if journal is not None and service.cache is not None:
            service.cache.store_listener = journal.record_cache

    # -- observation ------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Jobs admitted through this protocol not yet terminal (the
        server's backpressure signal: queued + running)."""
        with self._lock:
            return len(self._jobs)

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, payload: Any, request_id: Any) -> OpOutcome:
        """Route one decoded request; raises :class:`OpError` on refusal.

        :class:`~repro.service.admission.AdmissionRefused` propagates so
        transports can answer it distinctly (the TCP server's structured
        ``admission_refused`` response)."""
        if not isinstance(payload, Mapping):
            raise OpError("request must be a JSON object")
        op = payload.get("op")
        if op is None or op == "submit":
            return self._op_submit(payload, request_id, bare=op is None)
        if op == "result":
            return self._op_result(payload, request_id)
        if op == "cancel":
            return self._op_cancel(payload, request_id)
        if op == "cache":
            cache = self.service.cache
            report = cache.report() if cache is not None else None
            return OpOutcome(
                response={"id": request_id, "status": "ok", "cache": report},
                barrier=True,
            )
        if op == "metrics":
            return OpOutcome(
                response={
                    "id": request_id,
                    "status": "ok",
                    "metrics": self.service.metrics(),
                },
                barrier=True,
            )
        if op == "update":
            return self._op_update(payload, request_id)
        raise OpError(f"unknown request op {op!r}")

    # -- ops --------------------------------------------------------------

    def _op_submit(
        self, payload: Mapping, request_id: Any, bare: bool
    ) -> OpOutcome:
        if bare:
            body: Any = payload
            tenant = self.default_tenant
            stream = False
        else:
            if "spec" not in payload:
                raise OpError("submit request carries no 'spec'")
            body = payload["spec"]
            tenant = str(payload.get("tenant", self.default_tenant))
            stream = bool(payload.get("stream", False))
        spec = EstimationSpec.from_dict(body)
        job = self.service.submit(spec, tenant=tenant, stream=stream)
        with self._lock:
            self._jobs[job.id] = job
        if self.journal is not None:
            self.journal.record_submit(job)
        # The retirement listener runs on whatever thread finishes the
        # job (replayed immediately if it is already terminal): journal
        # the terminal state and move the job from the in-flight registry
        # into the bounded terminal window.
        job.subscribe(
            lambda snapshot, job=job: (
                self._retire(job) if snapshot is None else None
            ),
            replay=False,
        )
        return OpOutcome(
            response={
                "id": request_id,
                "job": job.id,
                "mode": spec.mode,
                "tenant": tenant,
            },
            job=job,
            stream=stream,
        )

    def _retire(self, job: Job) -> None:
        fragment = job_payload(job)
        if self.journal is not None:
            self.journal.record_terminal(job, fragment)
        with self._lock:
            self._jobs.pop(job.id, None)
            self._terminal[job.id] = {
                "mode": job.spec.mode,
                "tenant": job.tenant,
                **fragment,
            }
            while len(self._terminal) > self.terminal_window:
                self._terminal.popitem(last=False)

    def _job_ref(self, payload: Mapping, op: str) -> int:
        job_id = payload.get("job")
        if not isinstance(job_id, int) or isinstance(job_id, bool):
            raise OpError(f"{op} request needs an integer 'job' id")
        return job_id

    def _op_result(self, payload: Mapping, request_id: Any) -> OpOutcome:
        job_id = self._job_ref(payload, "result")
        with self._lock:
            live_id = self._aliases.get(job_id, job_id)
            job = self._jobs.get(live_id)
            terminal = self._terminal.get(live_id)
            orphaned = self._orphaned.get(job_id)
        base = {"id": request_id, "job": live_id}
        if job is not None:
            return OpOutcome(
                response={
                    **base, "mode": job.spec.mode, "tenant": job.tenant,
                },
                job=job,
            )
        if terminal is not None:
            return OpOutcome(response={**base, **terminal})
        if orphaned is not None:
            return OpOutcome(
                response={
                    **base,
                    "job": job_id,
                    "status": "orphaned",
                    "state": "orphaned",
                    "error": orphaned,
                }
            )
        raise OpError(f"unknown job {job_id}")

    def _op_cancel(self, payload: Mapping, request_id: Any) -> OpOutcome:
        job_id = self._job_ref(payload, "cancel")
        with self._lock:
            live_id = self._aliases.get(job_id, job_id)
            job = self._jobs.get(live_id)
            terminal = self._terminal.get(live_id)
        base = {"id": request_id, "job": live_id, "status": "ok"}
        if job is not None:
            job.cancel()
            return OpOutcome(
                response={**base, "state": job.state, "cancel_requested": True}
            )
        if terminal is not None:
            # Already terminal: nothing to cancel, report what it became.
            return OpOutcome(
                response={
                    **base,
                    "state": terminal["state"],
                    "cancel_requested": False,
                }
            )
        raise OpError(f"unknown job {job_id}")

    def _op_update(self, payload: Mapping, request_id: Any) -> OpOutcome:
        dataset = payload.get("dataset")
        if dataset is None:
            raise OpError("update request carries no 'dataset'")
        dataset_spec = _section_from_dict(DatasetSpec, dataset, "dataset")
        delta, evicted = self.service.apply_updates(
            dataset_spec,
            inserts=payload.get("inserts"),
            deletes=payload.get("deletes"),
            modifications=(
                {int(k): v for k, v in payload["modifications"].items()}
                if payload.get("modifications") else None
            ),
        )
        return OpOutcome(
            response={
                "id": request_id,
                "status": "ok",
                "delta": delta.to_dict(),
                "evicted": evicted,
            },
            barrier=True,
        )

    # -- restart (journal replay) -----------------------------------------

    def restore(self, state, resubmit_orphans: bool = True) -> Dict[str, int]:
        """Adopt a parsed journal: replay warm state into this protocol.

        * terminal jobs become re-reportable under their original ids
          (``result`` answers with ``"replayed": true``);
        * orphans — jobs journaled as submitted but never terminal (the
          previous server died mid-queue) — are re-admitted when
          *resubmit_orphans* and non-streaming (their original id aliases
          the new job; a warm cache usually makes the redo free), while
          streaming orphans (their snapshot sequence is unrecoverable)
          and orphans whose journaled spec no longer parses (written by
          a version with other spec keys) are marked ``orphaned``;
        * surviving cache entries (epoch-version-exact: recorded at the
          fresh-start version of a rebuildable target) seed the service's
          result cache without touching its counters.

        Returns replay statistics for the server's metrics block.
        """
        reserve_job_ids(state.max_job_id)
        stats = {
            "terminal_jobs": len(state.terminal),
            "orphans_resubmitted": 0,
            "orphans_marked": 0,
            "cache_entries": len(state.cache_entries),
            "cache_dropped_stale": state.dropped_cache_stale,
            "cache_dropped_injected": state.dropped_cache_injected,
            "corrupt_lines": state.corrupt_lines,
        }
        with self._lock:
            for job_id, fragment in state.terminal.items():
                self._terminal[job_id] = {**fragment, "replayed": True}
        if self.service.cache is not None:
            for token, spec_json, version, payload in state.cache_entries:
                self.service.cache.seed(token, spec_json, version, payload)
        for record in state.orphans:
            lost = None
            if record.get("stream"):
                lost = (
                    "streaming job lost to a server restart (its snapshots "
                    "cannot be replayed)"
                )
            elif not resubmit_orphans:
                lost = "job lost to a server restart (orphans not re-admitted)"
            else:
                try:
                    spec = EstimationSpec.from_dict(record["spec"])
                except (KeyError, TypeError, ValueError) as exc:
                    lost = (
                        "job lost to a server restart: its journaled spec "
                        f"no longer parses ({exc})"
                    )
            if lost is not None:
                with self._lock:
                    self._orphaned[record["job"]] = lost
                stats["orphans_marked"] += 1
                continue
            job = self.service.submit(spec, tenant=record["tenant"])
            with self._lock:
                self._jobs[job.id] = job
                self._aliases[record["job"]] = job.id
            if self.journal is not None:
                self.journal.record_submit(job)
            job.subscribe(
                lambda snapshot, job=job: (
                    self._retire(job) if snapshot is None else None
                ),
                replay=False,
            )
            stats["orphans_resubmitted"] += 1
        return stats
