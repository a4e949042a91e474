"""Per-tenant budget admission across concurrent jobs.

The service multiplexes many tenants over one worker pool; each tenant
may carry a query-budget ceiling.  Admission reuses the round-granular
lease ledger of :class:`~repro.core.budget.QueryBudget` at *job*
granularity:

* a lease is issued at **submission time** (submissions are serialized
  under the controller lock, so lease order is submission order — the
  admission decision is a deterministic function of the submission
  sequence and the settled spend, never of worker scheduling);
* the job's actual cost is **recorded at completion** and pumped into
  the ledger strictly in lease-issuance order (jobs finish out of order;
  the pump defers a recorded cost until every earlier lease is settled
  or cancelled, via :attr:`QueryBudget.next_settle_index`);
* jobs cancelled while still queued, and failed jobs, cancel their
  lease — nothing is charged; a streaming job cancelled mid-flight
  settles its lease with the queries it actually spent (its partial
  report is delivered, so its spend is real).

A tenant whose settled spend has reached its ceiling is refused at
submission with :class:`AdmissionRefused` (a
:class:`~repro.core.budget.BudgetExhausted` subclass).  Like the paper's
round-atomicity rule, jobs are atomic: the last admitted job may
overshoot the ceiling, and the ledger attributes the excess to its lease.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional, Union

from repro.core.budget import BudgetExhausted, BudgetLease, QueryBudget

__all__ = ["AdmissionRefused", "TenantBudgets"]

Cost = Union[int, float]


class AdmissionRefused(BudgetExhausted):
    """A submission was refused: the tenant's budget ceiling is spent."""

    def __init__(self, tenant: str, budget: QueryBudget) -> None:
        super().__init__(
            f"tenant {tenant!r} exhausted its query budget "
            f"({budget.spent}/{budget.total} units spent); "
            f"new submissions refused"
        )
        self.tenant = tenant


class _TenantLedger:
    """One tenant's ledger plus its deferred-settlement buffer."""

    def __init__(self, ceiling: Optional[Cost]) -> None:
        self.budget = QueryBudget(ceiling)
        self._recorded: Dict[int, Cost] = {}
        self._leases: Dict[int, BudgetLease] = {}

    def lease(self) -> BudgetLease:
        lease = self.budget.lease()
        self._leases[lease.index] = lease
        return lease

    def record(self, lease: BudgetLease, cost: Cost) -> None:
        """Buffer *lease*'s cost and settle the in-order prefix."""
        self._recorded[lease.index] = cost
        self._pump()

    def cancel(self, lease: BudgetLease) -> None:
        # Tolerant by design: the service's failure paths call this as a
        # release ("void the lease unless its cost already counts"), and
        # an exception raised *after* settlement must not be displaced by
        # a bookkeeping error about an already-settled lease.
        if not lease.open:
            return
        if lease.index in self._recorded:
            # The cost was recorded and is merely deferred behind an
            # earlier open lease — the charge stands (queries were truly
            # spent); the pump settles it when its turn comes.
            return
        self.budget.cancel(lease)
        self._leases.pop(lease.index, None)
        self._pump()

    def _pump(self) -> None:
        # Settle every lease whose cost is known, in issuance order; stop
        # at the first lease still in flight (its successors wait).
        while True:
            index = self.budget.next_settle_index
            if index is None or index not in self._recorded:
                return
            self.budget.settle(
                self._leases.pop(index), self._recorded.pop(index)
            )


class TenantBudgets:
    """Admission controller: one :class:`QueryBudget` ledger per tenant.

    Parameters
    ----------
    ceilings:
        Per-tenant budget ceilings in cost units.  Tenants not listed get
        *default_ceiling*.
    default_ceiling:
        Ceiling for unlisted tenants (``None`` = unlimited: the ledger
        tracks spend but never refuses).
    """

    def __init__(
        self,
        ceilings: Optional[Mapping[str, Cost]] = None,
        default_ceiling: Optional[Cost] = None,
    ) -> None:
        self._ceilings = dict(ceilings or {})
        self._default_ceiling = default_ceiling
        self._ledgers: Dict[str, _TenantLedger] = {}
        self._refusals: Dict[str, int] = {}
        self._lock = threading.Lock()

    def _ledger(self, tenant: str) -> _TenantLedger:
        ledger = self._ledgers.get(tenant)
        if ledger is None:
            ceiling = self._ceilings.get(tenant, self._default_ceiling)
            ledger = self._ledgers[tenant] = _TenantLedger(ceiling)
        return ledger

    # -- lifecycle -------------------------------------------------------

    def admit(self, tenant: str) -> BudgetLease:
        """Issue the job lease, or refuse with :class:`AdmissionRefused`."""
        with self._lock:
            ledger = self._ledger(tenant)
            try:
                return ledger.lease()
            except BudgetExhausted:
                self._refusals[tenant] = self._refusals.get(tenant, 0) + 1
                raise AdmissionRefused(tenant, ledger.budget) from None

    def settle(self, tenant: str, lease: BudgetLease, cost: Cost) -> None:
        """Record the finished job's cost (settled in issuance order)."""
        with self._lock:
            self._ledger(tenant).record(lease, cost)

    def cancel(self, tenant: str, lease: BudgetLease) -> None:
        """Void the lease of a queued-cancelled or failed job (no charge).

        A streaming job cancelled mid-flight is :meth:`settle`-d with its
        real spend instead.  A no-op for leases whose cost already
        settled — a job that fails *after* settlement keeps its charge,
        and the caller's original exception propagates undisturbed."""
        with self._lock:
            self._ledger(tenant).cancel(lease)

    # -- observability ---------------------------------------------------

    @property
    def refusals(self) -> Dict[str, int]:
        """Monotonic per-tenant refusal counts (admissions denied)."""
        with self._lock:
            return dict(self._refusals)

    @property
    def total_refusals(self) -> int:
        """Monotonic count of refused admissions across all tenants."""
        with self._lock:
            return sum(self._refusals.values())

    def ledger(self, tenant: str) -> Dict[str, Optional[Cost]]:
        """The tenant's mergeable ledger summary."""
        with self._lock:
            return self._ledger(tenant).budget.ledger()

    def report(self) -> Dict[str, Dict[str, Optional[Cost]]]:
        """Every known tenant's ledger summary."""
        with self._lock:
            return {
                tenant: ledger.budget.ledger()
                for tenant, ledger in sorted(self._ledgers.items())
            }
