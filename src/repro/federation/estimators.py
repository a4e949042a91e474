"""Federated estimators: unbiased cross-source totals under one budget.

``FederatedSizeEstimator`` (and its aggregate sibling) runs the paper's
HD-UNBIASED machinery against every source of a
:class:`~repro.federation.target.FederatedTarget` and spends one global
query budget across them in three scheduler phases:

1. **Pilot** — a few seeded rounds per source (in source order) observe
   each source's per-round estimate spread and per-round cost, charged
   against the global :class:`~repro.core.budget.QueryBudget` ledger
   through round-granular leases.
2. **Allocate** — the :mod:`~repro.federation.policies` policy splits the
   remaining budget into integer per-source grants (deterministic
   largest-remainder apportionment).
3. **Execute** — every source runs a budget-bounded
   :class:`~repro.core.engine.ParallelSession` against its grant
   (leases settled in round order; heterogeneous ``cost_per_query``
   scales the charge).

Pilot rounds are **navigational only**: they steer the allocation and
their queries are charged, but they are *excluded* from the reported
estimate.  That split is what keeps the adaptive schedule honest — the
per-source round count depends on the pilots, the main-phase round
values do not (independent seeds, fresh clients), so conditional on the
allocation every per-source mean is a mean of i.i.d. unbiased rounds and
the federated total — the **sum of the per-source means** — is unbiased.
(Pooling the pilots in would let the pilot draws co-vary with the round
count they chose, a classic two-phase-sampling bias.)  A minimum of two
main rounds per source is forced even on a tiny grant, so every source
contributes a standard error; the variance decomposes as ``Var(T̂) = Σ
s_i²/n_i`` and the reported 95% CI comes from that decomposition (Cohen
& Kaplan 2011 style combination of partial per-source information).

Determinism: per-source pilot/main session seeds are derived up front
from the federation seed in source order, and both phases run through
engine primitives whose output is bit-identical at every worker count —
a seeded federated run is therefore invariant under ``workers``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.budget import BudgetExhausted, QueryBudget
from repro.core.engine import ParallelSession
from repro.core.estimators import (
    EstimationResult,
    HDUnbiasedAgg,
    HDUnbiasedSize,
    _DrillDownEstimator,
    _RoundFactory,
)
from repro.federation.policies import (
    AllocationPolicy,
    SourcePilot,
    resolve_policy,
)
from repro.federation.target import FederatedSource, FederatedTarget
from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.stats import RunningStats

__all__ = [
    "SourceEstimate",
    "FederatedResult",
    "FederatedSizeEstimator",
    "FederatedAggEstimator",
]


@dataclass
class SourceEstimate:
    """One source's contribution to the federated total.

    ``mean``/``std_error``/``rounds`` describe the main (budgeted) phase
    only — pilot rounds steer the allocation but never enter the
    estimate (see the module docstring); their queries still count in
    ``queries``/``cost_units``.
    """

    name: str
    mean: float
    std_error: float
    rounds: int  # budgeted main-phase rounds (the estimate's sample)
    pilot_rounds: int  # navigational rounds (charged, not estimated from)
    queries: int  # raw queries charged by this source's form (both phases)
    cost_units: float  # queries × the source's cost_per_query
    budget_granted: int  # units the policy allocated beyond the pilot
    stop_reason: Optional[str]  # why the main phase ended

    @property
    def variance_of_mean(self) -> float:
        """This source's term in the federated variance decomposition."""
        return self.std_error**2

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "mean": self.mean,
            "std_error": self.std_error,
            "rounds": self.rounds,
            "pilot_rounds": self.pilot_rounds,
            "queries": self.queries,
            "cost_units": self.cost_units,
            "budget_granted": self.budget_granted,
            "stop_reason": self.stop_reason,
        }


@dataclass
class FederatedResult:
    """Outcome of one federated estimation run."""

    total: float  # Σ per-source means — the unbiased federated estimate
    std_error: float  # sqrt(Σ per-source variance-of-mean)
    ci95: Tuple[float, float]
    per_source: List[SourceEstimate]
    policy: str
    budget: float  # the global budget in cost units
    total_cost_units: float  # units actually spent (pilots + main phases)
    total_queries: int  # raw queries across every source
    pilot_cost_units: float
    allocations: Dict[str, int] = field(default_factory=dict)

    @property
    def source_names(self) -> List[str]:
        return [estimate.name for estimate in self.per_source]

    def source(self, name: str) -> SourceEstimate:
        """Per-source estimate by name."""
        for estimate in self.per_source:
            if estimate.name == name:
                return estimate
        raise KeyError(f"no source named {name!r} in this result")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly payload (the CLI's ``federate --json`` output)."""
        return {
            "total": self.total,
            "std_error": self.std_error,
            "ci95": list(self.ci95),
            "policy": self.policy,
            "budget": self.budget,
            "total_cost_units": self.total_cost_units,
            "total_queries": self.total_queries,
            "pilot_cost_units": self.pilot_cost_units,
            "allocations": dict(self.allocations),
            "per_source": [estimate.to_dict() for estimate in self.per_source],
        }


class _FederatedEstimatorBase:
    """Shared pilot → allocate → execute scheduler of the federated family.

    Subclasses provide :meth:`_template` — the per-source single-database
    estimator whose rounds the scheduler fans out.
    """

    #: Forced main-phase rounds per source: two rounds are the minimum
    #: sample a standard error exists for, so every source contributes to
    #: the federated variance decomposition even on a zero grant.
    MIN_MAIN_ROUNDS = 2

    def __init__(
        self,
        target: FederatedTarget,
        policy: Union[str, AllocationPolicy] = "neyman",
        pilot_rounds: int = 2,
        seed: RandomSource = None,
        executor: str = "thread",
    ) -> None:
        if pilot_rounds < 2:
            raise ValueError(
                f"pilot_rounds must be >= 2 (the spread of one round is "
                f"undefined), got {pilot_rounds}"
            )
        self.target = target
        self.policy = resolve_policy(policy)
        self.pilot_rounds = int(pilot_rounds)
        self.rng = spawn_rng(seed)
        self.executor = executor

    # -- to be provided by subclasses ------------------------------------

    def _template(self, source: FederatedSource) -> _DrillDownEstimator:
        """The single-source estimator this federation aggregates."""
        raise NotImplementedError

    # -- scheduling -------------------------------------------------------

    def _session(
        self, source: FederatedSource, workers: int, seed: int
    ) -> ParallelSession:
        template = self._template(source)
        return ParallelSession(
            factory=_RoundFactory(template),
            workers=workers,
            seed=seed,
            executor=self.executor,
            statistic=template._statistic,
        )

    def run(
        self,
        query_budget: Union[int, float],
        workers: int = 1,
    ) -> FederatedResult:
        """Spend *query_budget* cost units across the federation.

        The budget must leave room for the pilot phase (``pilot_rounds``
        rounds per source); a budget the pilots exhaust raises — there is
        nothing left to schedule.  Output is bit-identical for a fixed
        federation seed regardless of *workers*.
        """
        result: Optional[FederatedResult] = None
        for event, payload in self._execute(query_budget, workers):
            if event == "result":
                result = payload
        assert result is not None  # _execute always ends with a result
        return result

    def _execute(self, query_budget: Union[int, float], workers: int):
        """The scheduler as an event stream (``run`` drains it).

        Yields ``(event, payload)`` pairs in execution order: ``"ledger"``
        (the global :class:`QueryBudget`, before anything is charged),
        ``"pilots"`` (the per-source :class:`SourcePilot` list),
        ``"allocations"`` (the policy's per-source grants), one
        ``"source"`` per completed main phase (its
        :class:`SourceEstimate`), and finally ``"result"`` (the
        :class:`FederatedResult`).  Every ledger lease is settled before
        each yield, so a consumer can stop between events without leaking
        budget — that is what :meth:`repro.api.session.Estimation.stream`
        builds on.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        ledger = QueryBudget(query_budget)
        if ledger.total is None or ledger.total <= 0:
            raise ValueError(
                f"a federated run needs a positive finite budget, got "
                f"{query_budget!r}"
            )
        yield ("ledger", ledger)
        # Per-source session seeds, fixed up front in source order so no
        # later phase (or worker scheduling) can influence them.
        session_seeds = [
            (
                int(self.rng.integers(0, 2**63 - 1)),  # pilot
                int(self.rng.integers(0, 2**63 - 1)),  # main
            )
            for _ in self.target
        ]

        # Phase 1 — pilots, charged to the global ledger in source order.
        pilots: List[SourcePilot] = []
        pilot_results: List[EstimationResult] = []
        for source, (pilot_seed, _) in zip(self.target, session_seeds):
            session = self._session(source, workers, pilot_seed)
            try:
                if ledger.exhausted:
                    raise BudgetExhausted(
                        f"budget exhausted before source {source.name!r}"
                    )
                result = session.run(self.pilot_rounds)
                for round_estimate in result.raw_rounds:
                    lease = ledger.lease()
                    ledger.settle(
                        lease, round_estimate.cost * source.cost_per_query
                    )
            except BudgetExhausted:
                raise ValueError(
                    f"budget {ledger.total} cannot cover {self.pilot_rounds} "
                    f"pilot rounds across {len(self.target)} sources "
                    f"(spent {ledger.spent} before {source.name!r} finished); "
                    f"raise the budget or lower pilot_rounds"
                ) from None
            finally:
                session.close()
            stats = RunningStats()
            stats.extend(result.estimates)
            pilots.append(
                SourcePilot(
                    name=source.name,
                    rounds=result.rounds,
                    mean=result.mean,
                    std=stats.std,
                    cost_per_round=(
                        result.total_cost * source.cost_per_query
                        / result.rounds
                    ),
                )
            )
            pilot_results.append(result)
        pilot_cost = ledger.spent
        remaining = ledger.remaining
        if remaining is None or remaining <= 0:
            raise ValueError(
                f"the pilot phase consumed the whole budget "
                f"({pilot_cost}/{ledger.total} units); nothing left to "
                f"allocate"
            )

        yield ("pilots", pilots)

        # Phase 2 — split what is left.
        allocations = self.policy.allocate(remaining, pilots)
        yield ("allocations", allocations)

        # Phase 3 — budget-bounded sessions per source, in source order.
        # min_rounds=2 forces a standard error out of even a zero grant
        # (the forced rounds settle as overshoot); the estimate uses main
        # rounds only, so the allocation never biases it.
        per_source: List[SourceEstimate] = []
        for source, pilot_result, (_, main_seed) in zip(
            self.target, pilot_results, session_seeds
        ):
            granted = allocations[source.name]
            with self._session(source, workers, main_seed) as session:
                main_result: EstimationResult = session.run_budgeted(
                    granted,
                    cost_scale=source.cost_per_query,
                    min_rounds=self.MIN_MAIN_ROUNDS,
                )
            queries = pilot_result.total_cost + main_result.total_cost
            stats = RunningStats()
            stats.extend(main_result.estimates)
            per_source.append(
                SourceEstimate(
                    name=source.name,
                    mean=stats.mean,
                    std_error=stats.std_error,
                    rounds=main_result.rounds,
                    pilot_rounds=pilot_result.rounds,
                    queries=queries,
                    cost_units=queries * source.cost_per_query,
                    budget_granted=granted,
                    stop_reason=main_result.stop_reason,
                )
            )
            yield ("source", per_source[-1])
        total_queries = sum(estimate.queries for estimate in per_source)
        total_units = sum(estimate.cost_units for estimate in per_source)
        total = sum(estimate.mean for estimate in per_source)
        variance = sum(
            estimate.variance_of_mean
            for estimate in per_source
            if math.isfinite(estimate.variance_of_mean)
        )
        if any(
            not math.isfinite(estimate.variance_of_mean)
            for estimate in per_source
        ):
            variance = float("nan")
        std_error = (
            math.sqrt(variance) if not math.isnan(variance) else float("nan")
        )
        half = 1.96 * std_error
        yield ("result", FederatedResult(
            total=total,
            std_error=std_error,
            ci95=(total - half, total + half),
            per_source=per_source,
            policy=self.policy.name,
            budget=float(ledger.total),
            total_cost_units=total_units,
            total_queries=total_queries,
            pilot_cost_units=float(pilot_cost),
            allocations=allocations,
        ))


class FederatedSizeEstimator(_FederatedEstimatorBase):
    """Unbiased total-size estimation across a federation.

    The federated total is the sum of per-source HD-UNBIASED-SIZE
    estimates (each unbiased, Section 5.1), so it is unbiased for the
    federation's total listing count; the CI comes from the per-source
    variance decomposition.

    >>> estimator = FederatedSizeEstimator(target, policy="neyman", seed=7)
    >>> result = estimator.run(query_budget=5_000)      # doctest: +SKIP
    >>> result.total, result.ci95                       # doctest: +SKIP
    """

    def _template(self, source: FederatedSource) -> HDUnbiasedSize:
        return HDUnbiasedSize(
            source.make_client(),
            r=source.r,
            dub=source.dub,
            weight_adjustment=source.weight_adjustment,
            seed=0,
        )


class FederatedAggEstimator(_FederatedEstimatorBase):
    """Unbiased federated COUNT/SUM estimation (Section 5.2 per source).

    ``aggregate`` is ``"count"`` or ``"sum"`` (with a *measure* every
    source's schema must carry).  AVG does not federate unbiasedly — a
    ratio of sums is not the sum of per-source ratios — so it is refused;
    estimate SUM and COUNT and combine them downstream instead.
    """

    def __init__(
        self,
        target: FederatedTarget,
        aggregate: str = "sum",
        measure: Optional[str] = None,
        **kwargs,
    ) -> None:
        aggregate = aggregate.lower()
        if aggregate not in ("sum", "count"):
            raise ValueError(
                f"federated aggregation supports 'sum' and 'count', got "
                f"{aggregate!r} (AVG does not combine unbiasedly across "
                f"sources)"
            )
        if aggregate == "sum" and measure is None:
            raise ValueError("aggregate 'sum' needs a measure name")
        self.aggregate = aggregate
        self.measure = measure
        super().__init__(target, **kwargs)

    def _template(self, source: FederatedSource) -> HDUnbiasedAgg:
        return HDUnbiasedAgg(
            source.make_client(),
            aggregate=self.aggregate,
            measure=self.measure,
            r=source.r,
            dub=source.dub,
            weight_adjustment=source.weight_adjustment,
            seed=0,
        )
