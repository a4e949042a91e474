"""The :class:`Estimation` facade: one front door for every regime.

``Estimation(spec).run()`` compiles a declarative
:class:`~repro.api.spec.EstimationSpec` to the right estimator stack —
static, budgeted, tracking or federated — runs it, and returns one
unified :class:`~repro.api.report.AggregateReport`.  For a fixed seed the
facade reproduces the hand-built stacks exactly (same construction, same
RNG consumption), so scripts written against the class-based API and
requests submitted through the front door agree bit for bit.

``Estimation(spec).stream()`` is the observable version: an
:class:`EstimationStream` yielding a progressive report snapshot after
every admitted round (static / budgeted), epoch (tracking) or scheduler
phase (federated).  Streams are built on the engine's wave protocol, so
the snapshot *sequence* is identical at every worker count, and they can
be cancelled mid-flight: cancellation settles the stream's
:class:`~repro.core.budget.QueryBudget` ledger (no lease is left open)
and finalizes :attr:`EstimationStream.result` with
``stop_reason == "cancelled"``.

Example::

    spec = EstimationSpec(
        target=TargetSpec(dataset=DatasetSpec(name="yahoo", m=20_000)),
        regime=RegimeSpec(query_budget=2_000, workers=4, seed=7),
    )
    with Estimation(spec).stream() as snapshots:
        for report in snapshots:
            if report.relative_halfwidth < 0.05:
                snapshots.cancel()          # budget settles, no leaks
    print(snapshots.result.estimate, snapshots.result.stop_reason)
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional

from repro.api.compiler import (
    DEFAULT_FEDERATED_POLICY,
    build_estimator,
    build_federated_estimator,
    build_federation,
    build_table,
    resolve_rounds,
    tracker_kwargs,
)
from repro.api.report import (
    AggregateReport,
    report_from_estimation,
    report_from_federated,
    report_from_track,
)
from repro.api.spec import EstimationSpec
from repro.core.budget import QueryBudget, as_budget
from repro.core.engine import _RoundFold

__all__ = ["Estimation", "EstimationStream", "run_spec"]


class EstimationStream:
    """An in-flight estimation session: iterate, observe, cancel.

    Yields partial :class:`AggregateReport` snapshots
    (``partial=True``, ``stop_reason == "streaming"``).  After natural
    exhaustion — or after :meth:`cancel` once at least one snapshot was
    produced — :attr:`result` holds the final settled report with a
    concrete stop reason (``None`` only when cancelled before the first
    snapshot: no round ran, there is nothing to report).  :attr:`budget`
    exposes the session's :class:`QueryBudget` ledger as soon as one
    exists; cancellation never leaves a lease open on it.
    """

    def __init__(self, make_generator: Callable[["EstimationStream"], Iterator[AggregateReport]]) -> None:
        self.budget: Optional[QueryBudget] = None
        self.result: Optional[AggregateReport] = None
        self.cancelled = False
        self._gen = make_generator(self)

    def __iter__(self) -> "EstimationStream":
        return self

    def __next__(self) -> AggregateReport:
        return next(self._gen)

    def cancel(self) -> None:
        """Stop the session at the last yielded snapshot.

        Outstanding budget leases are cancelled (the ledger stays
        settled) and :attr:`result` is finalized with
        ``stop_reason == "cancelled"`` — unless no snapshot was ever
        produced, in which case nothing ran and :attr:`result` stays
        ``None``.  A no-op once the stream has finished naturally.
        """
        already_done = self.result is not None
        self._gen.close()
        if not already_done:
            self.cancelled = True

    def __enter__(self) -> "EstimationStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel()


class Estimation:
    """Compile and run one :class:`EstimationSpec`.

    Parameters
    ----------
    spec:
        The validated request.
    table:
        Optional pre-built :class:`~repro.hidden_db.table.HiddenTable`
        standing in for the spec's dataset (required when the dataset is
        ``"custom"``).
    federation:
        Optional pre-built :class:`~repro.federation.target.FederatedTarget`
        standing in for the spec's generated federation fixture.

    After :meth:`run` / :meth:`stream`, :attr:`table` (dataset modes) or
    :attr:`federation` (federated mode) expose the compiled target the
    session actually ran against.
    """

    def __init__(self, spec: EstimationSpec, table=None, federation=None) -> None:
        if not isinstance(spec, EstimationSpec):
            raise TypeError(
                f"Estimation needs an EstimationSpec, got "
                f"{type(spec).__name__}"
            )
        self.spec = spec
        self._table = table
        self._federation = federation
        self.table = None
        self.federation = None

    @property
    def mode(self) -> str:
        """The spec's resolved regime."""
        return self.spec.mode

    # -- one-shot execution ------------------------------------------------

    def run(self) -> AggregateReport:
        """Execute the request to completion and report once.

        A ``target_precision`` spec, and a static or budgeted spec at
        ``workers=1``, run the sequential session (one client shared by
        every round); a static or budgeted spec at more workers, like its
        :meth:`stream` at any worker count, gives every round a fresh
        client.
        """
        mode = self.mode
        if mode == "federated":
            target = build_federation(self.spec, self._federation)
            self.federation = target
            estimator = build_federated_estimator(self.spec, target)
            result = estimator.run(
                query_budget=self.spec.regime.query_budget,
                workers=self.spec.regime.workers,
            )
            return report_from_federated(result, self.spec)
        if mode == "tracking":
            from repro.core.dynamic import track

            table = build_table(self.spec, self._table)
            loop_kwargs, build_kwargs = tracker_kwargs(self.spec)
            result = track(table, **loop_kwargs, **build_kwargs)
            self.table = table
            return report_from_track(result, self.spec)
        # static / budgeted — the original HD-UNBIASED session.
        table = build_table(self.spec, self._table)
        self.table = table
        estimator = build_estimator(self.spec, table)
        regime = self.spec.regime
        if regime.target_precision is not None:
            result = estimator.run_until(
                regime.target_precision,
                query_budget=regime.query_budget,
                **_round_cap(regime),
            )
        else:
            result = estimator.run(
                rounds=resolve_rounds(self.spec),
                query_budget=regime.query_budget,
                workers=regime.workers,
                executor=regime.executor,
            )
        return report_from_estimation(result, mode, self.spec)

    # -- batches -----------------------------------------------------------

    @staticmethod
    def submit_many(
        specs,
        workers: int = 2,
        cache_size: Optional[int] = 256,
        tenant_budgets=None,
        timeout: Optional[float] = None,
    ):
        """Run a batch of specs concurrently; reports in submission order.

        One-call convenience over
        :class:`repro.service.EstimationService`: every report is
        byte-identical to ``Estimation(spec).run()`` for the same spec
        (whatever *workers* is), and equal specs in the batch are served
        from the service's result cache after the first completes.

        *timeout* bounds each job's ``result`` wait individually (not
        the batch), and on expiry the service shutdown still drains the
        jobs already in flight before the ``TimeoutError`` surfaces.
        """
        from repro.service import EstimationService

        with EstimationService(
            workers=workers,
            cache_size=cache_size,
            tenant_budgets=tenant_budgets,
        ) as service:
            return service.run_many(list(specs), timeout=timeout)

    # -- ground truth (experiments only — reads the hidden table) ---------

    def ground_truth(self) -> float:
        """The true value of the requested aggregate (compiles the target
        if no run has happened yet).  Experiments-only: a real hidden
        database would not answer this."""
        aggregate = self.spec.aggregate
        if self.mode == "federated":
            target = self.federation
            if target is None:
                target = build_federation(self.spec, self._federation)
                self.federation = target
            if aggregate.kind == "sum":
                return float(target.true_total_sum(aggregate.measure))
            return float(target.true_total_size())
        table = self.table
        if table is None:
            table = build_table(self.spec, self._table)
            self.table = table
        from repro.core.dynamic import _ground_truth
        from repro.core.estimators import resolve_condition

        condition = resolve_condition(table.schema, aggregate.condition)
        if aggregate.kind == "avg":
            total = _ground_truth(table, "sum", aggregate.measure, condition)
            count = _ground_truth(table, "count", None, condition)
            return total / count if count else float("nan")
        kind = "count" if aggregate.kind == "size" else aggregate.kind
        return _ground_truth(table, kind, aggregate.measure, condition)

    # -- streaming ---------------------------------------------------------

    def stream(self) -> EstimationStream:
        """An observable session yielding per-round / per-epoch snapshots.

        Static and budgeted specs stream through the engine's wave
        protocol (every round on a fresh client — the parallel-session
        cost model) so the snapshot sequence is bit-identical at every
        ``workers`` count; a ``target_precision`` spec streams the
        sequential adaptive session.  Tracking specs yield one snapshot
        per epoch, federated specs one per scheduler phase.  Each
        adapter below iterates the generator that the matching
        :meth:`run` path drains.
        """
        mode = self.mode
        if mode == "federated":
            return EstimationStream(self._federated_snapshots)
        if mode == "tracking":
            return EstimationStream(self._tracking_snapshots)
        return EstimationStream(self._round_snapshots)

    # -- adapters (one per generator kind) ---------------------------------

    def _round_snapshots(self, stream: EstimationStream):
        """One snapshot per admitted round (static / budgeted /
        precision specs)."""
        spec = self.spec
        regime = spec.regime
        table = build_table(spec, self._table)
        self.table = table
        estimator = build_estimator(spec, table)
        budget = as_budget(regime.query_budget)
        stream.budget = budget
        fold = _RoundFold(estimator._statistic, estimator._dims)
        if regime.target_precision is not None:
            rounds = estimator._until_rounds(
                fold, regime.target_precision, query_budget=budget,
                **_round_cap(regime),
            )
        else:
            rounds = estimator._engine_rounds(
                fold, budget, resolve_rounds(spec), regime.workers,
                regime.executor,
            )
        try:
            for _ in rounds:
                yield self._round_report(fold, partial=True)
            stream.result = self._round_report(fold)
        finally:
            rounds.close()
            if stream.result is None and fold.count:
                fold.stop_reason = "cancelled"
                stream.result = self._round_report(fold)

    def _round_report(self, fold, partial: bool = False) -> AggregateReport:
        return report_from_estimation(
            fold.result(), self.mode, self.spec, partial=partial
        )

    def _tracking_snapshots(self, stream: EstimationStream):
        """One snapshot per epoch for tracking specs."""
        from repro.core.dynamic import _track_epochs, build_tracker

        spec = self.spec
        loop_kwargs, build_kwargs = tracker_kwargs(spec)
        tracker = build_tracker(build_table(spec, self._table), **build_kwargs)
        self.table = tracker[2]
        epochs = _track_epochs(
            tracker, loop_kwargs["epochs"], build_kwargs["policy"]
        )
        result = None
        try:
            for result in epochs:
                yield report_from_track(result, spec, partial=True)
            stream.result = report_from_track(result, spec)
        finally:
            epochs.close()
            if stream.result is None and result is not None:
                stream.result = report_from_track(
                    result, spec, stop_reason="cancelled"
                )

    def _federated_snapshots(self, stream: EstimationStream):
        """One snapshot per scheduler phase for federated specs."""
        spec = self.spec
        target = build_federation(spec, self._federation)
        self.federation = target
        estimator = build_federated_estimator(spec, target)
        events = estimator._execute(
            spec.regime.query_budget, spec.regime.workers
        )
        pilots = []
        allocations = None
        sources = []
        try:
            for event, payload in events:
                if event == "ledger":
                    stream.budget = payload
                elif event == "pilots":
                    pilots = payload
                elif event == "allocations":
                    allocations = payload
                    yield self._federated_partial(
                        pilots, allocations, sources, stream
                    )
                elif event == "source":
                    sources.append(payload)
                    yield self._federated_partial(
                        pilots, allocations, sources, stream
                    )
                elif event == "result":
                    stream.result = report_from_federated(payload, spec)
        finally:
            events.close()
            if stream.result is None and (pilots or sources):
                stream.result = self._federated_partial(
                    pilots, allocations, sources, stream,
                    stop_reason="cancelled",
                )

    def _federated_partial(
        self, pilots, allocations, sources, stream,
        stop_reason: Optional[str] = None,
    ) -> AggregateReport:
        """A mid-flight federated report (completed sources only).

        Before any main phase finishes, the (navigational, biased-by-
        design) pilot means stand in for the estimate so observers see a
        number move; once sources complete, only their unbiased means
        count — exactly the final report's semantics restricted to the
        finished prefix.
        """
        if sources:
            estimate = float(sum(s.mean for s in sources))
            variance = sum(
                s.variance_of_mean
                for s in sources
                if math.isfinite(s.variance_of_mean)
            )
            std_error = math.sqrt(variance)
        else:
            estimate = float(sum(p.mean for p in pilots))
            std_error = float("nan")
        half = 1.96 * std_error
        ledger_spent = float(stream.budget.spent) if stream.budget else 0.0
        return AggregateReport(
            mode="federated",
            estimate=estimate,
            std_error=std_error,
            ci95=(estimate - half, estimate + half),
            rounds=int(sum(s.rounds for s in sources)),
            total_queries=int(sum(s.queries for s in sources)),
            cost_units=float(sum(s.cost_units for s in sources)),
            stop_reason=(
                stop_reason if stop_reason is not None else "streaming"
            ),
            partial=stop_reason is None,
            per_source=[s.to_dict() for s in sources] or None,
            allocations=dict(allocations) if allocations else None,
            policy=self.spec.method.policy or DEFAULT_FEDERATED_POLICY,
            budget=float(self.spec.regime.query_budget),
            pilot_cost_units=ledger_spent,
            spec=self.spec,
        )


def _round_cap(regime) -> dict:
    """The spec's round cap for a precision session; without one the
    estimator's own ``max_rounds`` default applies."""
    return {} if regime.rounds is None else {"max_rounds": regime.rounds}


def run_spec(spec: EstimationSpec, table=None, federation=None) -> AggregateReport:
    """One-call convenience: ``Estimation(spec, ...).run()``."""
    return Estimation(spec, table=table, federation=federation).run()
