"""Public estimator API: BOOL-UNBIASED-SIZE, HD-UNBIASED-SIZE and
HD-UNBIASED-AGG.

Every estimator runs *rounds*; one round is a full (possibly recursive)
divide-&-conquer pass producing one unbiased estimate.  A session averages
rounds — the mean of i.i.d.-conditionally-unbiased estimates — while
recording the running estimate against the cumulative query cost, which is
the trajectory every figure in the paper plots.

Quick start::

    from repro import HDUnbiasedSize, HiddenDBClient, TopKInterface
    from repro.datasets import yahoo_auto

    table = yahoo_auto(m=20_000, seed=7)
    client = HiddenDBClient(TopKInterface(table, k=100))
    estimator = HDUnbiasedSize(client, r=4, dub=32, seed=11)
    result = estimator.run(rounds=20)
    print(result.mean, result.ci95, result.total_cost)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.budget import QueryBudget, as_budget
from repro.core.divide_conquer import TreeEstimate, estimate_tree_plan
from repro.core.drilldown import Probe, Walker, drive_plan
from repro.core.engine import ParallelSession, _RoundFold
from repro.core.partition import free_attribute_order, segment_attributes
from repro.core.weights import UniformWeights, WeightStore
from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.exceptions import InvalidQueryError, QueryLimitExceeded
from repro.hidden_db.interface import QueryResult
from repro.hidden_db.query import ConjunctiveQuery
from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.stats import RunningStats, StreamingMeanSeries

__all__ = [
    "RoundEstimate",
    "EstimationResult",
    "HDUnbiasedSize",
    "BoolUnbiasedSize",
    "HDUnbiasedAgg",
    "resolve_condition",
]

ConditionLike = Union[None, ConjunctiveQuery, Mapping[str, Union[int, str]]]


def resolve_condition(schema, condition: ConditionLike) -> Optional[ConjunctiveQuery]:
    """Normalise a selection condition into a :class:`ConjunctiveQuery`.

    Accepts ``None``, a ready-made query, or a mapping from attribute name
    to a value (int) or label (str), e.g. ``{"MAKE": "Toyota"}``.
    """
    if condition is None:
        return None
    if isinstance(condition, ConjunctiveQuery):
        condition.validate(schema)
        return condition
    query = ConjunctiveQuery()
    for name, raw in condition.items():
        attr_index = schema.index_of(name)
        attribute = schema[attr_index]
        value = attribute.value_of(raw) if isinstance(raw, str) else int(raw)
        attribute.validate_value(value)
        query = query.extended(attr_index, value)
    return query


@dataclass(frozen=True)
class RoundEstimate:
    """One unbiased estimate and what it cost to produce."""

    values: np.ndarray  # mass-component estimates (COUNT, SUM, ...)
    cost: int  # queries charged during this round
    walks: int  # drill downs performed during this round

    @property
    def value(self) -> float:
        """First (primary) component, for single-aggregate estimators."""
        return float(self.values[0])


@dataclass
class EstimationResult:
    """Aggregated outcome of an estimation session."""

    estimates: List[float]  # per-round scalar estimates (the published statistic)
    mean: float
    std_error: float
    ci95: Tuple[float, float]
    total_cost: int
    rounds: int
    trajectory: StreamingMeanSeries  # (cumulative cost, running statistic)
    raw_rounds: List[RoundEstimate] = field(default_factory=list)
    #: Why the session ended: "rounds", "budget", "precision", "stalled",
    #: "hard_limit", "max_rounds" or "cancelled".  Always concrete —
    #: legacy constructions that predate the budget ledger (and any
    #: caller still passing ``None``) are coerced to "rounds", the only
    #: stop the pre-ledger sessions had.
    stop_reason: str = "rounds"

    def __post_init__(self) -> None:
        if self.stop_reason is None:
            self.stop_reason = "rounds"

    @property
    def variance(self) -> float:
        """Sample variance of the per-round estimates."""
        stats = RunningStats()
        stats.extend(self.estimates)
        return stats.variance

    @property
    def stalled(self) -> bool:
        """True when the session ended on consecutive zero-cost rounds.

        A budget-only session over a caching client stops charging once
        the walked subtrees are all cached; the stall guard ends the
        session instead of looping and flags it here.
        """
        return self.stop_reason == "stalled"


class _RoundFactory:
    """Picklable ``seed -> fresh estimator`` factory for parallel rounds.

    A module-level class (not a closure) so process-pool executors can
    pickle it along with the template estimator it clones from.
    """

    def __init__(self, template: "_DrillDownEstimator") -> None:
        self.template = template

    def __call__(self, seed: int) -> "_DrillDownEstimator":
        return self.template._spawn(self.template._clone_client(seed), seed)

    # -- process-pool transport (duck-typed engine hooks) -----------------

    def _table(self):
        """The template's underlying table, unwrapping interface layers."""
        interface = self.template.client.interface
        inner = getattr(interface, "interface", None)
        if inner is not None:  # e.g. FlakyInterface wrapping the real form
            interface = inner
        return getattr(interface, "table", None)

    def prepare_shared_memory(self) -> None:
        """Export the table's columns once before a wave of process tasks.

        Called by the engine ahead of every process-pool wave; idempotent
        per table version, so repeated waves (and dynamic sessions that
        mutate the table between waves) pay one copy per epoch, after
        which every task submission pickles a zero-copy handle instead of
        the columns.
        """
        table = self._table()
        if table is not None:
            from repro.hidden_db.sharing import export_table

            export_table(table)

    def release_shared_memory(self) -> None:
        """Unlink the shared-memory export (engine close; idempotent)."""
        table = self._table()
        export = getattr(table, "_shared_export", None)
        if export is not None:
            export.close()
            table._shared_export = None


class _DrillDownEstimator:
    """Shared machinery of the HD-UNBIASED family.

    Subclasses define the mass vector extracted from a valid result page
    and how the per-round vector collapses into the published statistic.
    """

    #: number of mass components
    _dims = 1
    #: component used to build weight-adjustment pilot history
    _alignment_component = 0

    def __init__(
        self,
        client: HiddenDBClient,
        r: int = 4,
        dub: Optional[int] = 32,
        weight_adjustment: bool = True,
        condition: ConditionLike = None,
        attribute_order: Optional[Sequence[int]] = None,
        seed: RandomSource = None,
        smoothing: float = 0.25,
    ) -> None:
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        self.client = client
        self.r = int(r)
        self.dub = dub
        self.weight_adjustment = bool(weight_adjustment)
        self.condition = resolve_condition(client.schema, condition)
        self.root = self.condition if self.condition is not None else ConjunctiveQuery()
        order = free_attribute_order(client.schema, self.condition, attribute_order)
        if not order:
            raise InvalidQueryError(
                "the selection condition fixes every attribute; the answer "
                "is a single form query, no estimation needed"
            )
        self.attribute_order = order
        self.segments = segment_attributes(order, client.schema, dub)
        self.rng = spawn_rng(seed)
        weights = WeightStore(smoothing=smoothing) if weight_adjustment else UniformWeights()
        self.walker = Walker(client, weights, self.rng)
        # Recorded so parallel sessions can rebuild sibling estimators.
        self._session_config = dict(
            r=self.r,
            dub=self.dub,
            weight_adjustment=self.weight_adjustment,
            condition=self.condition,
            attribute_order=tuple(self.attribute_order),
            smoothing=smoothing,
        )

    # -- to be provided by subclasses ------------------------------------

    def _mass(self, result: QueryResult) -> np.ndarray:
        raise NotImplementedError

    def _statistic(self, values: np.ndarray) -> float:
        """Collapse a mass vector into the published scalar statistic."""
        return float(values[0])

    # -- parallel-session support -----------------------------------------

    def _clone_client(self, seed: RandomSource = None) -> HiddenDBClient:
        """A fresh client (own cache, own counter) over the same table.

        Parallel rounds must not share mutable state; only the shared
        table (and its backend) is reused.  A :class:`FlakyInterface`
        wrapper *can* be cloned: each round gets a fresh failure stream
        derived from the round *seed*, so the injected failures — and the
        charges they may incur — are a function of the round alone, never
        of worker scheduling.  Other wrapped interfaces (online
        simulators) carry cross-query state and cannot be cloned.
        """
        from repro.hidden_db.flaky import FlakyInterface
        from repro.hidden_db.interface import TopKInterface

        interface = self.client.interface
        flaky: Optional[FlakyInterface] = None
        if isinstance(interface, FlakyInterface):
            flaky = interface
            interface = interface.interface
        if not isinstance(interface, TopKInterface):
            raise ValueError(
                f"cannot clone a client over {type(interface).__name__}; "
                "parallel sessions need a plain TopKInterface"
            )
        if interface.counter.limit is not None:
            # A hard server budget is shared session state: handing every
            # round a fresh counter would multiply the quota by the round
            # count, and a mid-round QueryLimitExceeded cannot stop a pool
            # gracefully.  Budgeted sessions stay sequential.
            raise ValueError(
                "cannot parallelise over an interface with a hard query "
                "limit; run sequentially (workers=1) to respect the budget"
            )
        from repro.hidden_db.counters import QueryCounter

        fresh = TopKInterface(
            interface.table,
            interface.k,
            ranking=interface.ranking,
            counter=QueryCounter(),
        )
        if flaky is not None:
            # Independent per-round failure stream, fixed by the round
            # seed (the salt decouples it from the walk RNG stream).
            failure_seed = int(
                np.random.default_rng(
                    [0xF1A4 if seed is None else int(seed) & (2**63 - 1), 0xF1A4]
                ).integers(0, 2**63 - 1)
            )
            fresh = FlakyInterface(
                fresh,
                failure_rate=flaky.failure_rate,
                charge_failures=flaky.charge_failures,
                seed=failure_seed,
            )
        return HiddenDBClient(
            fresh,
            cache=self.client._use_cache,
            retries=self.client.retries,
            max_cache_entries=self.client.max_cache_entries,
        )

    def _spawn(self, client: HiddenDBClient, seed: RandomSource) -> "_DrillDownEstimator":
        """A sibling estimator on *client* with an independent RNG stream."""
        return type(self)(client, seed=seed, **self._session_config)

    def parallel_session(
        self,
        workers: int,
        seed: RandomSource = None,
        executor: str = "thread",
    ):
        """A :class:`~repro.core.engine.ParallelSession` over this setup.

        Each round gets a fresh clone of this estimator (fresh client and
        RNG stream) against the shared table; see the engine module for the
        determinism contract.
        """
        return ParallelSession(
            factory=_RoundFactory(self),
            workers=workers,
            seed=seed,
            executor=executor,
            statistic=self._statistic,
        )

    # -- running ----------------------------------------------------------

    def run_once(self) -> RoundEstimate:
        """One full pass -> one unbiased estimate of the mass vector."""
        return drive_plan(self.client, self.run_once_plan())

    def run_once_plan(self) -> Generator:
        """Probe plan of one full pass; returns the :class:`RoundEstimate`.

        The sequential :meth:`run_once` drives this plan against the
        client directly; the cohort engine (:mod:`repro.core.cohort`)
        interleaves many rounds' plans level-synchronously instead.
        """
        cost_before = self.client.cost
        walks_before = self.walker.walks_performed
        # count_only: the root page's classification decides everything the
        # estimators need here; its tuples stay lazy and materialise only
        # if a mass function reads them (exact-valid roots under AGG).
        root_page = yield Probe(self.root)
        if root_page.underflow:
            values = np.zeros(self._dims)
        elif root_page.valid:
            # The whole (sub-)database fits on one page: the estimate is exact.
            values = np.asarray(self._mass(root_page), dtype=float)
        else:
            tree: TreeEstimate = yield from estimate_tree_plan(
                self.walker,
                self.root,
                self.segments,
                self.r,
                self._mass,
                self._dims,
                self._alignment_component,
            )
            values = tree.values
        return RoundEstimate(
            values=values,
            cost=self.client.cost - cost_before,
            walks=self.walker.walks_performed - walks_before,
        )

    def run(
        self,
        rounds: Optional[int] = None,
        query_budget: Union[None, int, QueryBudget] = None,
        stall_rounds: int = 50,
        workers: int = 1,
        executor: str = "thread",
    ) -> EstimationResult:
        """Run rounds until a count or a query budget is reached.

        At least one of *rounds* / *query_budget* must be given.
        *query_budget* may be an int cap or a shared
        :class:`~repro.core.budget.QueryBudget` ledger (a federation
        scheduler hands sessions pre-charged ledgers).  The last round may
        overshoot the budget slightly (a round is atomic; the ledger's
        ``overshoot`` attributes the excess to that final lease).  If the
        underlying interface enforces a hard limit, the session stops
        gracefully when it is hit (keeping the rounds already completed).

        With a budget-only session over a caching client, rounds can become
        free once the client has the walked subtrees cached; *stall_rounds*
        consecutive zero-cost rounds end the session with
        ``stop_reason == "stalled"`` (the estimate has extracted nearly
        everything the cache holds by then).

        With ``workers > 1`` the rounds run on a
        :class:`~repro.core.engine.ParallelSession`: every round gets its
        own client and RNG stream, and the merged result is bit-identical
        for a fixed estimator seed regardless of the worker count.  Parallel
        rounds cannot share the sequential session's result cache or pilot
        weights, so they trade extra queries for wall-clock speed.  Budgets
        are enforced through round-granular leases settled in round order,
        so a budget-bounded parallel session admits exactly the same rounds
        at every worker count.
        """
        if rounds is None and query_budget is None:
            raise ValueError("specify rounds and/or query_budget")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        fold = _RoundFold(self._statistic, self._dims)
        budget = as_budget(query_budget)
        if workers > 1:
            # Without a budget one wave holds every round: a cohort
            # holding many rounds fuses more probes per level.
            wave_size = rounds if query_budget is None else None
            rounds_loop = self._engine_rounds(
                fold, budget, rounds, workers, executor, wave_size
            )
        else:
            stall = stall_rounds if rounds is None else None
            rounds_loop = self._rounds(fold, budget, rounds, stall)
        for _ in rounds_loop:
            pass
        return fold.result()

    def run_until(
        self,
        target_relative_halfwidth: float,
        confidence_z: float = 1.96,
        min_rounds: int = 5,
        max_rounds: int = 10_000,
        query_budget: Union[None, int, QueryBudget] = None,
        stall_rounds: int = 50,
    ) -> EstimationResult:
        """Run rounds until the CI half-width is small enough.

        Because every round is unbiased, the normal-approximation CI of the
        running mean is honest (the paper's headline property); this method
        stops once ``z * SE <= target * |mean|``.  A budget and a round cap
        bound the session either way; ``stop_reason`` records which bound
        fired ("precision", "budget", "max_rounds", "stalled" or
        "hard_limit").
        """
        fold = _RoundFold(self._statistic, self._dims)
        for _ in self._until_rounds(
            fold, target_relative_halfwidth, confidence_z, min_rounds,
            max_rounds, query_budget, stall_rounds,
        ):
            pass
        return fold.result()

    def _until_rounds(
        self,
        fold: _RoundFold,
        target_relative_halfwidth: float,
        confidence_z: float = 1.96,
        min_rounds: int = 5,
        max_rounds: int = 10_000,
        query_budget: Union[None, int, QueryBudget] = None,
        stall_rounds: int = 50,
    ):
        """:meth:`run_until`'s round loop with its defaults, for a caller
        that iterates it round by round (the precision stream)."""
        if target_relative_halfwidth <= 0:
            raise ValueError("target_relative_halfwidth must be positive")
        if min_rounds < 2:
            raise ValueError("min_rounds must be at least 2 (SE needs it)")
        budget = as_budget(query_budget)
        return self._rounds(
            fold, budget, max_rounds,
            # Zero-cost (fully cached) rounds never consume the budget;
            # without the guard a budget-bounded session would spin to
            # max_rounds extracting nothing new from the server.
            stall_rounds=stall_rounds if budget.total is not None else None,
            precision=(target_relative_halfwidth, confidence_z, min_rounds),
        )

    def _rounds(
        self,
        fold: _RoundFold,
        budget: QueryBudget,
        max_rounds: Optional[int],
        stall_rounds: Optional[int] = None,
        precision: Optional[Tuple[float, float, int]] = None,
    ):
        """The sequential cost model's round loop: every round runs on
        this estimator's one client, sharing its cache and pilot weights.

        Each round is leased from *budget*, run, settled, folded into
        *fold* and yielded.  The loop records why it stopped in
        ``fold.stop_reason``: the round cap ("rounds", or "max_rounds"
        under a *precision* rule), the budget, *stall_rounds* zero-cost
        rounds in a row ("stalled"), a server hard limit once a round is
        in ("hard_limit"), or, for *precision* = ``(target, z,
        min_rounds)``, ``z * SE <= target * |mean|`` ("precision").
        """
        lease = None
        stalled = 0
        try:
            while True:
                if max_rounds is not None and fold.count >= max_rounds:
                    fold.stop_reason = (
                        "rounds" if precision is None else "max_rounds"
                    )
                    break
                if budget.exhausted:
                    fold.stop_reason = "budget"
                    break
                if stall_rounds is not None and stalled >= stall_rounds:
                    fold.stop_reason = "stalled"
                    break
                lease = budget.lease()
                cost_before = self.client.cost
                try:
                    round_estimate = self.run_once()
                except QueryLimitExceeded:
                    # The aborted round's partial charges still hit the
                    # server; settle them so the ledger matches the counter.
                    aborted_cost = self.client.cost - cost_before
                    budget.settle(lease, aborted_cost)
                    if fold.count:
                        fold.charge(aborted_cost)
                        fold.stop_reason = "hard_limit"
                        break
                    raise
                budget.settle(lease, round_estimate.cost)
                stalled = stalled + 1 if round_estimate.cost == 0 else 0
                fold.add(round_estimate)
                yield round_estimate
                if precision is not None:
                    target, z, min_rounds = precision
                    running = fold.running
                    if fold.count >= min_rounds and running != 0:
                        if z * fold.stats.std_error <= target * abs(running):
                            fold.stop_reason = "precision"
                            break
            if not fold.count:
                raise ValueError("the query budget allowed no rounds at all")
        finally:
            if lease is not None and lease.open:
                budget.cancel(lease)

    def _engine_rounds(
        self,
        fold: _RoundFold,
        budget: QueryBudget,
        rounds: Optional[int],
        workers: int,
        executor: str = "thread",
        wave_size: Optional[int] = None,
    ):
        """The engine cost model's round loop: one draw from this
        estimator's RNG seeds the session whose waves it iterates; a round
        cap stopping it reads "rounds", as in :meth:`_rounds`."""
        seed = int(self.rng.integers(0, 2**63 - 1))
        with self.parallel_session(workers, seed, executor) as session:
            yield from session._waves(
                fold, budget, rounds, wave_size=wave_size
            )
        if fold.stop_reason == "max_rounds":
            fold.stop_reason = "rounds"


class HDUnbiasedSize(_DrillDownEstimator):
    """HD-UNBIASED-SIZE (Section 5.1): unbiased database-size estimation.

    Combines backtracking drill downs, weight adjustment and
    divide-&-conquer.  ``r`` and ``dub`` are the paper's two parameters;
    ``dub=None`` (or ``r=1``) disables divide-&-conquer and
    ``weight_adjustment=False`` disables weight adjustment, which yields
    the four Figure-14 ablation variants.

    With a *condition*, estimates COUNT(*) over the matching subtree
    (Section 5.2).
    """

    def _mass(self, result: QueryResult) -> np.ndarray:
        return np.array([float(result.num_returned)])


class BoolUnbiasedSize(HDUnbiasedSize):
    """BOOL-UNBIASED-SIZE (Section 3.1): the parameter-less plain estimator.

    One backtracking drill down per round, no weight adjustment, no
    divide-&-conquer.  Despite the historical name it also runs on
    categorical schemas — the walk engine's smart backtracking (Section
    3.2) is the categorical generalisation of the Boolean two-branch case.
    """

    def __init__(
        self,
        client: HiddenDBClient,
        condition: ConditionLike = None,
        attribute_order: Optional[Sequence[int]] = None,
        seed: RandomSource = None,
    ) -> None:
        super().__init__(
            client,
            r=1,
            dub=None,
            weight_adjustment=False,
            condition=condition,
            attribute_order=attribute_order,
            seed=seed,
        )

    def _spawn(self, client: HiddenDBClient, seed: RandomSource) -> "BoolUnbiasedSize":
        return type(self)(
            client,
            condition=self.condition,
            attribute_order=self._session_config["attribute_order"],
            seed=seed,
        )


class HDUnbiasedAgg(_DrillDownEstimator):
    """HD-UNBIASED-AGG (Section 5.2): aggregate estimation.

    Parameters
    ----------
    aggregate:
        ``"count"`` — unbiased COUNT(*) under the condition;
        ``"sum"`` — unbiased SUM(measure) under the condition;
        ``"avg"`` — AVG(measure) as the ratio of the SUM and COUNT
        estimates *from the same walks*.  The paper proves no unbiased AVG
        estimator is practical (Section 5.2); the ratio estimator is biased
        (though consistent) and is provided with that caveat.
    measure:
        Name of the measure column (required for sum/avg).
    """

    def __init__(
        self,
        client: HiddenDBClient,
        aggregate: str = "sum",
        measure: Optional[str] = None,
        **kwargs,
    ) -> None:
        aggregate = aggregate.lower()
        if aggregate not in ("sum", "count", "avg"):
            raise ValueError(f"unsupported aggregate {aggregate!r}")
        if aggregate in ("sum", "avg"):
            if measure is None:
                raise ValueError(f"aggregate {aggregate!r} needs a measure name")
            if measure not in client.schema.measure_names:
                raise InvalidQueryError(
                    f"unknown measure {measure!r}; schema offers "
                    f"{list(client.schema.measure_names)}"
                )
        self.aggregate = aggregate
        self.measure = measure
        self._dims = 2 if aggregate == "avg" else 1
        # Align pilot weights with the aggregated mass (SUM for sum/avg).
        self._alignment_component = 0
        super().__init__(client, **kwargs)

    def _spawn(self, client: HiddenDBClient, seed: RandomSource) -> "HDUnbiasedAgg":
        return type(self)(
            client,
            aggregate=self.aggregate,
            measure=self.measure,
            seed=seed,
            **self._session_config,
        )

    def _mass(self, result: QueryResult) -> np.ndarray:
        if self.aggregate == "count":
            return np.array([float(result.num_returned)])
        total = result.sum_measure(self.measure)
        if self.aggregate == "sum":
            return np.array([total])
        return np.array([total, float(result.num_returned)])

    def _statistic(self, values: np.ndarray) -> float:
        if self.aggregate == "avg":
            if values[1] == 0:
                return float("nan")
            return float(values[0] / values[1])
        return float(values[0])
