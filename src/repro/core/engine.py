"""Parallel round-execution engine.

The HD-UNBIASED estimators average i.i.d. rounds, and rounds touch nothing
but their own client and RNG — they are embarrassingly parallel.
:class:`ParallelSession` fans rounds out over a thread (or process) pool
and merges the per-round :class:`~repro.core.estimators.RoundEstimate`\\ s
and query-cost accounting back into one
:class:`~repro.core.estimators.EstimationResult`.

Determinism contract
--------------------
Results are **bit-identical for a fixed seed regardless of worker count**.
Three ingredients make that hold:

* every round gets its own RNG stream, derived *up front* from the session
  seed in round order (worker scheduling can then never influence a pick);
* every round runs against a fresh client (own result cache, own counter)
  over the shared read-only table, so a round's query cost depends only on
  its own walk, never on which worker ran it or what ran before it;
* merging happens in round-index order after all workers finish.

The price of that contract is that parallel rounds cannot share a result
cache or pilot weight history the way a sequential session does — each
round re-pays its cache misses.  Parallel sessions therefore trade query
cost for wall-clock speed; the estimates themselves stay unbiased (rounds
are i.i.d. by construction).

The worker pool is created lazily on the first multi-worker wave and
**reused across waves** (budgeted sessions and the dynamic trackers call
:meth:`ParallelSession.run_rounds` many times per session); call
:meth:`ParallelSession.close` — or use the session as a context manager —
to release the pool threads deterministically.  An unclosed session
releases them on garbage collection.

Budget-bounded sessions
-----------------------
:meth:`ParallelSession.run_budgeted` extends the contract to query
budgets.  The session executes rounds in *waves*: before each wave it
leases one round per wave slot from the :class:`~repro.core.budget.QueryBudget`
ledger (leases issued in round order up front), runs the wave
concurrently, then settles the leases **in round order** — a round is
admitted into the result while the settled spend is below the budget, and
any later rounds of the wave are speculative work that gets cancelled and
discarded.  Because admission looks only at round-order costs (each a
deterministic function of its round seed), the admitted round set — and
hence the merged result — is bit-identical at every worker count; only
the amount of discarded speculative work varies.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.budget import QueryBudget, as_budget
from repro.core.cohort import run_cohort
from repro.utils.rng import RandomSource, spawn_rng
from repro.utils.stats import RunningStats, StreamingMeanSeries

__all__ = ["ParallelSession", "merge_rounds"]

#: Builds a fresh estimator (with its own client) from an integer seed.
EstimatorFactory = Callable[[int], "object"]


class _RoundFold:
    """One session's admitted rounds, folded in round order.

    Both cost models' round loops and :func:`merge_rounds` fold through
    this.  Its running sums make a streaming snapshot cost O(1) plus the
    copy of the trajectory it carries.  A round loop records why it
    stopped in :attr:`stop_reason`.
    """

    def __init__(
        self,
        statistic: Callable[[np.ndarray], float],
        dims: Optional[int] = None,
    ) -> None:
        self.statistic = statistic
        # Sized by the first round when the caller cannot know *dims*.
        self.vector_sum = None if dims is None else np.zeros(dims)
        self.rounds: List["object"] = []
        self.scalars: List[float] = []
        self.stats = RunningStats()
        self.trajectory = StreamingMeanSeries()
        self.total_cost = 0
        self.stop_reason: Optional[str] = None

    @property
    def count(self) -> int:
        return len(self.rounds)

    @property
    def running(self) -> float:
        """The running statistic over the rounds folded so far."""
        return self.statistic(self.vector_sum / len(self.rounds))

    def add(self, round_estimate) -> None:
        values = round_estimate.values
        if self.vector_sum is None:
            self.vector_sum = np.zeros(len(values))
        self.vector_sum += values
        self.rounds.append(round_estimate)
        scalar = self.statistic(values)
        self.scalars.append(scalar)
        self.stats.add(scalar)
        self.total_cost += round_estimate.cost
        self.trajectory.append(self.total_cost, self.running)

    def charge(self, cost: int) -> None:
        """Count an aborted round's queries (no trajectory point)."""
        self.total_cost += cost

    def result(self) -> "object":
        """The :class:`~repro.core.estimators.EstimationResult` so far; it
        shares the fold's lists, so a lasting snapshot copies them."""
        from repro.core.estimators import EstimationResult

        if not self.rounds:
            raise ValueError("cannot merge an empty round list")
        return EstimationResult(
            estimates=self.scalars,
            mean=self.running,
            std_error=self.stats.std_error,
            ci95=self.stats.confidence_interval(),
            total_cost=self.total_cost,
            rounds=self.count,
            trajectory=self.trajectory,
            raw_rounds=self.rounds,
            stop_reason=self.stop_reason,
        )


def merge_rounds(
    per_round: List["object"],
    statistic: Callable[[np.ndarray], float],
    dims: int,
    stop_reason: Optional[str] = None,
) -> "object":
    """Fold ordered RoundEstimates into one EstimationResult.

    Reproduces exactly what a sequential session assembles: per-round
    scalars, the running statistic against *cumulative* cost (rounds are
    laid on the cost axis in round-index order), and the normal CI over the
    scalars.  A ``None`` *stop_reason* is coerced to ``"rounds"`` by the
    result type — every session end reports a concrete reason.
    """
    fold = _RoundFold(statistic, dims)
    for round_estimate in per_round:
        fold.add(round_estimate)
    fold.stop_reason = stop_reason
    return fold.result()


@dataclass
class ParallelSession:
    """Runs estimator rounds concurrently and merges them deterministically.

    Parameters
    ----------
    factory:
        ``seed -> estimator``; must build a *fresh* estimator with its own
        client/counter each call (rounds never share mutable state).  The
        estimator needs ``client``, ``run_once_plan()`` / ``run_once()``
        (see :mod:`repro.core.cohort`) and ``_statistic`` — i.e. any
        member of the HD-UNBIASED family.
    workers:
        Pool size.  ``workers=1`` still goes through the engine (same
        per-round isolation), which is what the bit-identity guarantee is
        measured against.
    seed:
        Session seed; round streams are derived from it in round order.
    executor:
        ``"thread"`` (default — numpy releases the GIL on the heavy ops and
        rounds share the read-only table for free) or ``"process"``
        (requires a picklable factory).
    statistic:
        Collapses a mass vector into the published scalar; defaults to the
        factory product's ``_statistic``.

    Example
    -------
    >>> session = ParallelSession(
    ...     lambda seed: HDUnbiasedSize(
    ...         HiddenDBClient(TopKInterface(table, k=100)), seed=seed),
    ...     workers=4, seed=7)                        # doctest: +SKIP
    >>> result = session.run(rounds=40)               # doctest: +SKIP
    """

    factory: EstimatorFactory
    workers: int = 1
    seed: RandomSource = None
    executor: str = "thread"
    statistic: Optional[Callable[[np.ndarray], float]] = None
    #: Component-wise sum of every round-client's ``report()`` (merged
    #: query-cost and cache accounting across workers).
    client_stats: Dict[str, float] = field(default_factory=dict)
    #: Rounds executed past a budget's stopping point and discarded
    #: (speculative wave work; grows with ``workers``, never the result).
    speculative_rounds: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {self.executor!r}"
            )
        self._pool = None

    def _get_pool(self):
        """The session's persistent worker pool (created on first use)."""
        if self._pool is None:
            if self.executor == "process":
                self._check_factory_picklable()
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            else:
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
        return self._pool

    def _check_factory_picklable(self) -> None:
        """Fail fast — and intelligibly — on an unpicklable factory.

        Without this, a lambda factory surfaces as a ``BrokenProcessPool``
        several frames away from the actual culprit.  The check runs once,
        at pool creation, after ``prepare_shared_memory`` has swapped the
        table payload for its handle — so it prices and validates the real
        task payload.
        """
        import pickle

        try:
            pickle.dumps(self.factory)
        except Exception as exc:
            raise TypeError(
                f"executor='process' needs a picklable estimator factory, "
                f"but {self.factory!r} cannot be pickled ({exc}).  Lambdas "
                "and closures never cross process boundaries - build the "
                "session via estimator.parallel_session(), or pass a "
                "module-level callable / functools.partial; alternatively "
                "keep executor='thread'."
            ) from exc

    def close(self) -> None:
        """Shut the worker pool down (idempotent; sessions stay usable —
        the next wave simply builds a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        release = getattr(self.factory, "release_shared_memory", None)
        if release is not None:
            release()

    def __enter__(self) -> "ParallelSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    def round_seeds(self, rounds: int) -> List[int]:
        """The per-round RNG seeds, fixed by the session seed alone."""
        master = spawn_rng(self.seed)
        return [int(master.integers(0, 2**63 - 1)) for _ in range(rounds)]

    def run_rounds(self, seeds: List[int]) -> List[Tuple]:
        """Execute one round per seed and return ``(estimate, stats)`` pairs.

        This is the engine's fan-out primitive: the caller supplies the
        exact per-round seeds (in order), the pool executes them on
        ``workers`` threads/processes, and the outcomes come back **in seed
        order** regardless of scheduling — the worker-count-invariance
        contract in its rawest form.  ``run`` layers the session-seed
        derivation and result merging on top; the dynamic-database
        estimators (:mod:`repro.core.dynamic`) call this directly with
        their stored round seeds to reissue specific prior rounds.
        """
        if not seeds:
            return []
        # Each worker's contiguous slice runs as one level-synchronous
        # cohort (probes fused across its rounds), in seed order.  The
        # module-level name is looked up per call so a wrapped
        # ``run_cohort`` (e.g. a tracer) sees every slice.
        outcomes: List[Optional[Tuple]] = [None] * len(seeds)
        if self.workers == 1:
            outcomes = run_cohort(self.factory, seeds)
        else:
            if self.executor == "process":
                # Shared-memory transport: export the table columns once (a
                # per-version no-op on later waves), then ship each worker
                # its contiguous slice of the wave as ONE task — the payload
                # is a handle plus seeds, not the table.
                prepare = getattr(self.factory, "prepare_shared_memory", None)
                if prepare is not None:
                    prepare()
            pool = self._get_pool()
            futures = {
                pool.submit(run_cohort, self.factory, chunk): start
                for start, chunk in _contiguous_chunks(seeds, self.workers)
            }
            for future, start in futures.items():
                for j, outcome in enumerate(future.result()):
                    outcomes[start + j] = outcome
        return outcomes

    def run(self, rounds: int) -> "object":
        """Execute *rounds* independent rounds and merge them.

        Returns the same :class:`~repro.core.estimators.EstimationResult` a
        sequential session produces; ``client_stats`` on the session holds
        the merged per-round cache/cost reports afterwards.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        fold = self._fold()
        # One wave holds every round: a cohort holding many rounds fuses
        # more probes per level than several smaller ones.
        for _ in self._waves(fold, QueryBudget(), rounds, wave_size=rounds):
            pass
        fold.stop_reason = "rounds"
        return fold.result()

    def run_budgeted(
        self,
        budget: Union[int, float, QueryBudget],
        max_rounds: Optional[int] = None,
        cost_scale: float = 1.0,
        min_rounds: int = 0,
    ) -> "object":
        """Execute rounds until the budget ledger (or a round cap) is hit.

        *budget* is an int/float cap or a pre-charged
        :class:`~repro.core.budget.QueryBudget` shared with a scheduler.
        The wave protocol (see the module docstring) admits a round while
        the spend settled **in round order** is below the budget, so the
        admitted rounds — and the merged result — are bit-identical at
        every worker count.  The last admitted round may overshoot (rounds
        are atomic); the ledger attributes the excess to that lease.
        Speculative rounds executed past the stopping point are cancelled:
        their simulated queries are never charged to the ledger or the
        result, and ``speculative_rounds`` on the session counts them.

        *cost_scale* converts raw queries into ledger cost units (a
        federated scheduler budgeting across sources that price their
        queries differently settles ``round.cost * cost_scale``); the
        merged result still reports raw query counts.

        *min_rounds* admits the first N rounds unconditionally (forced
        leases, charged as overshoot if the grant cannot cover them) — a
        scheduler that needs a standard error from every source
        guarantees itself two rounds even on a tiny grant.  Admission
        stays a pure round-order rule either way.
        """
        fold = self._fold()
        for _ in self._waves(
            fold, as_budget(budget), max_rounds, cost_scale, min_rounds
        ):
            pass
        return fold.result()

    def _waves(
        self,
        fold: _RoundFold,
        budget: QueryBudget,
        max_rounds: Optional[int] = None,
        cost_scale: float = 1.0,
        min_rounds: int = 0,
        wave_size: Optional[int] = None,
    ):
        """The engine cost model's round loop: the wave protocol.

        Waves of *wave_size* rounds (default ``workers``) are settled in
        round order into *fold*, each admitted ``RoundEstimate`` yielded
        once folded; ``fold.stop_reason`` ends as "max_rounds" or
        "budget".  :meth:`run` and :meth:`run_budgeted` drain it, a
        stream iterates it, and closing it cancels the open leases.
        """
        if budget.total is None and max_rounds is None:
            raise ValueError(
                "an unlimited ledger needs max_rounds (nothing else stops "
                "the session)"
            )
        if max_rounds is not None and max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        if cost_scale <= 0:
            raise ValueError(f"cost_scale must be positive, got {cost_scale}")
        if min_rounds < 0:
            raise ValueError(f"min_rounds must be >= 0, got {min_rounds}")
        if max_rounds is not None:
            min_rounds = min(min_rounds, max_rounds)
        wave_size = wave_size or self.workers
        master = spawn_rng(self.seed)
        reports: List[Dict[str, float]] = []
        leases: List = []
        self.speculative_rounds = 0
        try:
            while True:
                if max_rounds is not None and fold.count >= max_rounds:
                    fold.stop_reason = "max_rounds"
                    break
                forced_left = max(0, min_rounds - fold.count)
                if budget.exhausted and not forced_left:
                    fold.stop_reason = "budget"
                    break
                # On an exhausted ledger only the forced remainder may run.
                wave = forced_left if budget.exhausted else wave_size
                if max_rounds is not None:
                    wave = min(wave, max_rounds - fold.count)
                # Leases issued in round order up front, one per wave slot;
                # seeds come from the same master stream in the same order,
                # so round i's seed never depends on the wave partitioning.
                leases = [
                    budget.lease(force=fold.count + j < min_rounds)
                    for j in range(wave)
                ]
                seeds = [
                    int(master.integers(0, 2**63 - 1)) for _ in range(wave)
                ]
                outcomes = self.run_rounds(seeds)
                for lease, (round_estimate, stats) in zip(leases, outcomes):
                    if budget.exhausted and fold.count >= min_rounds:
                        budget.cancel(lease)
                        self.speculative_rounds += 1
                        continue
                    charge = round_estimate.cost
                    if cost_scale != 1:
                        charge = charge * cost_scale
                    budget.settle(lease, charge)
                    fold.add(round_estimate)
                    reports.append(stats)
                    yield round_estimate
            if not fold.count:
                raise ValueError("the query budget allowed no rounds at all")
            self.client_stats = _sum_reports(reports)
        finally:
            for lease in leases:
                if lease.open:
                    budget.cancel(lease)

    def _fold(self) -> _RoundFold:
        return _RoundFold(self.statistic or self.factory(0)._statistic)


def _contiguous_chunks(seeds: List[int], workers: int):
    """Split *seeds* into at most *workers* contiguous, balanced slices.

    Yields ``(start_index, slice)`` pairs.  Contiguity is what keeps the
    process path's reassembly trivially order-preserving; balance (sizes
    differ by at most one) keeps the wave's critical path at
    ``ceil(n / workers)`` rounds.
    """
    parts = min(workers, len(seeds))
    base, extra = divmod(len(seeds), parts)
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        yield start, seeds[start:start + size]
        start += size


def _sum_reports(reports: List[Dict[str, float]]) -> Dict[str, float]:
    """Component-wise sum of client reports; hit_rate recomputed."""
    merged: Dict[str, float] = {}
    for report in reports:
        for key, value in report.items():
            merged[key] = merged.get(key, 0.0) + value
    lookups = merged.get("cache_hits", 0.0) + merged.get("cache_misses", 0.0)
    if "hit_rate" in merged:
        merged["hit_rate"] = (merged.get("cache_hits", 0.0) / lookups) if lookups else 0.0
    return merged
