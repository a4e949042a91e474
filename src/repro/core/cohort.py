"""Level-synchronous cohort execution: fuse probes across rounds.

A wave of rounds is an average of i.i.d. drill-down passes, which makes
rounds a natural SIMD axis: instead of running R serial walks (one full
probe plan after another), a :class:`CohortWalker` advances *all* live
rounds one probe request at a time, groups the wave's unanswered probes
by their parent node, and answers each group with one bulk
``classify_many`` pass (one fused ``selection_counts_many`` per
drill-down level instead of one backend dispatch per round per level).

Charge-faithful probe memo
--------------------------
Within a cohort, identical ``(query, table-version)`` probes are
**computed once**: the first round that needs a page pays the backend
pass, and the resulting :class:`~repro.hidden_db.interface.QueryResult`
is memoised and handed to every later round that asks.  Every round's
*observable* state is untouched by the sharing:

* its :class:`~repro.hidden_db.counters.QueryCounter` is charged for
  exactly the probes the serial walk would have charged (cache hits stay
  free, misses cost one charge each, in the same order);
* its client cache records the same hits/misses/evictions/stale
  evictions and ends with the same entries in the same LRU order;
* its RNG stream is drawn by its own plan generator, untouched by the
  interleaving (per-round streams are derived up front in round order by
  the engine, as before).

The engine's determinism contract forbids sharing observable state
between rounds, not *compute*: a result page is a pure function of
``(query, table version)``, so a memoised page is indistinguishable from
a recomputed one.  (Result pages are lazy; materialisation binds the
designated interface's table — the same table every cohort round
shares.)  A cohort is therefore bit-identical to running each round's
estimator by itself, one :meth:`run_once` after another.

The only divergence from the serial schedule is *when* backend compute
happens: ``query_many`` classifies a window's whole remaining suffix at
its first cache miss, and the cohort reproduces exactly that compute
shape per round — it just answers it from the memo when another round
already paid for the pass.

Rounds whose interface cannot batch (wrapped interfaces such as
``FlakyInterface`` — their failure streams must see queries one at a
time) or whose counter enforces a hard limit (a mid-batch
``QueryLimitExceeded`` must leave the literal loop's state behind) fall
back to plain :meth:`run_once`, mirroring ``HiddenDBClient.query_many``'s
own fallback conditions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.drilldown import ProbeWindow
from repro.hidden_db.interface import QueryResult
from repro.hidden_db.query import ConjunctiveQuery

__all__ = ["CohortWalker", "run_cohort"]


class _Round:
    """Per-round execution state inside a cohort: plan + pending request."""

    __slots__ = (
        "index",
        "estimator",
        "client",
        "counter",
        "plan",
        "request",
        "hit",
        "use_cache",
        "cache",
        "max_entries",
    )

    def __init__(self, index: int, estimator) -> None:
        self.index = index
        self.estimator = estimator
        client = estimator.client
        self.client = client
        self.counter = client.interface.counter
        self.plan = None
        self.request = None
        self.hit = None  # single-probe cache hit found during the need scan
        # Constant per client for the cohort's lifetime — snapshot once.
        self.use_cache = client._use_cache
        self.cache = client._cache
        self.max_entries = client.max_cache_entries


def _cohort_capable(estimator) -> bool:
    """Mirror of ``HiddenDBClient.query_many``'s bulk-path conditions."""
    interface = estimator.client.interface
    return (
        getattr(interface, "classify_many", None) is not None
        and interface.counter.limit is None
    )


class CohortWalker:
    """Steps a wave of drill-down rounds level-synchronously.

    Parameters
    ----------
    estimators:
        Fresh per-round estimators (each with its own client and RNG
        stream), typically built by the engine's round factory in round
        order.  Their :meth:`run_once_plan` generators are interleaved;
        rounds that cannot batch run serially via :meth:`run_once`.
    """

    def __init__(self, estimators: Sequence) -> None:
        self.estimators = list(estimators)

    def run(self) -> List:
        """Run every round to completion; per-round results in input order."""
        results: List = [None] * len(self.estimators)
        cohort: List[_Round] = []
        interner: dict = {}  # shared child-query table (compute sharing only)
        for index, estimator in enumerate(self.estimators):
            if _cohort_capable(estimator):
                walker = getattr(estimator, "walker", None)
                if walker is not None:
                    walker.interner = interner
                cohort.append(_Round(index, estimator))
            else:
                results[index] = estimator.run_once()
        if cohort:
            self._drive(cohort, results)
        return results

    # -- wave loop ---------------------------------------------------------

    def _drive(self, cohort: List[_Round], results: List) -> None:
        # All cohort rounds share one table (the engine clones clients, not
        # tables); the first round's interface is the designated compute
        # interface the memo pages are classified through.
        #
        # Groups are answered straight against the backend (the compute half
        # of ``classify_many``) without re-validating: every probe a plan
        # yields extends the estimator's root condition — validated once at
        # construction by ``resolve_condition`` — with schema-derived values,
        # so per-wave re-validation would only re-prove the same invariant.
        # Validation has no observable state, so skipping it shares compute
        # without touching any round's ledger.
        interface = cohort[0].client.interface
        backend = interface.table.backend
        counts_many = getattr(backend, "selection_counts_many", None)
        count_one = backend.selection_count
        classified = interface._classified
        memo: Dict[frozenset, QueryResult] = {}
        memo_version = int(getattr(interface, "version", 0))
        live: List[_Round] = []
        for rd in cohort:
            rd.plan = rd.estimator.run_once_plan()
            try:
                rd.request = rd.plan.send(None)
            except StopIteration as stop:  # pragma: no cover - probe-free plan
                results[rd.index] = stop.value
                continue
            live.append(rd)
        while live:
            # One version snapshot per wave step (the serial client reads it
            # per probe; with no mid-request mutation the reads agree).
            version = int(getattr(interface, "version", 0))
            if version != memo_version:
                memo.clear()
                memo_version = version
            # Need scan: one pass over the wave, single probes inlined
            # (the overwhelmingly common request), windows in a helper.
            groups: Dict[Optional[tuple], List[ConjunctiveQuery]] = {}
            for rd in live:
                client = rd.client
                use_cache = rd.use_cache
                cache = rd.cache
                if use_cache and version != client._cached_version:
                    # Mirror of HiddenDBClient._evict_stale — an observable
                    # per-round event, on the round's own cache.
                    client.stale_evictions += len(cache)
                    cache.clear()
                    client._cached_version = version
                request = rd.request
                if request.__class__ is ProbeWindow:
                    _collect_window(rd, use_cache, cache, memo, groups)
                    continue
                q = request.query
                key = q.key
                if use_cache:
                    hit = cache.get(key)
                    if hit is not None:
                        rd.hit = hit  # replay reuses the lookup
                        continue
                if key not in memo:
                    memo[key] = None  # claimed for this wave step
                    predicates = q.predicates
                    if predicates:
                        gkey = (predicates[:-1], predicates[-1][0])
                    else:
                        gkey = None  # the root query: its own group
                    group = groups.get(gkey)
                    if group is None:
                        groups[gkey] = [q]
                    else:
                        group.append(q)
            for queries in groups.values():
                if len(queries) == 1:
                    q = queries[0]
                    memo[q.key] = classified(q, count_one(q))
                elif counts_many is not None:
                    for q, total in zip(queries, counts_many(queries)):
                        memo[q.key] = classified(q, total)
                else:  # pragma: no cover - every bundled backend batches
                    for q in queries:
                        memo[q.key] = classified(q, count_one(q))
            # Replay: answer each round from its own state + the memo, then
            # resume its plan with the response.
            next_live: List[_Round] = []
            for rd in live:
                request = rd.request
                if request.__class__ is ProbeWindow:
                    response = _replay_window(rd, version, memo)
                else:
                    client = rd.client
                    hit = rd.hit
                    if hit is not None:
                        rd.hit = None
                        client.cache_hits += 1
                        rd.cache.move_to_end(request.query.key)
                        response = hit
                    else:
                        q = request.query
                        key = q.key
                        use_cache = rd.use_cache
                        if use_cache:
                            client.cache_misses += 1
                        rd.counter.charge(q)
                        response = memo[key]
                        if not request.count_only:
                            _ = response.tuples
                        if use_cache and version == client._cached_version:
                            cache = rd.cache
                            cache[key] = response
                            max_entries = rd.max_entries
                            if (
                                max_entries is not None
                                and len(cache) > max_entries
                            ):
                                cache.popitem(last=False)
                                client.cache_evictions += 1
                try:
                    rd.request = rd.plan.send(response)
                except StopIteration as stop:
                    results[rd.index] = stop.value
                else:
                    next_live.append(rd)
            live = next_live


def _collect_window(
    rd: _Round,
    use_cache: bool,
    cache,
    memo: Dict[frozenset, QueryResult],
    groups: Dict[Optional[tuple], List[ConjunctiveQuery]],
) -> None:
    """Add the probes *rd*'s pending window will miss on to the wave plan.

    Queries are grouped by ``(parent predicates, probed attribute)`` so
    each group is a sibling window and the backend fuses it into a single
    bulk pass.  A query already claimed by the memo (by this or an earlier
    round this wave) is not re-added: that is the cohort's cross-round
    compute sharing.  (The round's stale-cache eviction already ran in the
    caller's scan loop.)
    """
    request = rd.request
    until = request.until
    missed = False
    for q in request.queries:
        if not missed:
            hit = cache.get(q.key) if use_cache else None
            if hit is not None:
                if until is not None and until(hit):
                    return
                continue
            missed = True
        # query_many classifies the window's whole remaining suffix at
        # its first cache miss; reproduce that compute shape.
        key = q.key
        if key not in memo:
            memo[key] = None  # claimed for this wave step
            predicates = q.predicates
            if predicates:
                gkey = (predicates[:-1], predicates[-1][0])
            else:  # pragma: no cover - windows never probe the root
                gkey = None
            group = groups.get(gkey)
            if group is None:
                groups[gkey] = [q]
            else:
                group.append(q)


def _replay_window(
    rd: _Round, version: int, memo: Dict[frozenset, QueryResult]
) -> List[QueryResult]:
    """Answer *rd*'s pending window from the memo, byte-exactly.

    This is ``HiddenDBClient.query_many`` with the interface call replaced
    by a memo lookup: hits, misses, charges, cache inserts, LRU evictions
    and ``until`` early exits all happen on the round's own state in the
    serial order.
    """
    client = rd.client
    use_cache = rd.use_cache
    cache = rd.cache
    counter = rd.counter
    max_entries = rd.max_entries
    cacheable = use_cache and version == client._cached_version
    request = rd.request
    count_only = request.count_only
    until = request.until
    out: List[QueryResult] = []
    for q in request.queries:
        key = q.key
        hit = cache.get(key) if use_cache else None
        if hit is not None:
            client.cache_hits += 1
            cache.move_to_end(key)
            result = hit
        else:
            if use_cache:
                client.cache_misses += 1
            counter.charge(q)
            result = memo[key]
            if not count_only:
                _ = result.tuples
            if cacheable:
                cache[key] = result
                if max_entries is not None and len(cache) > max_entries:
                    cache.popitem(last=False)
                    client.cache_evictions += 1
        out.append(result)
        if until is not None and until(result):
            break
    return out


def run_cohort(factory, seeds: Sequence[int]) -> List[Tuple]:
    """Run one wave of rounds as a cohort; ``(estimate, report)`` per seed.

    The engine's unit of work: module-level (and therefore picklable) so
    process pools can ship one cohort per worker slice in a single task.
    Seed order is preserved — merging stays round-ordered.
    """
    estimators = [factory(seed) for seed in seeds]
    outcomes = CohortWalker(estimators).run()
    return [
        (outcome, estimator.client.report())
        for estimator, outcome in zip(estimators, outcomes)
    ]
