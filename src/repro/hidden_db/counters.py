"""Query accounting and the client-side caching layer.

The paper's efficiency metric is the number of queries issued through the
web interface (Section 2.2).  :class:`QueryCounter` does the server-side
book-keeping (with an optional hard budget, like Yahoo! Auto's 1,000
queries/IP/day); :class:`HiddenDBClient` is the rational client wrapper the
estimators talk to — it memoises result pages so re-asking a known query is
free, and it tracks the cost actually charged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.hidden_db.exceptions import QueryLimitExceeded
from repro.hidden_db.query import ConjunctiveQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hidden_db.interface import QueryResult, TopKInterface

__all__ = ["QueryCounter", "HiddenDBClient"]


@dataclass
class QueryCounter:
    """Counts queries charged by an interface, with an optional hard limit."""

    limit: Optional[int] = None
    issued: int = 0
    keep_history: bool = False
    history: List[ConjunctiveQuery] = field(default_factory=list)

    def charge(self, query: ConjunctiveQuery) -> None:
        """Charge one query; raise :class:`QueryLimitExceeded` over budget."""
        if self.limit is not None and self.issued >= self.limit:
            raise QueryLimitExceeded(
                f"query budget of {self.limit} exhausted"
            )
        self.issued += 1
        if self.keep_history:
            self.history.append(query)

    @property
    def remaining(self) -> Optional[int]:
        """Queries left in the budget (``None`` when unlimited)."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.issued)

    def reset(self) -> None:
        """Zero the counter (e.g. a new day for a daily limit)."""
        self.issued = 0
        self.history.clear()


class HiddenDBClient:
    """Client-side view of a hidden database: interface + result cache.

    All estimators take a client, never a raw interface.  The client:

    * submits queries through the interface and **caches every result page**
      in a bounded LRU keyed by the canonical conjunction, so repeated
      queries cost nothing (drill downs over the same subtree share their
      upper levels);
    * exposes ``cost`` — the number of queries actually charged — which is
      the x-axis of every figure in the paper;
    * supports checkpointing costs so an experiment can attribute queries to
      individual drill downs.

    Parameters
    ----------
    interface:
        The top-k form to wrap.
    cache:
        Whether to memoise result pages at all.
    retries:
        Transient-failure retry budget per submission.
    max_cache_entries:
        LRU capacity of the result cache (``None`` = unbounded).  The
        default is large enough that ordinary sessions never evict; bound it
        tighter to model memory-constrained clients — evicted pages are
        simply re-charged on the next ask, so estimates stay unbiased.
    """

    #: Default LRU capacity — generous, but no longer an unbounded dict.
    DEFAULT_MAX_CACHE_ENTRIES = 1_000_000

    def __init__(
        self,
        interface: "TopKInterface",
        cache: bool = True,
        retries: int = 0,
        max_cache_entries: Optional[int] = DEFAULT_MAX_CACHE_ENTRIES,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError("max_cache_entries must be positive or None")
        self.interface = interface
        self._use_cache = cache
        self._cache: "OrderedDict[frozenset, QueryResult]" = OrderedDict()
        self.max_cache_entries = max_cache_entries
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.stale_evictions = 0
        self.retries = retries
        self.retries_performed = 0
        self._cached_version = self._interface_version()

    # -- identity of the underlying form --------------------------------

    @property
    def schema(self):
        """Schema of the underlying form."""
        return self.interface.schema

    @property
    def k(self) -> int:
        """Result-page size of the underlying form."""
        return self.interface.k

    @property
    def cost(self) -> int:
        """Queries charged so far by the server.

        For interfaces with a rolling (e.g. daily) counter, the lifetime
        total is used, so the cost never appears to reset mid-session.
        """
        total = getattr(self.interface, "total_issued", None)
        if total is not None:
            return int(total)
        return self.interface.counter.issued

    # -- querying --------------------------------------------------------

    def _interface_version(self) -> int:
        """Current mutation epoch of the underlying form (0 when static)."""
        return int(getattr(self.interface, "version", 0))

    def _evict_stale(self) -> None:
        """Drop every cached page computed at an older table version.

        Cache entries are only ever stored for the version they were
        answered at, so a version change stales the *whole* cache: the
        entries are counted as stale evictions and dropped wholesale.
        Hit/miss counters are untouched — unlike :meth:`clear_cache`, this
        is an invalidation event, not a session reset.
        """
        version = self._interface_version()
        if version == self._cached_version:
            return
        self.stale_evictions += len(self._cache)
        self._cache.clear()
        self._cached_version = version

    def query(self, q: ConjunctiveQuery, count_only: bool = False) -> "QueryResult":
        """Submit *q*, serving it from cache when possible.

        Transient server errors (see :mod:`repro.hidden_db.flaky`) are
        retried up to ``retries`` times; the final failure propagates.
        Retrying is sound — a failed submission reveals nothing about the
        data, so unbiasedness is untouched.

        ``count_only=True`` requests only the page classification (outcome
        and result count) — hot estimator loops use it to skip tuple
        materialisation.  The charge and the cache entry are identical
        either way, so mixing count-only and full asks of the same query
        never costs an extra submission.

        Cached pages are keyed to the table version they were answered at:
        when the underlying table has mutated since, the stale entries are
        evicted (counted in ``cache_info()['stale_evictions']``) and the
        query is re-charged against the live database — a stale page is
        never served.
        """
        if self._use_cache:
            self._evict_stale()
            hit = self._cache.get(q.key)
            if hit is not None:
                self.cache_hits += 1
                self._cache.move_to_end(q.key)
                return hit
            self.cache_misses += 1
        if self.retries == 0:
            # Fast path: no retry budget means no need to intercept
            # transient errors (they propagate exactly as the loop's final
            # failure would) — and no per-call exception-class import.
            result = self.interface.query(q, count_only=count_only)
        else:
            from repro.hidden_db.flaky import TransientServerError

            attempts = self.retries + 1
            for attempt in range(attempts):
                try:
                    result = self.interface.query(q, count_only=count_only)
                    break
                except TransientServerError:
                    if attempt + 1 >= attempts:
                        raise
                    self.retries_performed += 1
        if self._use_cache and self._interface_version() == self._cached_version:
            # (The version guard drops a page answered mid-mutation instead
            # of caching it under the wrong epoch.)
            self._cache[q.key] = result
            self._cache.move_to_end(q.key)
            if (
                self.max_cache_entries is not None
                and len(self._cache) > self.max_cache_entries
            ):
                self._cache.popitem(last=False)
                self.cache_evictions += 1
        return result

    def query_many(
        self,
        queries: Sequence[ConjunctiveQuery],
        count_only: bool = True,
        until: Optional[Callable[["QueryResult"], bool]] = None,
    ) -> List["QueryResult"]:
        """Submit a probe batch; semantically a :meth:`query` loop.

        Equivalent — in results, charges, charge order and cache state — to::

            out = []
            for q in queries:
                result = self.query(q, count_only=count_only)
                out.append(result)
                if until is not None and until(result):
                    break
            return out

        *until* models the drill-down's early exits (smart backtracking
        stops at the first non-underflowing sibling): only the consumed
        prefix is ever charged or cached, so batching never costs a query
        the sequential walk would not have paid.  The win is on the
        simulation side — the whole window's classification is computed as
        one bulk backend pass (``classify_many``) up front.

        Falls back to the literal loop when the interface offers no bulk
        classification (wrapped interfaces: flaky, online — their
        failure/state streams must see queries one at a time) or when a
        hard query limit is set (a mid-batch ``QueryLimitExceeded`` must
        leave exactly the loop's cache state behind).
        """
        classify = getattr(self.interface, "classify_many", None)
        if classify is None or self.interface.counter.limit is not None:
            out: List["QueryResult"] = []
            for q in queries:
                result = self.query(q, count_only=count_only)
                out.append(result)
                if until is not None and until(result):
                    break
            return out
        if not queries:
            return []
        counter = self.interface.counter
        use_cache = self._use_cache
        if use_cache:
            self._evict_stale()
        # The remaining window is classified in ONE bulk pass, but only
        # once the replay reaches its first cache miss — a window served
        # entirely from cache (or cut short by `until` before any miss)
        # costs no backend work at all.
        classified: Optional[List["QueryResult"]] = None
        classified_from = 0
        out: List["QueryResult"] = []
        for i, q in enumerate(queries):
            if use_cache:
                hit = self._cache.get(q.key)
            else:
                hit = None
            if hit is not None:
                self.cache_hits += 1
                self._cache.move_to_end(q.key)
                result = hit
            else:
                if classified is None:
                    classified = classify(queries[i:])
                    classified_from = i
                if use_cache:
                    self.cache_misses += 1
                counter.charge(q)
                result = classified[i - classified_from]
                if not count_only:
                    _ = result.tuples
                if use_cache and self._interface_version() == self._cached_version:
                    self._cache[q.key] = result
                    self._cache.move_to_end(q.key)
                    if (
                        self.max_cache_entries is not None
                        and len(self._cache) > self.max_cache_entries
                    ):
                        self._cache.popitem(last=False)
                        self.cache_evictions += 1
            out.append(result)
            if until is not None and until(result):
                break
        return out

    def is_cached(self, q: ConjunctiveQuery) -> bool:
        """True when *q* would be answered without charging the server."""
        if not self._use_cache:
            return False
        if self._interface_version() != self._cached_version:
            return False  # everything cached is stale
        return q.key in self._cache

    def clear_cache(self) -> None:
        """Drop the client cache (simulates a fresh session)."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.stale_evictions = 0
        self._cached_version = self._interface_version()

    def cache_info(self) -> Dict[str, Optional[int]]:
        """Hit/miss/eviction statistics of the result cache.

        ``evictions`` counts LRU capacity evictions; ``stale_evictions``
        counts entries dropped because the underlying table moved to a new
        version (mutation epochs); ``version`` is the epoch the current
        entries belong to.
        """
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "stale_evictions": self.stale_evictions,
            "entries": len(self._cache),
            "capacity": self.max_cache_entries,
            "version": self._cached_version,
        }

    def report(self) -> Dict[str, float]:
        """Counter report: query accounting plus cache statistics.

        This is the per-session record the experiment harness and the
        parallel engine merge — every value is a plain number so reports
        from independent workers sum component-wise (``hit_rate`` excepted;
        it is recomputed from the merged hits/misses).
        """
        lookups = self.cache_hits + self.cache_misses
        return {
            "cost": self.cost,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_stale_evictions": self.stale_evictions,
            "cache_entries": len(self._cache),
            "hit_rate": (self.cache_hits / lookups) if lookups else 0.0,
            "retries_performed": self.retries_performed,
        }

    def __getstate__(self):
        """Pickle with an empty result cache.

        Cached pages are lazy (each holds the interface, and through it
        the table), so a pickled client starts cold.  That is
        exactly the parallel-round contract anyway — worker rounds never
        reuse the template client's cache.
        """
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        return state

    def __repr__(self) -> str:
        return (
            f"HiddenDBClient(cost={self.cost}, cached={len(self._cache)}, "
            f"hits={self.cache_hits}, misses={self.cache_misses})"
        )
