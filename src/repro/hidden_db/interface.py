"""The restrictive top-k web form interface.

This is the only view of the database the estimators are allowed to use.
Submitting a conjunctive query yields one of three outcomes (Section 2.1):

* **underflow** — no tuple matches; nothing is returned;
* **valid** — 1..k tuples match; *all* of them are returned;
* **overflow** — more than k tuples match; the top-k under the ranking
  function are returned together with an overflow flag.  The true match
  count is *not* revealed, and there is no page-through.

Every submission is charged to a :class:`~repro.hidden_db.counters.QueryCounter`;
rational clients wrap the interface in a
:class:`~repro.hidden_db.counters.HiddenDBClient` that caches results so a
repeated query is free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hidden_db.counters import QueryCounter
from repro.hidden_db.exceptions import InvalidQueryError, StaleResultError
from repro.hidden_db.query import ConjunctiveQuery
from repro.hidden_db.ranking import RankingFunction, StaticScoreRanking
from repro.hidden_db.table import HiddenTable

__all__ = ["QueryOutcome", "ReturnedTuple", "QueryResult", "TopKInterface"]


class QueryOutcome(enum.Enum):
    """Classification of a submitted query (Section 2.1)."""

    UNDERFLOW = "underflow"
    VALID = "valid"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class ReturnedTuple:
    """One tuple as displayed on a result page.

    ``values`` are the searchable attribute values (a result page displays
    the car's make, colour, options...), ``measures`` the non-searchable
    numeric fields (price...).  Because the database holds no duplicate
    tuples, ``values`` uniquely identifies the tuple — capture–recapture
    uses it as the identity for overlap counting.
    """

    values: Tuple[int, ...]
    measures: Dict[str, float]

    def measure(self, name: str) -> float:
        """Value of measure *name* for this tuple."""
        return self.measures[name]


class QueryResult:
    """What the web page shows after a query submission.

    The page's *classification* (outcome, number of displayed tuples) is
    always available immediately; the displayed tuples themselves can be
    **lazy** — built on first access from the page's source.
    Estimator hot loops mostly classify pages (underflow? valid? how many
    rows?), so skipping :class:`ReturnedTuple` construction until someone
    actually reads the rows removes the dominant allocation cost of a
    simulated round.  Materialisation is deterministic (same backend, same
    ranking), so a lazy page is indistinguishable from an eager one.
    """

    __slots__ = ("outcome", "_tuples", "_num_returned", "_page")

    def __init__(
        self,
        outcome: QueryOutcome,
        tuples: Optional[Tuple[ReturnedTuple, ...]] = None,
        *,
        num_returned: Optional[int] = None,
        page: Optional["_LazyPage"] = None,
    ) -> None:
        if tuples is None and page is None:
            raise ValueError("QueryResult needs tuples or a page")
        self.outcome = outcome
        self._tuples = tuples
        self._page = page
        if num_returned is not None:
            self._num_returned = int(num_returned)
        elif tuples is not None:
            self._num_returned = len(tuples)
        else:
            raise ValueError("a lazy QueryResult needs an explicit num_returned")

    @property
    def tuples(self) -> Tuple[ReturnedTuple, ...]:
        """The displayed tuples (materialised on first access)."""
        if self._tuples is None:
            self._tuples = self._page.tuples()
            self._page = None
        return self._tuples

    @property
    def is_materialized(self) -> bool:
        """True once the displayed tuples have been built."""
        return self._tuples is not None

    @property
    def overflow(self) -> bool:
        """True when the page carries the "too many results" flag."""
        return self.outcome is QueryOutcome.OVERFLOW

    @property
    def underflow(self) -> bool:
        """True when the page shows no results."""
        return self.outcome is QueryOutcome.UNDERFLOW

    @property
    def valid(self) -> bool:
        """True when all matching tuples are shown (1..k of them)."""
        return self.outcome is QueryOutcome.VALID

    @property
    def num_returned(self) -> int:
        """|q| = min(k, |Sel(q)|) — the number of displayed tuples."""
        return self._num_returned

    def sum_measure(self, name: str) -> float:
        """Sum of measure *name* over the displayed tuples.

        A page not yet materialised sums the measure column over its shown
        rows and stays lazy: builtin ``sum`` over the same floats, in the
        same order, as the tuples would give, so the result is the same to
        the bit either way.
        """
        if self._tuples is None:
            return self._page.measure_sum(name)
        return sum(t.measures[name] for t in self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.outcome is other.outcome and self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash((self.outcome, self.tuples))

    def __repr__(self) -> str:
        shown = len(self._tuples) if self._tuples is not None else "lazy"
        return (
            f"QueryResult({self.outcome.value}, returned={self._num_returned}, "
            f"tuples={shown})"
        )


class _LazyPage:
    """The rows behind a classified page, read from the table on demand.

    Holds what the form knew when it classified the page: the query, the
    outcome and the table version.  The page was classified at that
    version; re-deriving it after the table has mutated would silently mix
    epochs, so reading it then raises :class:`StaleResultError`.
    """

    __slots__ = ("interface", "query", "outcome", "version")

    def __init__(
        self,
        interface: "TopKInterface",
        query: ConjunctiveQuery,
        outcome: QueryOutcome,
        version: int,
    ) -> None:
        self.interface = interface
        self.query = query
        self.outcome = outcome
        self.version = version

    def shown_ids(self) -> np.ndarray:
        """Physical ids of the displayed rows, in display order."""
        interface = self.interface
        if interface.version != self.version:
            raise StaleResultError(
                f"page classified at table version {self.version} materialised "
                f"at version {interface.version}; re-issue the query"
            )
        table = interface.table
        ids = table.selection_ids(self.query)
        if self.outcome is QueryOutcome.VALID:
            return np.sort(ids)
        return interface.ranking.order(ids, table)[: interface.k]

    def tuples(self) -> Tuple[ReturnedTuple, ...]:
        """The displayed tuples, built one per shown row."""
        table = self.interface.table
        return tuple(
            ReturnedTuple(
                values=table.row_values(rid),
                measures=table.row_measures(rid),
            )
            for rid in self.shown_ids().tolist()
        )

    def measure_sum(self, name: str) -> float:
        """Sum of measure *name* over the shown rows, in display order."""
        shown = self.shown_ids()
        return sum(self.interface.table.measure_physical(name)[shown].tolist())


#: The one empty page (see ``TopKInterface._classified``).
_UNDERFLOW = QueryResult(QueryOutcome.UNDERFLOW, ())


class TopKInterface:
    """Server-side implementation of a top-k search form.

    Parameters
    ----------
    table:
        The backing :class:`HiddenTable`.
    k:
        The result-page size (paper default 100).
    ranking:
        Ranking function applied when a query overflows.
    counter:
        Query-budget accounting; a fresh unlimited counter by default.
    """

    def __init__(
        self,
        table: HiddenTable,
        k: int,
        ranking: Optional[RankingFunction] = None,
        counter: Optional[QueryCounter] = None,
    ) -> None:
        if k < 1:
            raise InvalidQueryError(f"k must be >= 1, got {k}")
        self.table = table
        self.k = int(k)
        self.ranking = ranking if ranking is not None else StaticScoreRanking()
        self.counter = counter if counter is not None else QueryCounter()

    @property
    def schema(self):
        """The table schema (forms publish their fields)."""
        return self.table.schema

    @property
    def version(self) -> int:
        """Mutation epoch of the backing table.

        Clients key their result caches on this: a page computed at an
        older version is *stale* and must never be served again.
        """
        return getattr(self.table, "version", 0)

    def query(self, q: ConjunctiveQuery, count_only: bool = False) -> QueryResult:
        """Submit *q* through the form and return the result page.

        Raises :class:`QueryLimitExceeded` once the counter's budget is
        exhausted, mirroring per-IP limits of real hidden databases.

        With ``count_only=True`` the page is classified through the
        backend's count fast path (no ranking, no page built) and the
        displayed tuples stay lazy;
        reading ``result.tuples`` later re-derives them deterministically.
        The submission is charged identically either way — *count_only*
        models a client that only inspects the overflow flag and result
        count of a page it already paid for.
        """
        q.validate(self.table.schema)
        self.counter.charge(q)
        backend = self.table.backend
        if count_only:
            total = backend.selection_count(q)
        else:
            # Eager consumers materialise right below; going through
            # selection_ids once lets the backend's id cache serve the
            # page instead of evaluating the conjunction twice.
            total = int(backend.selection_ids(q).size)
        result = self._classified(q, total)
        if not count_only:
            # Eager path: build the page now (the classic interface
            # contract); hot loops pass count_only=True to skip it.
            _ = result.tuples
        return result

    def _classified(self, q: ConjunctiveQuery, total: int) -> QueryResult:
        """A (lazy) result page from an already-computed match count."""
        if total == 0:
            # Underflow pages are identical regardless of query (no rows,
            # nothing lazy) and QueryResult is immutable — share one.
            return _UNDERFLOW
        if total <= self.k:
            outcome = QueryOutcome.VALID
            num_returned = total
        else:
            outcome = QueryOutcome.OVERFLOW
            num_returned = self.k
        return QueryResult(
            outcome,
            num_returned=num_returned,
            page=_LazyPage(self, q, outcome, self.version),
        )

    def classify_many(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> List[QueryResult]:
        """Classify a batch of queries in bulk **without charging**.

        This is the simulation-side half of probe batching: the backend
        evaluates the whole batch in one pass (see
        ``SelectionBackend.selection_counts_many``) and each query gets the
        exact page :meth:`query` would have produced — lazy tuples, same
        outcome, same count.  No counter charge happens here; charging (and
        caching) stays with the caller, so per-probe cost accounting is
        preserved query by query.
        """
        schema = self.table.schema
        for q in queries:
            q.validate(schema)
        backend = self.table.backend
        counts_many = getattr(backend, "selection_counts_many", None)
        if counts_many is not None:
            totals = counts_many(queries)
        else:
            totals = [backend.selection_count(q) for q in queries]
        return [self._classified(q, total) for q, total in zip(queries, totals)]

    def query_many(
        self, queries: Sequence[ConjunctiveQuery], count_only: bool = True
    ) -> List[QueryResult]:
        """Submit a batch of queries; equivalent to a :meth:`query` loop.

        Every query is validated and charged individually, in order (a
        budget exhausting mid-batch raises after charging exactly the same
        prefix the sequential loop would have), but the page classification
        runs as one bulk backend evaluation.  With ``count_only=False`` the
        pages are materialised eagerly, matching the classic contract.
        """
        schema = self.table.schema
        for q in queries:
            # Validate/charge interleaved per query, exactly like the loop:
            # a failure mid-batch leaves the same charged prefix behind.
            q.validate(schema)
            self.counter.charge(q)
        backend = self.table.backend
        counts_many = getattr(backend, "selection_counts_many", None)
        if counts_many is not None:
            totals = counts_many(queries)
        else:
            totals = [backend.selection_count(q) for q in queries]
        results = [
            self._classified(q, total) for q, total in zip(queries, totals)
        ]
        if not count_only:
            for result in results:
                _ = result.tuples
        return results

    def __repr__(self) -> str:
        return f"TopKInterface(k={self.k}, table={self.table!r})"
