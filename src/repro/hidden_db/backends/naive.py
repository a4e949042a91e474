"""The row-scan backend (the seed implementation, extracted).

Evaluates conjunctive selections by incrementally narrowing row-id arrays,
memoising every intermediate prefix so the sibling probes of a drill down
cost O(|parent match|) instead of O(m).  This is the bundled backend: it
needs no precomputation and its prefix cache fits drill-down workloads
(each query extends its parent by one predicate) perfectly.

On table mutation (``rebind``) the prefix cache is invalidated wholesale:
cached id arrays were computed against the previous epoch and narrowing is
re-derived lazily from the new live-row set, so no index maintenance is
needed — invalidation *is* the scan backend's change-awareness.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.hidden_db.backends.base import sibling_window
from repro.hidden_db.exceptions import SchemaError
from repro.hidden_db.query import ConjunctiveQuery
from repro.hidden_db.versioning import TableDelta

__all__ = ["NaiveScanBackend"]


class NaiveScanBackend:
    """Incremental row-id narrowing with a bounded prefix cache.

    Parameters
    ----------
    data:
        The ``(m, n)`` attribute matrix (read-only from here on).
    measures:
        Measure columns by name.
    max_cached_queries:
        Cache-size bound; on overflow the oldest ~25% of entries are
        dropped (dict preserves insertion order).
    alive:
        Tombstone mask over the physical rows (``None`` = all live).
        Narrowing starts from the live ids, so dead rows can never appear
        in any selection.
    """

    def __init__(
        self,
        data: np.ndarray,
        measures: Mapping[str, np.ndarray],
        max_cached_queries: int = 2_000_000,
        alive: Optional[np.ndarray] = None,
    ) -> None:
        self._data = data
        self._measures = dict(measures)
        self._max_cached_queries = max_cached_queries
        self._selection_cache: Dict[frozenset, np.ndarray] = {}
        self._all_rows = self._live_rows(data, alive)
        #: Number of whole-cache invalidations caused by table mutation.
        self.cache_invalidations = 0

    @staticmethod
    def _live_rows(data: np.ndarray, alive: Optional[np.ndarray]) -> np.ndarray:
        if alive is None or bool(alive.all()):
            return np.arange(data.shape[0], dtype=np.int64)
        return np.flatnonzero(alive).astype(np.int64, copy=False)

    def selection_ids(self, query: ConjunctiveQuery) -> np.ndarray:
        """Row ids of Sel(q), sorted ascending.

        Uses the cache of previously evaluated conjunctions: the ids of a
        query are narrowed from the ids of its longest cached prefix (in the
        query's own predicate insertion order).  Every intermediate prefix is
        cached too, so the sibling probes of a drill down are O(|parent|).
        """
        cache = self._selection_cache
        cached = cache.get(query.key)
        if cached is not None:
            return cached
        predicates = query.predicates
        # Fast path: drill-down probes extend an already-evaluated parent,
        # whose key the query carries — one dict hit and one narrowing, no
        # prefix frozensets rebuilt.
        parent_key = query.parent_key
        if parent_key is not None:
            base = cache.get(parent_key)
            if base is not None:
                attr, value = predicates[-1]
                ids = base[self._data[base, attr] == value]
                self._cache_put(query.key, ids)
                return ids
        # Find the longest cached prefix of the insertion order.  The
        # full-length prefix is the query's own key, which just missed
        # above, so the search starts one level up.
        start = len(predicates) - 1
        base = None
        while start > 0:
            prefix_key = frozenset(predicates[:start])
            base = self._selection_cache.get(prefix_key)
            if base is not None:
                break
            start -= 1
        if base is None:
            base = self._all_rows
            start = 0
        ids = base
        for depth in range(start, len(predicates)):
            attr, value = predicates[depth]
            ids = ids[self._data[ids, attr] == value]
            self._cache_put(frozenset(predicates[: depth + 1]), ids)
        return ids

    def selection_count(self, query: ConjunctiveQuery) -> int:
        """|Sel(q)| via the id array (shares the prefix cache)."""
        return int(self.selection_ids(query).size)

    def selection_counts_many(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> List[int]:
        """Bulk counts; sibling windows become one fused scan.

        A window of sibling probes (same parent, same attribute, different
        values) is answered by narrowing to the parent once and histogramming
        the attribute column of the parent's rows — O(|parent match|) for
        the whole window instead of per value.  Anything else falls back to
        the per-query path (which still shares the prefix cache).
        """
        window = sibling_window(queries)
        if window is None:
            return [self.selection_count(q) for q in queries]
        parent, attr, values = window
        ids = self._all_rows if parent.is_root else self.selection_ids(parent)
        histogram = np.bincount(
            self._data[ids, attr], minlength=max(values) + 1
        )
        return [int(histogram[v]) for v in values]

    def selection_measure_sum(self, query: ConjunctiveQuery, measure: str) -> float:
        """SUM(measure) over Sel(q)."""
        try:
            col = self._measures[measure]
        except KeyError:
            raise SchemaError(f"unknown measure {measure!r}") from None
        return float(col[self.selection_ids(query)].sum())

    def clear_cache(self) -> None:
        """Drop all memoised selections (mainly for memory-bound tests)."""
        self._selection_cache.clear()

    def rebind(
        self,
        data: np.ndarray,
        measures: Mapping[str, np.ndarray],
        alive: np.ndarray,
        delta: Optional[TableDelta] = None,
    ) -> None:
        """Adopt post-mutation arrays; invalidate every memoised prefix.

        The scan backend keeps no index, so the only stale state is the
        prefix cache — one O(1) ``clear`` plus rebuilding the live-row
        base set makes the next narrowing correct for the new epoch.
        """
        self._data = data
        self._measures = dict(measures)
        self._selection_cache.clear()
        self._all_rows = self._live_rows(data, alive)
        self.cache_invalidations += 1

    def _cache_put(self, key: frozenset, ids: np.ndarray) -> None:
        if len(self._selection_cache) >= self._max_cached_queries:
            # Evict the oldest ~25% (dict preserves insertion order).  pop()
            # tolerates a concurrent evictor racing us from another worker
            # thread (entries are idempotent, so losing a race is harmless).
            drop = len(self._selection_cache) // 4 or 1
            for stale in list(self._selection_cache)[:drop]:
                self._selection_cache.pop(stale, None)
        self._selection_cache[key] = ids

    def __repr__(self) -> str:
        return (
            f"NaiveScanBackend(m={self._all_rows.size}, "
            f"cached={len(self._selection_cache)})"
        )
