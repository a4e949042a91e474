"""Exhaustive crawler over the top-k interface.

The "simple approach" the paper argues against (Section 1): depth-first
drill down through the query tree, collecting every tuple from valid nodes.
It is exact but its query cost grows with the number of distinct populated
subtrees — orders of magnitude above the estimators.  Included both as a
ground-truth-through-the-interface check and as the cost baseline the
introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.query import ConjunctiveQuery

__all__ = ["CrawlResult", "crawl"]


@dataclass
class CrawlResult:
    """Outcome of a crawl.

    ``complete`` is False when the crawl stopped on a budget; the tuple set
    is then only a *lower bound* on the database (the paper's argument for
    why crawling cannot audit a size claim under realistic quotas).
    """

    tuples: Set[Tuple[int, ...]]
    query_cost: int
    complete: bool = True

    @property
    def size(self) -> int:
        """Distinct tuples discovered (exact size iff ``complete``)."""
        return len(self.tuples)

    def sum_measure(self, name: str, measures: Dict[Tuple[int, ...], float]) -> float:
        """Sum a measure over the crawl using a values->measure map."""
        return sum(measures[t] for t in self.tuples)


def crawl(
    client: HiddenDBClient,
    attribute_order: Optional[Sequence[int]] = None,
    root: Optional[ConjunctiveQuery] = None,
    max_queries: Optional[int] = None,
    budget_action: str = "raise",
) -> CrawlResult:
    """Depth-first crawl of the database (or of the subtree under *root*).

    The crawl expands one *sibling window* at a time — all children of an
    overflowing node, which share a parent conjunction and differ only in
    the last predicate's value.  That is exactly the shape the selection
    backends answer in one bulk pass (``selection_counts_many`` under
    ``classify_many``), so the whole window costs one backend scan of the
    parent's rows instead of one per child.  ``query_many`` replays the
    charges one query at a time, so the budget cuts a window exactly
    where a per-query loop would.

    Parameters
    ----------
    client:
        Client over the top-k interface.
    attribute_order:
        Order in which attributes are specialised; defaults to decreasing
        fanout (same convention as the estimators).
    root:
        Crawl only the tuples matching this conjunction (default: all).
    max_queries:
        Budget on charged queries.
    budget_action:
        ``"raise"`` (default) aborts with ``RuntimeError`` when the budget
        is exceeded — the guard against accidentally crawling a huge
        domain; ``"partial"`` stops gracefully and returns the tuples found
        so far with ``complete=False`` (a lower bound on the size).

    Returns
    -------
    CrawlResult with the set of discovered tuples (identified by their full
    searchable-attribute value vectors) and the number of charged queries.
    """
    if budget_action not in ("raise", "partial"):
        raise ValueError(f"unknown budget_action {budget_action!r}")
    schema = client.schema
    if attribute_order is None:
        attribute_order = schema.decreasing_fanout_order()
    order = list(attribute_order)
    start = root if root is not None else ConjunctiveQuery()
    start_cost = client.cost
    found: Set[Tuple[int, ...]] = set()

    def over_budget() -> bool:
        return (
            max_queries is not None
            and client.cost - start_cost >= max_queries
        )

    def budget_stop() -> CrawlResult:
        if budget_action == "partial":
            return CrawlResult(
                tuples=found,
                query_cost=client.cost - start_cost,
                complete=False,
            )
        raise RuntimeError(
            f"crawl exceeded the {max_queries}-query guard; domain too large"
        )

    # Stack of sibling windows (the start node is a window of one).
    stack = [[start]]
    while stack:
        window = stack.pop()
        if over_budget():
            return budget_stop()
        # *until* fires after each replayed charge, so only the
        # within-budget prefix of the window is ever charged.
        results = client.query_many(
            window, count_only=False, until=lambda r: over_budget()
        )
        for query, result in zip(window, results):
            if result.underflow:
                continue
            if result.valid:
                for t in result.tuples:
                    found.add(t.values)
                continue
            free = [a for a in order if not query.constrains(a)]
            if not free:
                # Fully specified yet overflowing: impossible without
                # duplicates.
                raise RuntimeError(
                    "fully-specified query overflowed; table has duplicate "
                    "tuples"
                )
            attr = free[0]
            stack.append(
                [query.extended(attr, v) for v in range(schema[attr].domain_size)]
            )
        if len(results) < len(window):  # budget hit mid-window
            return budget_stop()
    return CrawlResult(tuples=found, query_cost=client.cost - start_cost)
