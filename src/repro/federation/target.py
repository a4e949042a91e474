"""Federated targets: a named set of hidden databases under one crawler.

The paper estimates aggregates over *one* hidden database; a real crawler
faces a federation of them — many verticals, each with its own top-k
limit, data skew, query pricing and churn — and one
global query budget to spend across all of them.  :class:`FederatedSource`
describes one member database (how to open clients against it, what its
queries cost); :class:`FederatedTarget` is the ordered, uniquely-named
collection the federated estimators and allocation policies work over.

Source order is load-bearing: the scheduler derives per-source RNG
streams and settles budgets in source order, which is part of what makes
federated runs worker-count invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.interface import TopKInterface
from repro.hidden_db.query import ConjunctiveQuery
from repro.hidden_db.table import HiddenTable

__all__ = ["FederatedSource", "FederatedTarget"]


@dataclass
class FederatedSource:
    """One member database of a federation.

    Parameters
    ----------
    name:
        Unique label within the federation (``"amazon"``, ``"ebay"``...).
    table:
        The backing table (ground truth lives here; estimators only ever
        see it through the top-k interface).
    k:
        The source's result-page size — federations are heterogeneous, a
        restrictive k makes a source expensive to estimate.
    cost_per_query:
        Price of one query in budget units (sources behind slow or
        rate-limited forms cost more of the global budget per submission).
    r / dub / weight_adjustment:
        Per-source HD-UNBIASED parameters (Section 5.1); skewed sources
        warrant different divide-&-conquer settings than uniform ones.
    churn:
        Optional mutation workload (:class:`~repro.datasets.churn.ChurnGenerator`
        over this table).  :meth:`FederatedTarget.advance_epoch` steps
        every churning source one epoch.
    """

    name: str
    table: HiddenTable
    k: int = 100
    cost_per_query: float = 1.0
    r: int = 4
    dub: Optional[int] = 32
    weight_adjustment: bool = True
    churn: Optional[object] = None  # ChurnGenerator, duck-typed via .epoch()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a federated source needs a non-empty name")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.cost_per_query <= 0:
            raise ValueError(
                f"cost_per_query must be positive, got {self.cost_per_query}"
            )

    def make_client(self) -> HiddenDBClient:
        """A fresh client (own cache, own counter) over this source's form."""
        return HiddenDBClient(TopKInterface(self.table, self.k))

    @property
    def true_size(self) -> int:
        """Ground-truth live tuple count (experiments only)."""
        return self.table.num_tuples

    def true_sum(self, measure: str) -> float:
        """Ground-truth SUM(measure) over the live tuples (experiments only)."""
        return float(self.table.sum_measure(ConjunctiveQuery(), measure))

    def __repr__(self) -> str:
        return (
            f"FederatedSource({self.name!r}, m={self.table.num_tuples}, "
            f"k={self.k}, cost_per_query={self.cost_per_query})"
        )


class FederatedTarget:
    """An ordered, uniquely-named set of federated sources.

    Iterates in construction order (the scheduler's canonical order).
    Lookup works by name or position.
    """

    def __init__(self, sources: Sequence[FederatedSource], name: str = "federation") -> None:
        sources = list(sources)
        if not sources:
            raise ValueError("a federation needs at least one source")
        seen: Dict[str, FederatedSource] = {}
        for source in sources:
            if source.name in seen:
                raise ValueError(f"duplicate source name {source.name!r}")
            seen[source.name] = source
        self.name = name
        self.sources: List[FederatedSource] = sources
        self._by_name = seen

    @property
    def names(self) -> List[str]:
        """Source names in scheduler order."""
        return [source.name for source in self.sources]

    def __iter__(self) -> Iterator[FederatedSource]:
        return iter(self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, key: Union[int, str]) -> FederatedSource:
        if isinstance(key, str):
            try:
                return self._by_name[key]
            except KeyError:
                raise KeyError(
                    f"no source named {key!r}; federation holds {self.names}"
                ) from None
        return self.sources[key]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def true_total_size(self) -> int:
        """Ground-truth total listing count — the sum of per-source sizes.

        Sources with overlapping universes count shared tuples once *per
        source that lists them* (multiset semantics: the federation's
        total inventory of listings, not the deduplicated union).
        """
        return sum(source.true_size for source in self.sources)

    def true_total_sum(self, measure: str) -> float:
        """Ground-truth federated SUM(measure) (same multiset semantics)."""
        return sum(source.true_sum(measure) for source in self.sources)

    def advance_epoch(self) -> Dict[str, Optional[object]]:
        """Step every churning source one mutation epoch.

        Returns per-source :class:`~repro.hidden_db.versioning.TableDelta`\\ s
        (``None`` for static sources).  Static federations are a no-op.
        """
        deltas: Dict[str, Optional[object]] = {}
        for source in self.sources:
            deltas[source.name] = (
                source.churn.epoch() if source.churn is not None else None
            )
        return deltas

    def __repr__(self) -> str:
        return f"FederatedTarget({self.name!r}, sources={self.names})"
