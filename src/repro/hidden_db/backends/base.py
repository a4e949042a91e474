"""Selection-backend protocol.

A *selection backend* is the storage engine behind a
:class:`~repro.hidden_db.table.HiddenTable`: it answers conjunctive
selections (`Sel(q)`) over the attribute matrix.  The table and the top-k
interface delegate every selection to the backend, so the physical
evaluation strategy never touches estimator code.  The bundled backend is
:class:`~repro.hidden_db.backends.naive.NaiveScanBackend`;
:func:`make_backend` binds a backend class (or vouches for a ready
instance) to one table's arrays, which is also how tests substitute fakes.

Version awareness
-----------------
Tables mutate across epochs (:meth:`HiddenTable.apply_updates`).  After a
mutation the table calls ``rebind(data, measures, alive, delta)`` on its
backend: *data*/*measures* are the post-update physical arrays, *alive*
the tombstone mask, and *delta* a
:class:`~repro.hidden_db.versioning.TableDelta` naming exactly which
physical rows changed.  A backend may honour the delta incrementally or
simply invalidate memoised state and re-derive lazily (as
:class:`NaiveScanBackend` does).  Backends without a ``rebind`` method are
rebuilt from scratch by the table, provided their constructor accepts the
``alive`` tombstone mask (or no tombstones exist yet); an alive-unaware
backend facing deleted rows is refused outright rather than allowed to
silently resurrect them — correctness never depends on opting in.
"""

from __future__ import annotations

import inspect
from typing import (
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.hidden_db.exceptions import SchemaError
from repro.hidden_db.query import ConjunctiveQuery
from repro.hidden_db.versioning import TableDelta

__all__ = [
    "SelectionBackend",
    "BackendLike",
    "make_backend",
    "sibling_window",
]


@runtime_checkable
class SelectionBackend(Protocol):
    """Answers conjunctive selections over one table's attribute matrix.

    Implementations must be deterministic: for a fixed table the same query
    always yields the same (ascending) row-id array, so results produced
    through different backends — or merged from parallel workers — are
    bit-identical.
    """

    def selection_ids(self, query: ConjunctiveQuery) -> np.ndarray:
        """Row ids of ``Sel(query)``, sorted ascending (dtype int64)."""
        ...

    def selection_count(self, query: ConjunctiveQuery) -> int:
        """``|Sel(query)|`` — may be cheaper than materialising the ids."""
        ...

    def selection_counts_many(
        self, queries: Sequence[ConjunctiveQuery]
    ) -> List[int]:
        """``[|Sel(q)| for q in queries]`` in one bulk evaluation.

        Semantically identical to a per-query :meth:`selection_count` loop;
        implementations vectorise the common *sibling window* shape (the
        drill-down probes of one level: same parent conjunction, same
        attribute, different values) into a single pass over the parent's
        matching rows instead of one pass per value.
        """
        ...

    def selection_measure_sum(self, query: ConjunctiveQuery, measure: str) -> float:
        """``SUM(measure)`` over ``Sel(query)``."""
        ...

    def clear_cache(self) -> None:
        """Drop any memoised state (a no-op for stateless backends)."""
        ...

    def rebind(
        self,
        data: np.ndarray,
        measures: Mapping[str, np.ndarray],
        alive: np.ndarray,
        delta: Optional[TableDelta] = None,
    ) -> None:
        """Adopt the post-mutation arrays of the owning table.

        Called once per :meth:`HiddenTable.apply_updates` epoch.  With a
        *delta*, every physical row outside its id sets is promised
        unchanged, so the backend may update indexes incrementally; with
        ``delta=None`` (or an inapplicable one) it must fully re-derive.
        After ``rebind`` the backend must answer exactly like a freshly
        built backend over the live rows — the across-epoch equivalence
        property tests assert this.
        """
        ...


#: Anything :func:`make_backend` can resolve.
BackendLike = Union[SelectionBackend, Type["SelectionBackend"]]


def make_backend(
    spec: BackendLike,
    data: np.ndarray,
    measures: Mapping[str, np.ndarray],
    alive: Optional[np.ndarray] = None,
    **options,
) -> "SelectionBackend":
    """Resolve *spec* into a backend bound to ``(data, measures)``.

    *spec* may be a backend class or an already-built instance (returned
    unchanged — the caller vouches it matches the table).
    *alive* is the table's tombstone mask; ``None`` (or an all-true mask)
    means every physical row is live — the common case for freshly built
    tables.  A backend whose constructor does not accept ``alive`` can
    only be built while no tombstones exist: silently handing it the full
    physical arrays would resurrect deleted rows, so that case raises
    instead.
    """
    if isinstance(spec, str):
        raise SchemaError(
            f"unknown selection backend {spec!r}; pass a backend class "
            "(e.g. NaiveScanBackend) or a built instance"
        )
    if alive is not None and bool(alive.all()):
        alive = None  # no tombstones: every backend can serve this
    if isinstance(spec, type):
        cls = spec
    else:
        if alive is not None:
            # A pre-built instance was constructed without the tombstone
            # mask; handing it out over a table with deleted rows would
            # resurrect them.  The caller must build from the class (so
            # the mask can be injected) or pass a rebind-aware instance
            # through the table's mutation path instead.
            raise SchemaError(
                f"cannot bind the pre-built backend instance "
                f"{type(spec).__name__!r} to a table with deleted rows; "
                "pass the backend class so the alive mask can be applied"
            )
        return spec
    if alive is not None:
        if not _accepts_alive(cls):
            raise SchemaError(
                f"backend {cls.__name__!r} does not "
                "accept an 'alive' tombstone mask; it cannot serve a table "
                "with deleted rows (implement rebind()/alive= to support "
                "mutation)"
            )
        options["alive"] = alive
    return cls(data, measures, **options)


def sibling_window(
    queries: Sequence[ConjunctiveQuery],
) -> Optional[Tuple[ConjunctiveQuery, int, List[int]]]:
    """Detect the drill-down probe shape: siblings below one parent.

    Returns ``(parent, attr, values)`` when every query extends the same
    parent conjunction by a predicate on the same attribute (the batched
    probes of one drill-down level), else ``None``.  The parent is
    reconstructed from the shared prefix; backends use it to evaluate the
    whole window from the parent's matching rows in one pass.
    """
    if len(queries) < 2:
        return None
    first = queries[0].predicates
    if not first:
        return None
    attr = first[-1][0]
    prefix = first[:-1]
    values = []
    for query in queries:
        predicates = query.predicates
        if (
            len(predicates) != len(first)
            or predicates[:-1] != prefix
            or predicates[-1][0] != attr
        ):
            return None
        values.append(predicates[-1][1])
    # The prefix of a valid query is itself valid and duplicate-free.
    return ConjunctiveQuery._from_trusted(prefix), attr, values


def _accepts_alive(ctor) -> bool:
    """True when *ctor* declares an explicit ``alive`` parameter.

    A bare ``**kwargs`` is *not* accepted as evidence: a constructor that
    swallows ``alive`` without honouring it would be rebuilt over the full
    physical arrays and silently resurrect deleted rows, which is exactly
    what this guard exists to prevent.  Supporting mutation requires
    naming the parameter (or implementing ``rebind``).
    """
    try:
        parameters = inspect.signature(ctor).parameters.values()
    except (TypeError, ValueError):  # uninspectable C-level callable
        return False
    return any(p.name == "alive" for p in parameters)
