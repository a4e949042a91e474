"""In-memory hidden database table.

``HiddenTable`` is the *server side* storage: a numpy column store over the
searchable attributes plus float measure columns.  Selection evaluation is
delegated to a :mod:`repro.hidden_db.backends` engine — by default the scan
backend, which narrows cached row-id sets incrementally (ideal for
drill-down workloads).

The table itself has *full knowledge* (it can count exactly); the top-k
restriction lives in :mod:`repro.hidden_db.interface`.  Estimator code must
never touch the table directly — experiments use it only for ground truth.

Dynamic databases
-----------------
Tables are **epoch-versioned**: :meth:`HiddenTable.apply_updates` applies a
batch of inserts / deletes / modifications, bumps the monotone
:attr:`version`, and pushes a :class:`~repro.hidden_db.versioning.TableDelta`
to the selection backend so indexes update incrementally.  Deleted rows are
*tombstoned* (their physical row id survives; they are excluded from every
selection), inserted rows are appended, modified rows change in place —
physical row ids are therefore stable across epochs.

Tables derived through :meth:`with_backend` share the underlying arrays
with their parent; the whole family is tracked so a mutation applied to
*any* member bumps every member's version and rebinds every member's
backend — no sibling can silently serve a stale index.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hidden_db.backends import (
    BackendLike,
    NaiveScanBackend,
    SelectionBackend,
    make_backend,
)
from repro.hidden_db.backends.base import _accepts_alive
from repro.hidden_db.exceptions import MutationError, SchemaError
from repro.hidden_db.query import ConjunctiveQuery
from repro.hidden_db.schema import Schema, row_keys
from repro.hidden_db.versioning import TableDelta

__all__ = ["HiddenTable"]

#: One modification: full replacement row, or a partial {attr: value} patch
#: (attributes by index or name).
ModificationLike = Union[Sequence[int], Mapping[Union[int, str], int]]


def _restore_table(state: dict) -> "HiddenTable":
    """Unpickle target for by-value table snapshots (see ``__reduce__``)."""
    table = HiddenTable.__new__(HiddenTable)
    table.__setstate__(state)
    return table


class HiddenTable:
    """Materialised relation with categorical search columns and measures.

    Parameters
    ----------
    schema:
        The table schema (searchable attributes + measure names).
    data:
        Integer array of shape ``(m, n)`` holding attribute values.
    measures:
        Mapping from measure name to a float array of shape ``(m,)``.
    check_duplicates:
        The paper assumes no duplicate tuples (Section 2.1); with duplicates
        a fully-specified query can overflow and a drill down may never
        terminate.  Generators in :mod:`repro.datasets` always deduplicate;
        set this to True to verify (the check then also guards every
        ``apply_updates`` batch).
    backend:
        Selection engine: a backend class or a pre-built instance.  See
        :mod:`repro.hidden_db.backends`.
    max_cached_queries:
        Bound on the backend's per-query memoisation cache.
    """

    def __init__(
        self,
        schema: Schema,
        data: np.ndarray,
        measures: Optional[Mapping[str, np.ndarray]] = None,
        check_duplicates: bool = False,
        max_cached_queries: int = 2_000_000,
        backend: BackendLike = NaiveScanBackend,
    ) -> None:
        data = np.ascontiguousarray(data)
        if data.ndim != 2:
            raise SchemaError(f"data must be 2-D, got shape {data.shape}")
        if data.shape[1] != len(schema):
            raise SchemaError(
                f"data has {data.shape[1]} columns but schema has "
                f"{len(schema)} attributes"
            )
        for j, attribute in enumerate(schema):
            col = data[:, j]
            if col.size and (col.min() < 0 or col.max() >= attribute.domain_size):
                raise SchemaError(
                    f"column {attribute.name!r} holds values outside "
                    f"[0, {attribute.domain_size})"
                )
        measures = dict(measures or {})
        if set(measures) != set(schema.measure_names):
            raise SchemaError(
                f"measure columns {sorted(measures)} do not match schema "
                f"measures {sorted(schema.measure_names)}"
            )
        for name, col in measures.items():
            if col.shape != (data.shape[0],):
                raise SchemaError(
                    f"measure {name!r} has shape {col.shape}, expected "
                    f"({data.shape[0]},)"
                )
        if check_duplicates and data.shape[0]:
            if np.unique(row_keys(data, schema.fanouts())).size != data.shape[0]:
                raise SchemaError(
                    "table holds duplicate tuples; the paper's model assumes "
                    "duplicates are removed"
                )
        self.schema = schema
        self._data = data
        # ascontiguousarray may alias the caller's array; the first
        # in-place mutation copies it so external holders never see
        # un-versioned changes (copy-on-first-mutation).
        self._owns_data = False
        self._measures = {name: np.asarray(col, dtype=float) for name, col in measures.items()}
        self._alive = np.ones(data.shape[0], dtype=bool)
        self._num_live = int(data.shape[0])
        self._version = 0
        self._check_duplicates = bool(check_duplicates)
        self._max_cached_queries = max_cached_queries
        self._backend: SelectionBackend = make_backend(
            backend, self._data, self._measures,
            max_cached_queries=max_cached_queries,
        )
        # Every table derived via with_backend() joins this (shared) family
        # list; apply_updates() on any member updates all of them.
        self._family: List[weakref.ref] = [weakref.ref(self)]
        # Live shared-memory export (repro.hidden_db.sharing), set by
        # export_table(); switches pickling over to zero-copy handles.
        self._shared_export = None

    # -- basic geometry --------------------------------------------------

    @property
    def num_tuples(self) -> int:
        """The true *live* size m of the database (ground truth)."""
        return self._num_live

    @property
    def num_physical_rows(self) -> int:
        """Physical rows including tombstones (append-only, never shrinks)."""
        return self._data.shape[0]

    @property
    def num_attributes(self) -> int:
        """Number of searchable attributes n."""
        return self._data.shape[1]

    @property
    def version(self) -> int:
        """Monotone mutation epoch counter (0 for a freshly built table)."""
        return self._version

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the live attribute rows.

        While no tuple has ever been deleted this is a zero-copy view of
        the raw matrix; after deletions it is a (read-only) copy holding
        only the live rows, in physical-id order.
        """
        if self._num_live == self._data.shape[0]:
            view = self._data.view()
        else:
            view = self._data[self._alive]
        view.flags.writeable = False
        return view

    @property
    def alive_mask(self) -> np.ndarray:
        """Read-only boolean mask of live physical rows."""
        view = self._alive.view()
        view.flags.writeable = False
        return view

    def measure(self, name: str) -> np.ndarray:
        """Read-only view of one measure column (live rows only)."""
        try:
            col = self._measures[name]
        except KeyError:
            raise SchemaError(f"unknown measure {name!r}") from None
        if self._num_live == self._data.shape[0]:
            view = col.view()
        else:
            view = col[self._alive]
        view.flags.writeable = False
        return view

    def measure_physical(self, name: str) -> np.ndarray:
        """Read-only view of one measure column over *physical* rows.

        Indexed by physical row id (tombstones included), which is what
        ranking functions need — the row ids they receive from the backend
        are physical.  :meth:`measure` compacts to live rows and must
        never be indexed with physical ids once deletions exist.
        """
        try:
            col = self._measures[name]
        except KeyError:
            raise SchemaError(f"unknown measure {name!r}") from None
        view = col.view()
        view.flags.writeable = False
        return view

    def row_values(self, row_id: int) -> Tuple[int, ...]:
        """Attribute values of one (physical) row as a tuple of ints."""
        return tuple(int(v) for v in self._data[row_id])

    def row_measures(self, row_id: int) -> Dict[str, float]:
        """Measure values of one (physical) row."""
        return {name: float(col[row_id]) for name, col in self._measures.items()}

    # -- selection (delegated to the backend) ----------------------------

    @property
    def backend(self) -> SelectionBackend:
        """The selection engine answering conjunctive queries."""
        return self._backend

    def with_backend(self, backend: BackendLike, **options) -> "HiddenTable":
        """A table over the same data served by a different backend.

        The attribute matrix, measure columns, alive mask and version are
        shared; only the selection engine is rebuilt.  The derived table
        joins this table's *family*: a later :meth:`apply_updates` on any
        member updates every member's arrays, version and backend, so
        siblings can never serve stale selections.
        """
        options.setdefault("max_cached_queries", self._max_cached_queries)
        clone = HiddenTable.__new__(HiddenTable)
        clone.schema = self.schema
        clone._data = self._data
        clone._owns_data = self._owns_data
        clone._measures = self._measures
        clone._alive = self._alive
        clone._num_live = self._num_live
        clone._version = self._version
        clone._check_duplicates = self._check_duplicates
        clone._max_cached_queries = options["max_cached_queries"]
        clone._backend = make_backend(
            backend, self._data, self._measures, alive=self._alive,
            **options,
        )
        clone._family = self._family  # shared list: one family, many members
        clone._shared_export = None  # exports are per-member (backend-specific)
        self._family.append(weakref.ref(clone))
        return clone

    def _family_members(self) -> List["HiddenTable"]:
        """Live family members (self included), pruning dead weakrefs."""
        members: List["HiddenTable"] = []
        live_refs: List[weakref.ref] = []
        for ref in self._family:
            member = ref()
            if member is not None:
                members.append(member)
                live_refs.append(ref)
        self._family[:] = live_refs
        return members

    def selection_ids(self, query: ConjunctiveQuery) -> np.ndarray:
        """Row ids of Sel(q), sorted ascending (backend-evaluated)."""
        return self._backend.selection_ids(query)

    def count(self, query: ConjunctiveQuery) -> int:
        """Exact |Sel(q)| — ground truth, not available through the form."""
        return self._backend.selection_count(query)

    def sum_measure(self, query: ConjunctiveQuery, measure: str) -> float:
        """Exact SUM(measure) over Sel(q) — ground truth."""
        if measure not in self._measures:
            raise SchemaError(f"unknown measure {measure!r}")
        return self._backend.selection_measure_sum(query, measure)

    def clear_cache(self) -> None:
        """Drop all memoised selections, on every family member's backend."""
        for member in self._family_members():
            member._backend.clear_cache()

    # -- mutation ---------------------------------------------------------

    def apply_updates(
        self,
        inserts: Optional[Sequence[Sequence[int]]] = None,
        deletes: Optional[Sequence[int]] = None,
        modifications: Optional[Mapping[int, ModificationLike]] = None,
        insert_measures: Optional[Mapping[str, Sequence[float]]] = None,
    ) -> TableDelta:
        """Apply one mutation epoch and bump the version.

        Parameters
        ----------
        inserts:
            ``(i, n)`` attribute rows to append as new live tuples.
        deletes:
            Physical row ids of live tuples to tombstone.
        modifications:
            Mapping from live physical row id to either a full replacement
            row or a partial ``{attribute: value}`` patch (attributes by
            index or name).  Measures of modified rows are unchanged.
        insert_measures:
            Measure columns for the inserted rows (one ``(i,)`` sequence
            per schema measure).  Missing measures default to zeros.

        Returns the :class:`TableDelta` describing the epoch.  The delta is
        propagated to every family member (tables derived via
        :meth:`with_backend`): each backend either applies it incrementally
        (``rebind``) or is rebuilt, and every member's :attr:`version` is
        bumped — cached selections from the previous epoch can never leak.
        """
        old_rows = self._data.shape[0]
        ins = self._normalise_inserts(inserts)
        del_ids = self._normalise_deletes(deletes)
        mod_ids, mod_rows = self._normalise_modifications(modifications)
        ins_measures = self._normalise_insert_measures(
            insert_measures, ins.shape[0]
        )
        if del_ids.size and mod_ids.size:
            clash = np.intersect1d(del_ids, mod_ids)
            if clash.size:
                raise MutationError(
                    f"rows {clash[:5].tolist()} are both deleted and modified"
                )

        # Stage the post-update state before touching anything, so a
        # validation failure leaves the table untouched.
        new_alive = self._alive.copy()
        new_alive[del_ids] = False
        num_inserted = ins.shape[0]
        new_rows = old_rows + num_inserted
        inserted_ids = np.arange(old_rows, new_rows, dtype=np.int64)

        if self._check_duplicates:
            self._check_batch_duplicates(ins, mod_ids, mod_rows, new_alive)
        # Capability check before the commit: every family member's
        # backend must be able to represent the post-update state, or the
        # whole batch is refused while the table is still untouched.
        will_have_dead = not bool(new_alive.all())
        for member in self._family_members():
            backend = member._backend
            if getattr(backend, "rebind", None) is not None:
                continue
            if will_have_dead and not _accepts_alive(type(backend)):
                raise SchemaError(
                    f"backend {type(backend).__name__!r} has no rebind() and "
                    "no 'alive' constructor parameter; it cannot represent "
                    "deleted rows, so this update batch is refused"
                )

        # Commit: modify in place, tombstone, append.
        if mod_ids.size:
            if not self._owns_data:
                # The constructor may alias the caller's array; take a
                # private copy before the first in-place write so code
                # holding the original never sees un-versioned changes.
                self._data = self._data.copy()
            self._data[mod_ids] = mod_rows.astype(self._data.dtype)
        data = self._data
        measures = self._measures
        if num_inserted:
            data = np.concatenate(
                [data, ins.astype(self._data.dtype)], axis=0
            )
            measures = {
                name: np.concatenate([col, ins_measures[name]])
                for name, col in self._measures.items()
            }
            new_alive = np.concatenate(
                [new_alive, np.ones(num_inserted, dtype=bool)]
            )

        delta = TableDelta(
            old_num_rows=old_rows,
            new_num_rows=new_rows,
            inserted_ids=inserted_ids,
            deleted_ids=del_ids,
            modified_ids=mod_ids,
        )
        num_live = int(new_alive.sum())
        # Ownership is a property of the (shared) array: it became private
        # the moment a modification copied it or an insert rebuilt it; a
        # delete-only epoch leaves a possibly-aliased array untouched.
        owns_data = self._owns_data or bool(mod_ids.size) or bool(num_inserted)
        for member in self._family_members():
            member._data = data
            member._measures = measures
            member._alive = new_alive
            member._num_live = num_live
            member._owns_data = owns_data
            member._version += 1
            member._rebind_backend(delta)
        return delta

    def _rebind_backend(self, delta: TableDelta) -> None:
        """Point this member's backend at the post-update arrays."""
        rebind = getattr(self._backend, "rebind", None)
        if rebind is not None:
            rebind(self._data, self._measures, self._alive, delta)
        else:
            # Version-unaware backend (e.g. a third-party engine): rebuild
            # it from scratch.  make_backend refuses alive-unaware
            # constructors once tombstones exist (handing them the raw
            # physical arrays would resurrect deleted rows), so a backend
            # either participates in mutation or fails loudly — never
            # silently serves stale/dead tuples.
            self._backend = make_backend(
                type(self._backend), self._data, self._measures,
                alive=self._alive,
                max_cached_queries=self._max_cached_queries,
            )

    # -- mutation helpers -------------------------------------------------

    def _normalise_inserts(self, inserts) -> np.ndarray:
        if inserts is None:
            return np.empty((0, len(self.schema)), dtype=np.int64)
        ins = np.asarray(inserts, dtype=np.int64)
        if ins.size == 0:
            return ins.reshape(0, len(self.schema))
        if ins.ndim == 1:
            ins = ins.reshape(1, -1)
        if ins.ndim != 2 or ins.shape[1] != len(self.schema):
            raise MutationError(
                f"inserts must be (i, {len(self.schema)}) rows, got shape "
                f"{ins.shape}"
            )
        for j, attribute in enumerate(self.schema):
            col = ins[:, j]
            if col.min() < 0 or col.max() >= attribute.domain_size:
                raise MutationError(
                    f"inserted values of {attribute.name!r} fall outside "
                    f"[0, {attribute.domain_size})"
                )
        return ins

    def _normalise_deletes(self, deletes) -> np.ndarray:
        if deletes is None:
            return np.empty(0, dtype=np.int64)
        del_ids = np.unique(np.asarray(deletes, dtype=np.int64).reshape(-1))
        if del_ids.size == 0:
            return del_ids
        self._require_live(del_ids, "delete")
        return del_ids

    def _normalise_modifications(self, modifications):
        if not modifications:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty((0, len(self.schema)), dtype=np.int64)
        mod_ids = np.asarray(sorted(modifications), dtype=np.int64)
        self._require_live(mod_ids, "modify")
        rows = self._data[mod_ids].astype(np.int64, copy=True)
        for pos, row_id in enumerate(mod_ids):
            patch = modifications[int(row_id)]
            if isinstance(patch, Mapping):
                for attr, value in patch.items():
                    index = (
                        self.schema.index_of(attr)
                        if isinstance(attr, str) else int(attr)
                    )
                    if not (0 <= index < len(self.schema)):
                        raise MutationError(
                            f"modification of row {row_id} targets attribute "
                            f"index {index} outside the schema"
                        )
                    rows[pos, index] = int(value)
            else:
                full = np.asarray(patch, dtype=np.int64).reshape(-1)
                if full.size != len(self.schema):
                    raise MutationError(
                        f"replacement row for {row_id} has {full.size} values, "
                        f"expected {len(self.schema)}"
                    )
                rows[pos] = full
        for j, attribute in enumerate(self.schema):
            col = rows[:, j]
            if col.size and (col.min() < 0 or col.max() >= attribute.domain_size):
                raise MutationError(
                    f"modified values of {attribute.name!r} fall outside "
                    f"[0, {attribute.domain_size})"
                )
        return mod_ids, rows

    def _normalise_insert_measures(self, insert_measures, count):
        insert_measures = dict(insert_measures or {})
        unknown = set(insert_measures) - set(self._measures)
        if unknown:
            raise MutationError(f"unknown insert measures {sorted(unknown)}")
        out: Dict[str, np.ndarray] = {}
        for name in self._measures:
            col = insert_measures.get(name)
            if col is None:
                out[name] = np.zeros(count, dtype=float)
                continue
            arr = np.asarray(col, dtype=float).reshape(-1)
            if arr.size != count:
                raise MutationError(
                    f"insert measure {name!r} has {arr.size} values for "
                    f"{count} inserted rows"
                )
            out[name] = arr
        return out

    def _require_live(self, ids: np.ndarray, action: str) -> None:
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self._data.shape[0]:
            raise MutationError(
                f"cannot {action} rows outside [0, {self._data.shape[0]})"
            )
        dead = ids[~self._alive[ids]]
        if dead.size:
            raise MutationError(
                f"cannot {action} dead rows {dead[:5].tolist()}"
            )

    def _check_batch_duplicates(self, ins, mod_ids, mod_rows, new_alive) -> None:
        """Reject a batch that would introduce duplicate live tuples."""
        survivors = new_alive.copy()
        survivors[mod_ids] = False  # modified rows are re-added with new values
        parts = [self._data[survivors]]
        if mod_rows.size:
            parts.append(mod_rows)
        if ins.size:
            parts.append(ins)
        fanouts = self.schema.fanouts()
        keys = np.concatenate([row_keys(p, fanouts) for p in parts])
        if np.unique(keys).size != keys.size:
            raise MutationError(
                "update batch would introduce duplicate tuples (the paper's "
                "model assumes duplicates are removed)"
            )

    # -- pickling ---------------------------------------------------------

    def __reduce__(self):
        """Pickle as a shared-memory handle when an export is live.

        With :func:`repro.hidden_db.sharing.export_table` called on this
        table (the process engine does it before every wave), the payload
        is a few hundred bytes naming the shared block — the receiving
        process rebinds zero-copy views instead of copying the columns.
        Falls back to the by-value snapshot whenever the export is stale
        (table mutated since), closed, or owned by another process.
        """
        export = self._shared_export
        if export is not None and export.matches(self):
            from repro.hidden_db.sharing import attach_shared_table

            return (attach_shared_table, (export.handle,))
        return (_restore_table, (self.__getstate__(),))

    def __getstate__(self):
        """Pickle without the weakref family list (process pools).

        A pickled copy is a *detached snapshot*: on the other side it
        starts a family of its own, since mutations cannot propagate
        across process boundaries anyway.  The shared-memory export (and
        an attached table's mapping) are process-local resources and stay
        behind too.
        """
        state = self.__dict__.copy()
        del state["_family"]
        state.pop("_shared_export", None)
        state.pop("_shm_attachment", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._family = [weakref.ref(self)]
        self._shared_export = None

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Sequence[Sequence[int]],
        measures: Optional[Mapping[str, Sequence[float]]] = None,
        **kwargs,
    ) -> "HiddenTable":
        """Build a table from Python-level rows (mainly for tests/examples)."""
        data = np.asarray(rows, dtype=np.int64)
        if data.size == 0:
            data = data.reshape(0, len(schema))
        measure_arrays = {
            name: np.asarray(col, dtype=float)
            for name, col in (measures or {}).items()
        }
        return cls(schema, data, measure_arrays, **kwargs)

    def __repr__(self) -> str:
        return (
            f"HiddenTable(m={self.num_tuples}, n={self.num_attributes}, "
            f"measures={list(self._measures)}, "
            f"backend={type(self._backend).__name__}, version={self._version})"
        )
