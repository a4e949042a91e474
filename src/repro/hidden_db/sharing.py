"""Zero-copy table transport for process pools.

A :class:`~repro.hidden_db.table.HiddenTable` is a handful of numpy
columns.  Shipping it to a process-pool worker through pickle copies every
column per task — at paper scale that is tens of megabytes per submission,
which is how a "parallel" session ends up slower than a sequential one.

This module exports the columns **once** into a
:mod:`multiprocessing.shared_memory` block and replaces the pickle payload
with a :class:`SharedTableHandle` — a few hundred bytes naming the block
and describing the array layout.  Workers rebind numpy views directly onto
the mapped block (zero copy, read-only) and memoise the attached table per
process, so every task after the first is pure arithmetic.

Lifecycle
---------
* :func:`export_table` (parent, idempotent per table version) copies the
  columns into a fresh shared block and parks a :class:`TableExport` on the
  table; ``HiddenTable.__reduce__`` then pickles as the handle.
* :func:`attach_shared_table` (worker, via unpickle) maps the block,
  builds read-only views, reconstructs the table and its selection
  backend, and caches the result keyed by the block name — a new export
  (new version) has a new name, so staleness is structural, not tracked.
* :meth:`TableExport.close` (parent, owner process only) unlinks the
  block.  Workers that still hold a mapping keep their (orphaned) pages
  until they drop them — POSIX keeps mapped memory alive past the unlink.

The export never changes estimator behaviour: the attached table holds the
same values, version and live-row count as the original, so every probe
classifies identically and the engine's bit-identity contract is
untouched.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "SharedTableHandle",
    "TableExport",
    "export_table",
    "attach_shared_table",
]

#: (array key, dtype string, shape, byte offset into the block)
_ArraySpec = Tuple[str, str, Tuple[int, ...], int]


@dataclass(frozen=True)
class SharedTableHandle:
    """Picklable description of an exported table — the whole IPC payload.

    ``backend`` is the class of the selection engine to rebuild
    worker-side; the engine itself is never shipped — its caches are
    derived state and each worker builds its own against the shared
    columns, once, on first attach.
    """

    shm_name: str
    arrays: Tuple[_ArraySpec, ...]
    schema: "object"
    num_live: int
    version: int
    backend: "object"
    max_cached_queries: int
    check_duplicates: bool
    #: PID of the exporting process's resource-tracker daemon.  Workers
    #: compare it against their own to decide whether attaching registered
    #: the block with a *second* tracker that must be told to stand down
    #: (see :func:`attach_shared_table`).
    tracker_pid: Optional[int] = None


class TableExport:
    """Owner-side record of one table's shared-memory block."""

    def __init__(self, shm: shared_memory.SharedMemory, handle: SharedTableHandle) -> None:
        self.shm = shm
        self.handle = handle
        self.version = handle.version
        #: Guard against forked children unlinking the parent's block from
        #: their ``__del__``/``close`` — only the creating process owns it.
        self.owner_pid = os.getpid()
        self.closed = False

    def matches(self, table) -> bool:
        """True while this export can stand in for *table* in a pickle."""
        return (
            not self.closed
            and self.version == table._version
            and self.owner_pid == os.getpid()
        )

    def close(self) -> None:
        """Release the block (idempotent; no-op outside the owner process)."""
        if self.closed:
            return
        self.closed = True
        self.shm.close()
        if self.owner_pid == os.getpid():
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def export_table(table) -> TableExport:
    """Copy *table*'s columns into shared memory (idempotent per version).

    Parks the resulting :class:`TableExport` on ``table._shared_export``,
    which switches ``HiddenTable.__reduce__`` over to handle-based
    pickling.  A table that mutated since its last export is re-exported
    into a fresh block (the stale block is unlinked); an up-to-date export
    is returned as-is, so calling this before every process wave is free.
    """
    export: Optional[TableExport] = getattr(table, "_shared_export", None)
    if export is not None:
        if export.matches(table):
            return export
        export.close()
        table._shared_export = None

    columns = [("data", table._data), ("alive", table._alive)]
    for name, col in table._measures.items():
        columns.append((f"measure:{name}", col))

    specs = []
    offset = 0
    for key, array in columns:
        array = np.ascontiguousarray(array)
        # Align every array on 16 bytes so the worker-side views are as
        # friendly to vectorised kernels as freshly allocated ones.
        offset = (offset + 15) & ~15
        specs.append((key, array.dtype.str, array.shape, offset))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (key, dtype, shape, start), (_, array) in zip(specs, columns):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
        view[...] = array

    handle = SharedTableHandle(
        shm_name=shm.name,
        arrays=tuple(specs),
        schema=table.schema,
        num_live=table._num_live,
        version=table._version,
        backend=type(table._backend),
        max_cached_queries=table._max_cached_queries,
        check_duplicates=table._check_duplicates,
        tracker_pid=_tracker_pid(),
    )
    export = TableExport(shm, handle)
    table._shared_export = export
    return export


def _tracker_pid() -> Optional[int]:
    """PID of this process's resource-tracker daemon (``None`` if unknown)."""
    try:
        return resource_tracker._resource_tracker._pid
    except Exception:  # pragma: no cover - tracker internals vary
        return None


#: Per-process memo of attached tables, keyed by shared-block name (a new
#: export always has a new name, so a stale entry can never be returned).
#: Values are strong references: the table must outlive the task that
#: unpickled it, and the mapping must outlive the table.
_ATTACHED: Dict[str, "object"] = {}


def attach_shared_table(handle: SharedTableHandle):
    """Rebuild a :class:`HiddenTable` over the shared block (worker side).

    The first attach per process maps the block, wraps read-only numpy
    views around the columns and constructs the selection backend; every
    later attach of the same export returns the memoised table, so
    repeated task submissions cost no setup at all.
    """
    table = _ATTACHED.get(handle.shm_name)
    if table is not None:
        return table

    from repro.hidden_db.backends import make_backend
    from repro.hidden_db.table import HiddenTable

    shm = shared_memory.SharedMemory(name=handle.shm_name)
    # The exporter owns the block's lifetime; attachers borrow, never
    # reap.  What attaching just did to the resource tracker depends on
    # the start method:
    #
    # * forked workers share the exporter's tracker daemon — its cache is
    #   a set, so the attach-side register was a dedup no-op and must NOT
    #   be undone (an unregister here would cancel the *exporter's*
    #   registration and make its later unlink an error);
    # * spawned workers run their own tracker, which would unlink the
    #   block when this worker exits — that registration must be revoked.
    #
    # The handle carries the exporter's tracker PID, so the two cases are
    # distinguishable by comparing daemons.
    if _tracker_pid() != handle.tracker_pid:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass

    views = {}
    for key, dtype, shape, offset in handle.arrays:
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        view.flags.writeable = False
        views[key] = view
    data = views["data"]
    alive = views["alive"]
    measures = {
        key.split(":", 1)[1]: view
        for key, view in views.items()
        if key.startswith("measure:")
    }

    table = HiddenTable.__new__(HiddenTable)
    table.schema = handle.schema
    table._data = data
    table._owns_data = False  # first in-place mutation copies, as usual
    table._measures = measures
    table._alive = alive
    table._num_live = handle.num_live
    table._version = handle.version
    table._check_duplicates = handle.check_duplicates
    table._max_cached_queries = handle.max_cached_queries
    table._backend = make_backend(
        handle.backend, data, measures, alive=alive,
        max_cached_queries=handle.max_cached_queries,
    )
    table._family = [weakref.ref(table)]
    table._shared_export = None
    # Keep the mapping alive as long as the table is (close() on a mapped
    # SharedMemory invalidates every view into it).
    table._shm_attachment = shm
    _ATTACHED[handle.shm_name] = table
    return table
