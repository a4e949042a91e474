"""Epoch versioning of hidden tables.

Real hidden web databases churn — tuples are inserted, deleted and modified
daily (the setting of Liu et al., "Aggregate Estimation Over Dynamic Hidden
Web Databases").  This module defines the *description* of one mutation
epoch, :class:`TableDelta`, which flows from
:meth:`~repro.hidden_db.table.HiddenTable.apply_updates` down to every
selection backend so indexes can update incrementally instead of being
rebuilt from scratch.

Physical-row model
------------------
``HiddenTable`` uses **tombstones**: a deleted tuple keeps its physical row
id (so surviving rows, client-side identities and backend caches never
shift) but is flagged dead in the table's alive mask and excluded from
every selection.  Inserted tuples are appended at the end of the physical
arrays.  Modified tuples keep their physical id and change attribute values
in place.  ``HiddenTable.num_tuples`` always reports the *live* tuple
count — the paper's ``m`` — while ``num_physical_rows`` reports the
append-only physical length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TableDelta"]


def _as_id_array(ids) -> np.ndarray:
    arr = np.asarray(ids if ids is not None else [], dtype=np.int64).reshape(-1)
    return arr


@dataclass(frozen=True)
class TableDelta:
    """One epoch's mutation of a :class:`~repro.hidden_db.table.HiddenTable`.

    All ids are *physical* row ids.  ``inserted_ids`` are the freshly
    appended rows (``old_num_rows .. new_num_rows - 1``), ``deleted_ids``
    the rows tombstoned this epoch, and ``modified_ids`` the surviving rows
    whose attribute values (or measures) changed in place.

    Backends consume a delta via ``rebind(data, measures, alive, delta)``:
    a delta is a *promise* that every physical row outside the three id
    sets is byte-identical to the previous epoch, which is what makes an
    incremental index update sound.
    """

    old_num_rows: int
    new_num_rows: int
    inserted_ids: np.ndarray = field(default_factory=lambda: _as_id_array(None))
    deleted_ids: np.ndarray = field(default_factory=lambda: _as_id_array(None))
    modified_ids: np.ndarray = field(default_factory=lambda: _as_id_array(None))

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserted_ids", _as_id_array(self.inserted_ids))
        object.__setattr__(self, "deleted_ids", _as_id_array(self.deleted_ids))
        object.__setattr__(self, "modified_ids", _as_id_array(self.modified_ids))

    @property
    def num_inserted(self) -> int:
        return int(self.inserted_ids.size)

    @property
    def num_deleted(self) -> int:
        return int(self.deleted_ids.size)

    @property
    def num_modified(self) -> int:
        return int(self.modified_ids.size)

    @property
    def is_empty(self) -> bool:
        """True when the epoch changed nothing."""
        return not (self.num_inserted or self.num_deleted or self.num_modified)

    @property
    def churn(self) -> int:
        """Total number of touched tuples (the incremental-work budget)."""
        return self.num_inserted + self.num_deleted + self.num_modified

    def to_dict(self) -> dict:
        """JSON-ready summary of the epoch (the service's ``update``
        responses ship it over the wire; ids are plain ints)."""
        return {
            "old_num_rows": int(self.old_num_rows),
            "new_num_rows": int(self.new_num_rows),
            "inserted_ids": [int(i) for i in self.inserted_ids],
            "deleted_ids": [int(i) for i in self.deleted_ids],
            "modified_ids": [int(i) for i in self.modified_ids],
            "churn": self.churn,
        }

    def __repr__(self) -> str:
        return (
            f"TableDelta(+{self.num_inserted} -{self.num_deleted} "
            f"~{self.num_modified}, rows {self.old_num_rows}->"
            f"{self.new_num_rows})"
        )
