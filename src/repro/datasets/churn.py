"""Seeded churn workloads: per-epoch insert/delete/modify streams.

Real hidden web databases are *dynamic* — classified-ads sites turn over a
few percent of their inventory every day (the setting of Liu et al.,
"Aggregate Estimation Over Dynamic Hidden Web Databases").
:class:`ChurnGenerator` reproduces that on top of **any** existing
:class:`~repro.hidden_db.table.HiddenTable`: each :meth:`~ChurnGenerator.epoch`
draws a seeded batch of

* **inserts** — fresh tuples sampled per-attribute from the live empirical
  value distribution (so churn preserves the dataset's skew), deduplicated
  against the live population;
* **deletes** — uniform over the live tuples;
* **modifications** — a live tuple changes one randomly chosen attribute to
  a different in-domain value (again deduplicated);

and applies it through :meth:`HiddenTable.apply_updates`, bumping the table
version.  Everything is driven by one seeded RNG, so a fixed
``(table, seed)`` pair replays the identical database evolution — which is
what lets the unbiasedness experiments hold the ground truth fixed across
estimator replications.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.hidden_db.schema import key_shifts, row_keys
from repro.hidden_db.table import HiddenTable
from repro.hidden_db.versioning import TableDelta
from repro.utils.rng import RandomSource, spawn_rng

__all__ = ["ChurnGenerator", "apply_churn"]

#: Give up on sampling a non-duplicate tuple after this many redraws.
_MAX_SAMPLING_ATTEMPTS = 200


class ChurnGenerator:
    """Seeded per-epoch mutation workload over one table (family).

    The generator tracks the live tuples by their row keys
    (:func:`~repro.hidden_db.schema.row_keys`, one int per tuple), never by
    rows: deletes drop their keys in bulk, an insert candidate is accepted
    when its key is neither live nor taken earlier in its batch, and a
    modification's candidate key is the old key plus the changed field
    (:func:`~repro.hidden_db.schema.key_shifts`).

    Parameters
    ----------
    table:
        The table to churn.  Mutations propagate to every table derived
        from it via ``with_backend`` (they share storage).
    rate:
        Convenience knob: expected fraction of the live population touched
        per epoch, split evenly between inserts, deletes and
        modifications.  Overridden component-wise by the explicit rates.
    insert_rate / delete_rate / modify_rate:
        Expected per-epoch fractions (of the current live size) of
        inserted / deleted / modified tuples.  Counts are drawn binomially,
        so epochs fluctuate realistically around the expectation.
    seed:
        RNG source; fixes the entire update stream.
    measure_jitter:
        Inserted tuples copy the measures of a random live tuple, scaled
        by ``1 + U(-jitter, +jitter)`` — new inventory priced like old
        inventory, but not identical to it.
    """

    def __init__(
        self,
        table: HiddenTable,
        rate: Optional[float] = None,
        insert_rate: Optional[float] = None,
        delete_rate: Optional[float] = None,
        modify_rate: Optional[float] = None,
        seed: RandomSource = None,
        measure_jitter: float = 0.1,
    ) -> None:
        if rate is None and insert_rate is None and delete_rate is None and modify_rate is None:
            rate = 0.05
        base = (rate or 0.0) / 3.0
        self.insert_rate = base if insert_rate is None else float(insert_rate)
        self.delete_rate = base if delete_rate is None else float(delete_rate)
        self.modify_rate = base if modify_rate is None else float(modify_rate)
        for name in ("insert_rate", "delete_rate", "modify_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        self.table = table
        self.measure_jitter = float(measure_jitter)
        self.rng = spawn_rng(seed)
        self.epochs_generated = 0
        self._fanouts = table.schema.fanouts()
        self._shifts = key_shifts(self._fanouts)
        # Live-tuple identity set: the row key of every live tuple (tuples
        # are unique by attribute values in the paper's model).  Kept in
        # sync so sampled inserts/modifications never create duplicates.
        self._live_keys = set(self._keys(table.data))

    # -- sampling ---------------------------------------------------------

    def _keys(self, rows: np.ndarray) -> list:
        """Row keys (Python ints) of attribute rows."""
        return row_keys(rows, self._fanouts).tolist()

    def _live_ids(self) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.table.alive_mask)).astype(np.int64)

    def _sample_insert_rows(self, count: int, live_ids: np.ndarray) -> np.ndarray:
        """Fresh non-duplicate tuples following the live value distribution.

        Per-attribute empirical sampling: each column value of a candidate
        is copied from an independently chosen live row, so marginal value
        frequencies (the dataset's skew) are preserved while the joint
        distribution mixes.  Candidates colliding with a live tuple (or
        each other) are redrawn in vectorised batches; a dense table that
        runs out of fresh combinations simply inserts fewer tuples.
        """
        schema = self.table.schema
        n = len(schema)
        if count <= 0:
            return np.empty((0, n), dtype=np.int64)
        accepted: List[np.ndarray] = []
        # Accepted candidates join the identity set directly — epoch()
        # relies on it being current when the batch is applied.
        taken = self._live_keys
        live_matrix = (
            self._data_at(live_ids) if live_ids.size else None
        )
        remaining = count
        for _attempt in range(_MAX_SAMPLING_ATTEMPTS):
            if remaining <= 0:
                break
            if live_matrix is not None:
                batch = np.column_stack([
                    self.rng.choice(live_matrix[:, j], size=remaining, replace=True)
                    for j in range(n)
                ])
            else:
                batch = np.column_stack([
                    self.rng.integers(0, schema[j].domain_size, size=remaining)
                    for j in range(n)
                ])
            fresh = []
            for i, key in enumerate(self._keys(batch)):
                if key not in taken:
                    taken.add(key)
                    fresh.append(i)
            accepted.append(batch[fresh])
            remaining -= len(fresh)
        return np.concatenate(accepted, axis=0)

    def _data_at(self, physical_ids: np.ndarray) -> np.ndarray:
        """Attribute rows of the given physical ids (int64 matrix).

        The generator is server-side machinery (it *is* the database
        operator), so reaching into the table's physical storage is fair —
        estimators never see any of this.
        """
        rows = np.asarray(self.table._data[physical_ids], dtype=np.int64)
        return rows.reshape(-1, len(self.table.schema))

    def _sample_insert_measures(self, rows: int, live_ids: np.ndarray) -> Dict[str, np.ndarray]:
        measures: Dict[str, np.ndarray] = {}
        names = self.table.schema.measure_names
        if not names:
            return measures
        for name in names:
            if live_ids.size:
                donors = self.rng.choice(live_ids, size=rows, replace=True)
                base = np.asarray(self.table._measures[name][donors], dtype=float)
            else:
                base = np.ones(rows)
            jitter = 1.0 + self.rng.uniform(
                -self.measure_jitter, self.measure_jitter, size=rows
            )
            measures[name] = base * jitter
        return measures

    def _sample_modifications(self, ids: np.ndarray) -> Dict[int, Dict[int, int]]:
        """One-attribute patches that keep the live population duplicate-free."""
        taken = self._live_keys
        fanouts = self._fanouts
        shifts = self._shifts
        n = len(fanouts)
        rows = self._data_at(ids)
        patches: Dict[int, Dict[int, int]] = {}
        for row_id, old, old_key in zip(
            ids.tolist(), rows.tolist(), self._keys(rows)
        ):
            for _attempt in range(_MAX_SAMPLING_ATTEMPTS):
                attr = int(self.rng.integers(0, n))
                value = int(self.rng.integers(0, fanouts[attr]))
                if value == old[attr]:
                    continue
                candidate = old_key + ((value - old[attr]) << shifts[attr])
                if candidate in taken:
                    continue
                taken.discard(old_key)
                taken.add(candidate)
                patches[row_id] = {attr: value}
                break
        return patches

    # -- epochs -----------------------------------------------------------

    def epoch(self) -> TableDelta:
        """Generate one epoch's update batch and apply it to the table.

        Returns the applied :class:`TableDelta`; the table's version has
        been bumped (and every ``with_backend`` sibling updated) when this
        returns.
        """
        live_ids = self._live_ids()
        m = live_ids.size
        if m:
            n_insert = int(self.rng.binomial(m, min(1.0, self.insert_rate)))
        else:
            # Bootstrap an emptied-out table with one insert per epoch so
            # churn streams never die completely.
            n_insert = 1 if self.insert_rate > 0 else 0
        n_delete = int(self.rng.binomial(m, min(1.0, self.delete_rate)))
        n_modify = int(self.rng.binomial(m, min(1.0, self.modify_rate)))

        n_delete = min(n_delete, m)
        delete_ids = (
            np.sort(self.rng.choice(live_ids, size=n_delete, replace=False))
            if n_delete else np.empty(0, dtype=np.int64)
        )
        survivors = np.setdiff1d(live_ids, delete_ids, assume_unique=True)
        n_modify = min(n_modify, survivors.size)
        modify_ids = (
            np.sort(self.rng.choice(survivors, size=n_modify, replace=False))
            if n_modify else np.empty(0, dtype=np.int64)
        )

        # Deleted tuples leave the identity set before inserts are drawn,
        # so an insert may legitimately resurrect a just-deleted tuple.
        self._live_keys.difference_update(self._keys(self._data_at(delete_ids)))
        modifications = self._sample_modifications(modify_ids)
        inserts = self._sample_insert_rows(n_insert, survivors)
        insert_measures = self._sample_insert_measures(
            inserts.shape[0], survivors
        )

        delta = self.table.apply_updates(
            inserts=inserts,
            deletes=delete_ids,
            modifications=modifications,
            insert_measures=insert_measures,
        )
        self.epochs_generated += 1
        return delta

    def run(self, epochs: int) -> List[TableDelta]:
        """Apply *epochs* consecutive epochs, returning their deltas."""
        return [self.epoch() for _ in range(epochs)]

    def __repr__(self) -> str:
        return (
            f"ChurnGenerator(insert={self.insert_rate:.3f}, "
            f"delete={self.delete_rate:.3f}, modify={self.modify_rate:.3f}, "
            f"epochs={self.epochs_generated})"
        )


def apply_churn(
    table: HiddenTable,
    epochs: int,
    rate: float = 0.05,
    seed: RandomSource = None,
) -> List[TableDelta]:
    """Convenience wrapper: churn *table* for *epochs* epochs at *rate*."""
    return ChurnGenerator(table, rate=rate, seed=seed).run(epochs)
