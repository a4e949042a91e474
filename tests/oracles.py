"""Reference implementations the fast paths in ``src/`` are tested against.

Each oracle is the plain, one-thing-at-a-time version of an algorithm the
library runs in a faster form.  They are deliberately slow and literal:

* :class:`PerProbeWalker` — the drill-down level as written in the paper:
  ``Generator.choice`` picks the branch and every sibling is probed on its
  own.  :class:`~repro.core.drilldown.Walker` must match it in outcomes,
  charges and client cache state.
* :func:`per_round_loop` — the engine's schedule without cohorts: one
  fresh estimator and one ``run_once`` per round seed.  ``run_cohort``
  must match it round for round.
* :func:`per_query_interface` — a top-k form without ``classify_many``,
  so ``HiddenDBClient.query_many`` takes its literal per-query loop.
* :class:`BruteForceBackend` — a selection backend that scans every live
  row for every query, with no cache.  The scan backend must agree with
  it id for id, before and after table mutation.
* :class:`TupleSetChurnGenerator` — the churn generator that tracks live
  tuples as a set of Python tuples, reads every deleted and modified row
  with ``row_values`` and tests insert candidates one tuple at a time.
  :class:`~repro.datasets.churn.ChurnGenerator` must yield the same
  deltas and leave the same table bytes, epoch after epoch.
"""

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.drilldown import Probe, Walker, _Landing
from repro.hidden_db.flaky import FlakyInterface
from repro.hidden_db.interface import TopKInterface
from repro.hidden_db.versioning import TableDelta
from repro.utils.rng import spawn_rng
from repro.hidden_db.query import ConjunctiveQuery


class PerProbeWalker(Walker):
    """:class:`Walker` with the literal per-probe level step."""

    def _choose_branch_plan(self, node, attr):
        fanout = self.schema[attr].domain_size
        dist = self._pick_weights(node.key, attr, fanout)
        start = int(self.rng.choice(fanout, p=dist))

        # Smart backtracking: walk right (circularly) from the initial pick
        # until a non-underflowing branch is found.
        value = start
        backtracked = False
        for _ in range(fanout):
            query = node.extended(attr, value)
            if fanout == 2 and backtracked:
                # Boolean shortcut: the sibling must overflow; not issued.
                return _Landing(value, query, None, 1.0, False)
            result = yield Probe(query)
            if not result.underflow:
                break
            self.weights.mark_empty(node.key, attr, fanout, value)
            backtracked = True
            value = (value + 1) % fanout
        else:
            raise RuntimeError("every branch underflows below an overflow")
        valid = result.valid
        if fanout == 2 and valid and not backtracked:
            # Final-level Boolean shortcut: the sibling cannot be empty.
            return _Landing(value, query, result, float(dist[value]), valid)

        # Landing probability: the landed branch plus its run of
        # consecutive underflowing predecessors, probed one at a time.
        probability = float(dist[value])
        pred = (value - 1) % fanout
        while pred != value:
            pred_result = yield Probe(node.extended(attr, pred))
            if not pred_result.underflow:
                break
            self.weights.mark_empty(node.key, attr, fanout, pred)
            probability += float(dist[pred])
            pred = (pred - 1) % fanout
        else:
            probability = 1.0  # full circle: landing here was certain
        return _Landing(value, query, result, probability, valid)


def per_probe(estimator):
    """Swap *estimator*'s walker for a :class:`PerProbeWalker` in place."""
    walker = estimator.walker
    estimator.walker = PerProbeWalker(walker.client, walker.weights, walker.rng)
    return estimator


def per_round_loop(factory, seeds: Sequence[int]) -> List[tuple]:
    """``(estimate, client report)`` per seed, one round after another."""
    out = []
    for seed in seeds:
        estimator = factory(seed)
        out.append((estimator.run_once(), estimator.client.report()))
    return out


def per_query_interface(table, k: int, **kwargs) -> FlakyInterface:
    """A form that never fails and answers one query at a time."""
    return FlakyInterface(TopKInterface(table, k, **kwargs), failure_rate=0.0)


class BruteForceBackend:
    """Answers every selection with a full scan of the live rows."""

    def __init__(
        self,
        data: np.ndarray,
        measures: Mapping[str, np.ndarray],
        max_cached_queries: int = 0,
        alive: Optional[np.ndarray] = None,
    ) -> None:
        self.rebind(data, measures, alive)

    def _mask(self, query: ConjunctiveQuery) -> np.ndarray:
        mask = self._alive.copy()
        for attr, value in query.predicates:
            mask &= self._data[:, attr] == value
        return mask

    def selection_ids(self, query: ConjunctiveQuery) -> np.ndarray:
        return np.flatnonzero(self._mask(query)).astype(np.int64)

    def selection_count(self, query: ConjunctiveQuery) -> int:
        return int(self._mask(query).sum())

    def selection_counts_many(self, queries) -> List[int]:
        return [self.selection_count(q) for q in queries]

    def selection_measure_sum(self, query: ConjunctiveQuery, measure: str) -> float:
        return float(self._measures[measure][self._mask(query)].sum())

    def clear_cache(self) -> None:
        pass

    def rebind(self, data, measures, alive=None, delta=None) -> None:
        self._data = data
        self._measures = dict(measures)
        if alive is None:
            alive = np.ones(data.shape[0], dtype=bool)
        self._alive = np.asarray(alive, dtype=bool)



class TupleSetChurnGenerator:
    """The churn generator with a Python-tuple identity set, as written
    before row keys: same random draws in the same order, literal
    bookkeeping."""

    def __init__(
        self,
        table,
        rate=None,
        insert_rate=None,
        delete_rate=None,
        modify_rate=None,
        seed=None,
        measure_jitter: float = 0.1,
    ) -> None:
        if rate is None and insert_rate is None and delete_rate is None and modify_rate is None:
            rate = 0.05
        base = (rate or 0.0) / 3.0
        self.insert_rate = base if insert_rate is None else float(insert_rate)
        self.delete_rate = base if delete_rate is None else float(delete_rate)
        self.modify_rate = base if modify_rate is None else float(modify_rate)
        self.table = table
        self.measure_jitter = float(measure_jitter)
        self.rng = spawn_rng(seed)
        self._live_tuples = {
            tuple(int(v) for v in row) for row in np.asarray(table.data)
        }

    def _live_ids(self) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.table.alive_mask)).astype(np.int64)

    def _data_at(self, physical_ids: np.ndarray) -> np.ndarray:
        rows = np.asarray(self.table._data[physical_ids], dtype=np.int64)
        return rows.reshape(-1, len(self.table.schema))

    def _sample_insert_rows(self, count: int, live_ids: np.ndarray) -> np.ndarray:
        schema = self.table.schema
        n = len(schema)
        if count <= 0:
            return np.empty((0, n), dtype=np.int64)
        rows: List[tuple] = []
        taken = self._live_tuples
        live_matrix = self._data_at(live_ids) if live_ids.size else None
        remaining = count
        for _attempt in range(200):
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
            for row in batch:
                candidate = tuple(int(v) for v in row)
                if candidate not in taken:
                    taken.add(candidate)
                    rows.append(candidate)
            remaining = count - len(rows)
        if not rows:
            return np.empty((0, n), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    def _sample_insert_measures(self, rows: int, live_ids: np.ndarray) -> Dict[str, np.ndarray]:
        measures: Dict[str, np.ndarray] = {}
        for name in self.table.schema.measure_names:
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

    def _sample_modifications(self, ids: np.ndarray, taken_out: set) -> Dict[int, Dict[int, int]]:
        schema = self.table.schema
        n = len(schema)
        patches: Dict[int, Dict[int, int]] = {}
        for row_id in ids:
            old = self.table.row_values(int(row_id))
            for _attempt in range(200):
                attr = int(self.rng.integers(0, n))
                domain = schema[attr].domain_size
                if domain < 2:
                    continue
                value = int(self.rng.integers(0, domain))
                if value == old[attr]:
                    continue
                candidate = old[:attr] + (value,) + old[attr + 1:]
                if candidate in taken_out:
                    continue
                taken_out.discard(old)
                taken_out.add(candidate)
                patches[int(row_id)] = {attr: value}
                break
        return patches

    def epoch(self) -> TableDelta:
        live_ids = self._live_ids()
        m = live_ids.size
        if m:
            n_insert = int(self.rng.binomial(m, min(1.0, self.insert_rate)))
        else:
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

        for row_id in delete_ids:
            self._live_tuples.discard(self.table.row_values(int(row_id)))
        modifications = self._sample_modifications(modify_ids, self._live_tuples)
        inserts = self._sample_insert_rows(n_insert, survivors)
        insert_measures = self._sample_insert_measures(inserts.shape[0], survivors)
        return self.table.apply_updates(
            inserts=inserts,
            deletes=delete_ids,
            modifications=modifications,
            insert_measures=insert_measures,
        )
