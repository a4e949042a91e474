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
"""

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.drilldown import Probe, Walker, _Landing
from repro.hidden_db.flaky import FlakyInterface
from repro.hidden_db.interface import TopKInterface
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
