"""Bulk probe batching: ``query_many`` must equal the per-probe loop.

The vectorised drill-down inner loop rides on two bulk surfaces —
``TopKInterface.query_many`` / ``classify_many`` and
``HiddenDBClient.query_many`` — whose contract is *exact* equivalence
with the sequential ``query`` loop: same outcomes and counts, same
charges in the same order, same cache state afterwards, same early-exit
prefix under an ``until`` predicate.  These tests pin that contract on
the scan backend and the brute-force oracle backend, across cache states,
and across table mutation (tombstoned rows), plus the end-to-end claim:
the walker, which batches sibling probes into windows, is bit-identical
to the literal per-probe walk (``oracles.PerProbeWalker``) in outcomes,
charges and client cache state.
"""

import numpy as np
import pytest

from oracles import BruteForceBackend, PerProbeWalker, per_probe
from repro.core import HDUnbiasedAgg, HDUnbiasedSize
from repro.core.drilldown import Walker
from repro.core.weights import UniformWeights, WeightStore
from repro.datasets import bool_iid, yahoo_auto
from repro.hidden_db import (
    Attribute,
    HiddenDBClient,
    HiddenTable,
    NaiveScanBackend,
    Schema,
    TopKInterface,
)
from repro.hidden_db.query import ConjunctiveQuery
from repro.utils.rng import spawn_rng

BACKENDS = {"scan": NaiveScanBackend, "brute_force": BruteForceBackend}


def _random_queries(schema, count, seed=29, max_depth=3):
    """A reproducible stream of 1..max_depth-predicate conjunctions."""
    rng = spawn_rng(seed)
    queries = []
    for _ in range(count):
        depth = int(rng.integers(1, max_depth + 1))
        attrs = rng.choice(len(schema), size=depth, replace=False)
        query = ConjunctiveQuery()
        for attr in attrs:
            value = int(rng.integers(0, schema[int(attr)].domain_size))
            query = query.extended(int(attr), value)
        queries.append(query)
    return queries


def _sibling_window(schema, attr=0, base_attr=1, base_value=0):
    """All values of *attr* under one parent — the drill-down probe shape."""
    parent = ConjunctiveQuery().extended(base_attr, base_value)
    return [
        parent.extended(attr, v) for v in range(schema[attr].domain_size)
    ]


def _page_facts(result):
    return (result.outcome, result.num_returned)


@pytest.fixture(scope="module", params=sorted(BACKENDS))
def table(request):
    return yahoo_auto(m=2_000, seed=13).with_backend(BACKENDS[request.param])


class TestBackendCountsMany:
    def test_counts_many_equals_count_loop(self, table):
        backend = table.backend
        queries = _random_queries(table.schema, 120)
        bulk = backend.selection_counts_many(queries)
        assert bulk == [backend.selection_count(q) for q in queries]

    def test_sibling_window_fused_path(self, table):
        backend = table.backend
        window = _sibling_window(table.schema)
        bulk = backend.selection_counts_many(window)
        assert bulk == [backend.selection_count(q) for q in window]

    def test_counts_many_empty_batch(self, table):
        assert table.backend.selection_counts_many([]) == []


class TestInterfaceQueryMany:
    def test_query_many_equals_query_loop(self, table):
        queries = _random_queries(table.schema, 60)
        batched = TopKInterface(table, k=25)
        looped = TopKInterface(table, k=25)
        bulk = batched.query_many(queries, count_only=True)
        single = [looped.query(q, count_only=True) for q in queries]
        assert [_page_facts(r) for r in bulk] == [_page_facts(r) for r in single]
        assert batched.counter.issued == looped.counter.issued

    def test_classify_many_charges_nothing(self, table):
        interface = TopKInterface(table, k=25)
        queries = _random_queries(table.schema, 20)
        results = interface.classify_many(queries)
        assert interface.counter.issued == 0
        loop = [interface.query(q, count_only=True) for q in queries]
        assert [_page_facts(r) for r in results] == [_page_facts(r) for r in loop]

    def test_query_many_materializes_pages_when_asked(self, table):
        interface = TopKInterface(table, k=25)
        queries = _random_queries(table.schema, 10)
        for bulk, single in zip(
            interface.query_many(queries, count_only=False),
            [interface.query(q) for q in queries],
        ):
            assert bulk.tuples == single.tuples


class TestClientQueryMany:
    def _clients(self, table, **kwargs):
        return (
            HiddenDBClient(TopKInterface(table, k=25), **kwargs),
            HiddenDBClient(TopKInterface(table, k=25), **kwargs),
        )

    def _loop(self, client, queries, until=None):
        out = []
        for q in queries:
            result = client.query(q, count_only=True)
            out.append(result)
            if until is not None and until(result):
                break
        return out

    def assert_equivalent(self, table, queries, until=None, **client_kwargs):
        batched, looped = self._clients(table, **client_kwargs)
        bulk = batched.query_many(queries, until=until)
        single = self._loop(looped, queries, until=until)
        assert [_page_facts(r) for r in bulk] == [_page_facts(r) for r in single]
        assert batched.cost == looped.cost
        assert batched.cache_info() == looped.cache_info()
        # Same conjunctions memoised afterwards, bit for bit.
        assert list(batched._cache) == list(looped._cache)

    def test_fresh_cache(self, table):
        self.assert_equivalent(table, _random_queries(table.schema, 80))

    def test_duplicate_queries_hit_the_cache(self, table):
        queries = _random_queries(table.schema, 30)
        self.assert_equivalent(table, queries + queries[:15] + queries)

    def test_warm_cache_prefix(self, table):
        queries = _random_queries(table.schema, 40)
        batched, looped = self._clients(table)
        for client in (batched, looped):
            for q in queries[:25]:
                client.query(q, count_only=True)
        bulk = batched.query_many(queries)
        single = self._loop(looped, queries)
        assert [_page_facts(r) for r in bulk] == [_page_facts(r) for r in single]
        assert batched.cost == looped.cost
        assert batched.cache_info() == looped.cache_info()

    def test_until_charges_only_the_consumed_prefix(self, table):
        window = _sibling_window(table.schema)

        def landed(result):
            return not result.underflow

        batched, looped = self._clients(table)
        bulk = batched.query_many(window, until=landed)
        single = self._loop(looped, window, until=landed)
        assert len(bulk) == len(single) <= len(window)
        assert batched.cost == looped.cost == len(single)
        assert batched.cache_info() == looped.cache_info()

    def test_cacheless_client(self, table):
        self.assert_equivalent(
            table, _random_queries(table.schema, 40), cache=False
        )

    def test_hard_limit_falls_back_to_the_literal_loop(self, table):
        from repro.hidden_db.counters import QueryCounter
        from repro.hidden_db.exceptions import QueryLimitExceeded

        queries = _random_queries(table.schema, 30)
        costs = []
        for _ in range(2):
            interface = TopKInterface(table, k=25, counter=QueryCounter(limit=10))
            client = HiddenDBClient(interface)
            with pytest.raises(QueryLimitExceeded):
                client.query_many(queries)
            costs.append(client.cost)
        assert costs[0] == costs[1] == 10

    def test_tombstoned_rows_after_apply_updates(self, table):
        mutable = yahoo_auto(m=2_000, seed=13).with_backend(
            type(table.backend)
        )
        queries = _random_queries(mutable.schema, 60)
        batched = HiddenDBClient(TopKInterface(mutable, k=25))
        looped = HiddenDBClient(TopKInterface(mutable, k=25))
        # Warm both caches at version 0, then tombstone a slab of rows.
        batched.query_many(queries[:30])
        self._loop(looped, queries[:30])
        mutable.apply_updates(deletes=list(range(0, 1_000, 3)))
        bulk = batched.query_many(queries)
        single = self._loop(looped, queries)
        assert [_page_facts(r) for r in bulk] == [_page_facts(r) for r in single]
        assert batched.cost == looped.cost
        assert batched.cache_info() == looped.cache_info()
        # And the post-mutation pages really exclude the tombstoned rows.
        fresh = HiddenDBClient(TopKInterface(mutable, k=25))
        for q, result in zip(queries, bulk):
            assert result.num_returned == (
                fresh.query(q, count_only=True).num_returned
            )


class TestEstimatorEquivalence:
    def test_batch_probes_is_bit_identical(self, table):
        results = {}
        for literal in (False, True):
            estimator = HDUnbiasedSize(
                HiddenDBClient(TopKInterface(table, k=25)),
                r=2, dub=16, seed=41,
            )
            if literal:
                per_probe(estimator)
            results[literal] = estimator.run(rounds=12)
        assert results[False].estimates == results[True].estimates
        assert results[False].total_cost == results[True].total_cost


def _wide_table(m=3_000, seed=17):
    """A hand-built table whose first attribute has 40 values.

    40 is above the weight store's scalar-list cutoff (32), so the walker
    picks from a numpy distribution there.  Values are drawn with a steep
    skew, so many of them underflow below most parents and both the
    right walk and the left walk run long windows.
    """
    rng = spawn_rng(seed)
    schema = Schema(
        [Attribute("WIDE", 40), Attribute("MID", 5)]
        + [Attribute(f"B{j}", 2) for j in range(8)],
        measure_names=("X",),
    )
    wide = np.minimum(rng.geometric(0.3, size=4 * m) - 1, 39)
    rows = np.column_stack(
        [wide, rng.integers(0, 5, size=4 * m)]
        + [rng.integers(0, 2, size=4 * m) for _ in range(8)]
    )
    rows = np.unique(rows, axis=0)
    rows = rows[rng.permutation(rows.shape[0])[:m]]
    return HiddenTable(schema, rows, {"X": rng.random(rows.shape[0]) * 10})


ORACLE_TABLES = {
    "yahoo": lambda: yahoo_auto(m=3_000, seed=13),  # fanouts 16 down to 2
    "iid": lambda: bool_iid(m=3_000, seed=13),  # fanout 2 everywhere
    "wide": _wide_table,  # one 40-value attribute
}


def _walk_facts(outcome):
    return (
        outcome.kind,
        outcome.query.key,
        outcome.probability,
        outcome.result is None,
        None if outcome.result is None else outcome.result.num_returned,
        [
            (s.node_key, s.attr, s.fanout, s.value, s.probability)
            for s in outcome.steps
        ],
    )


def _client_facts(client):
    return client.cost, client.cache_info(), list(client._cache)


@pytest.fixture(scope="module", params=sorted(ORACLE_TABLES))
def oracle_table(request):
    return ORACLE_TABLES[request.param]()


class TestWalkerMatchesPerProbeOracle:
    """The windowed level step against the literal per-probe walk."""

    @pytest.mark.parametrize("k", [3, 25])
    @pytest.mark.parametrize("adjusted", [False, True])
    def test_walks_charges_and_cache_identical(self, oracle_table, k, adjusted):
        order = list(oracle_table.schema.decreasing_fanout_order())
        runs = []
        for walker_class in (Walker, PerProbeWalker):
            client = HiddenDBClient(TopKInterface(oracle_table, k))
            weights = WeightStore() if adjusted else UniformWeights()
            walker = walker_class(client, weights, spawn_rng(5))
            outcomes = []
            for _ in range(150):
                outcome = walker.drill_down(ConjunctiveQuery(), order)
                if adjusted:
                    weights.record_walk(outcome.steps, 1.0)
                outcomes.append(_walk_facts(outcome))
            runs.append((outcomes, _client_facts(client)))
        assert runs[0] == runs[1]

    def test_estimators_identical(self, oracle_table):
        measure = oracle_table.schema.measure_names[0]
        results = []
        for literal in (False, True):
            client = HiddenDBClient(TopKInterface(oracle_table, 10))
            estimator = HDUnbiasedAgg(
                client, aggregate="sum", measure=measure, r=3, dub=8, seed=23,
            )
            if literal:
                per_probe(estimator)
            result = estimator.run(rounds=10)
            results.append(
                (result.estimates, result.total_cost, _client_facts(client))
            )
        assert results[0] == results[1]

    def test_oracle_covers_the_wide_pick_and_backtracking(self):
        """The wide table really exercises what the oracle is there for."""
        table = _wide_table()
        client = HiddenDBClient(TopKInterface(table, 3))
        walker = Walker(client, UniformWeights(), spawn_rng(5))
        order = list(table.schema.decreasing_fanout_order())
        assert table.schema[order[0]].domain_size == 40
        landed = set()
        backtracked = 0
        for _ in range(150):
            outcome = walker.drill_down(ConjunctiveQuery(), order)
            first = outcome.steps[0]
            landed.add(first.value)
            # A landing probability above one pick's share means the walk
            # crossed a run of empty branches.
            backtracked += first.probability > 1.5 / 40
        assert len(landed) > 10
        assert backtracked > 10
