"""Unit tests for the top-k form interface."""

import struct

import numpy as np
import pytest

from repro.datasets import ChurnGenerator, yahoo_auto
from repro.hidden_db import (
    Attribute,
    ConjunctiveQuery,
    HiddenTable,
    InvalidQueryError,
    QueryOutcome,
    Schema,
    StaleResultError,
    TopKInterface,
)
from repro.hidden_db.ranking import MeasureRanking, RowIdRanking


def make_table(m=10):
    schema = Schema([Attribute("A", 2), Attribute("B", 5)], measure_names=("P",))
    rows = [[i % 2, i % 5] for i in range(m)]
    # Deduplicate rows by shifting B for collisions; simpler: use distinct pairs.
    rows = [[(i // 5) % 2, i % 5] for i in range(m)]
    return HiddenTable.from_rows(
        schema, rows, measures={"P": [float(10 * i) for i in range(m)]}
    )


class TestOutcomes:
    def test_three_outcomes(self):
        schema = Schema([Attribute("A", 3)])
        t = HiddenTable.from_rows(schema, [[0], [1]])
        iface = TopKInterface(t, k=1)
        assert iface.query(ConjunctiveQuery().extended(0, 2)).underflow
        assert iface.query(ConjunctiveQuery().extended(0, 0)).valid
        assert iface.query(ConjunctiveQuery()).overflow

    def test_valid_returns_all_matches(self):
        t = make_table()
        iface = TopKInterface(t, k=5)
        res = iface.query(ConjunctiveQuery().extended(0, 0))
        assert res.valid
        assert res.num_returned == 5
        values = {r.values for r in res.tuples}
        assert values == {(0, b) for b in range(5)}

    def test_overflow_returns_exactly_k(self):
        t = make_table()
        iface = TopKInterface(t, k=4)
        res = iface.query(ConjunctiveQuery())
        assert res.overflow
        assert res.num_returned == 4

    def test_valid_boundary_at_exactly_k(self):
        t = make_table()
        iface = TopKInterface(t, k=10)
        res = iface.query(ConjunctiveQuery())
        assert res.valid  # |Sel| == k is valid, not overflow
        assert res.num_returned == 10

    def test_overflow_boundary_at_k_plus_one(self):
        t = make_table(m=11)
        iface = TopKInterface(t, k=10)
        assert iface.query(ConjunctiveQuery()).overflow

    def test_measures_on_returned_tuples(self):
        t = make_table()
        iface = TopKInterface(t, k=10)
        res = iface.query(ConjunctiveQuery())
        total = res.sum_measure("P")
        assert total == sum(10.0 * i for i in range(10))

    def test_k_must_be_positive(self):
        with pytest.raises(InvalidQueryError):
            TopKInterface(make_table(), k=0)

    def test_invalid_query_rejected(self):
        iface = TopKInterface(make_table(), k=3)
        with pytest.raises(InvalidQueryError):
            iface.query(ConjunctiveQuery().extended(1, 9))


class TestCounting:
    def test_every_query_is_charged(self):
        iface = TopKInterface(make_table(), k=3)
        q = ConjunctiveQuery()
        iface.query(q)
        iface.query(q)  # the raw interface does not cache
        assert iface.counter.issued == 2

    def test_invalid_queries_are_not_charged(self):
        iface = TopKInterface(make_table(), k=3)
        with pytest.raises(InvalidQueryError):
            iface.query(ConjunctiveQuery().extended(1, 9))
        assert iface.counter.issued == 0


class TestRanking:
    def test_row_id_ranking_deterministic(self):
        t = make_table()
        iface = TopKInterface(t, k=4, ranking=RowIdRanking())
        res1 = iface.query(ConjunctiveQuery())
        res2 = iface.query(ConjunctiveQuery())
        assert [r.values for r in res1.tuples] == [r.values for r in res2.tuples]
        assert res1.tuples[0].values == (0, 0)

    def test_measure_ranking(self):
        t = make_table()
        iface = TopKInterface(t, k=3, ranking=MeasureRanking("P", descending=True))
        res = iface.query(ConjunctiveQuery())
        prices = [r.measures["P"] for r in res.tuples]
        assert prices == sorted(prices, reverse=True)

    def test_static_score_ranking_is_stable(self):
        t = make_table()
        iface = TopKInterface(t, k=4)
        a = [r.values for r in iface.query(ConjunctiveQuery()).tuples]
        b = [r.values for r in iface.query(ConjunctiveQuery()).tuples]
        assert a == b

    def test_ranking_does_not_affect_valid_results(self):
        t = make_table()
        for ranking in (RowIdRanking(), MeasureRanking("P")):
            iface = TopKInterface(t, k=10, ranking=ranking)
            res = iface.query(ConjunctiveQuery())
            assert res.valid and res.num_returned == 10


class TestCountOnlyFastPath:
    def test_charges_like_a_full_query(self):
        iface = TopKInterface(make_table(), k=3)
        iface.query(ConjunctiveQuery(), count_only=True)
        iface.query(ConjunctiveQuery())
        assert iface.counter.issued == 2

    def test_classification_without_materialisation(self):
        iface = TopKInterface(make_table(), k=3)
        res = iface.query(ConjunctiveQuery(), count_only=True)
        assert res.overflow
        assert res.num_returned == 3
        assert not res.is_materialized

    def test_lazy_page_matches_eager_page(self):
        t = make_table()
        iface = TopKInterface(t, k=4)
        lazy = iface.query(ConjunctiveQuery(), count_only=True)
        eager = iface.query(ConjunctiveQuery())
        assert [r.values for r in lazy.tuples] == [r.values for r in eager.tuples]
        assert lazy.is_materialized

    def test_underflow_is_always_materialised(self):
        t = make_table(m=9)  # the (1, 4) combination is absent
        iface = TopKInterface(t, k=4)
        res = iface.query(
            ConjunctiveQuery().extended(0, 1).extended(1, 4), count_only=True
        )
        assert res.underflow
        assert res.is_materialized
        assert res.tuples == ()

    def test_eager_default_still_materialises(self):
        iface = TopKInterface(make_table(), k=3)
        res = iface.query(ConjunctiveQuery())
        assert res.is_materialized


def _pages(table, k, ranking=None):
    """A form over *table* and queries for it: the root and prefixes of
    live rows at every depth, so both valid and overflow pages come up."""
    iface = TopKInterface(table, k, ranking=ranking)
    rng = np.random.default_rng(0)
    queries = [ConjunctiveQuery()]
    live = np.flatnonzero(table.alive_mask)
    for row_id in rng.choice(live, size=30, replace=False):
        values = table.row_values(int(row_id))
        depth = int(rng.integers(1, len(values) + 1))
        query = ConjunctiveQuery()
        for attr in range(depth):
            query = query.extended(attr, values[attr])
        queries.append(query)
    return iface, queries


class TestSumMeasureFromColumn:
    @pytest.mark.parametrize(
        "ranking", [None, MeasureRanking("PRICE", descending=True)]
    )
    def test_lazy_sum_equals_materialised_sum_bit_for_bit(self, ranking):
        table = yahoo_auto(m=2_000, seed=5)
        # Tombstones and appended rows: shown ids are physical ids.
        ChurnGenerator(table, rate=0.2, seed=6).run(2)
        iface, queries = _pages(table, 20, ranking)
        outcomes = set()
        for query in queries:
            for name in table.schema.measure_names:
                lazy = iface.query(query, count_only=True)
                total = lazy.sum_measure(name)
                assert not lazy.is_materialized
                eager = iface.query(query)
                expected = sum(t.measures[name] for t in eager.tuples)
                assert struct.pack("<d", total) == struct.pack("<d", expected)
                assert eager.sum_measure(name) == expected
                # Reading the rows afterwards still builds the same page.
                assert lazy.tuples == eager.tuples
                outcomes.add(lazy.outcome)
        assert outcomes == {QueryOutcome.VALID, QueryOutcome.OVERFLOW}

    def test_stale_page_raises(self):
        table = yahoo_auto(m=500, seed=5)
        iface = TopKInterface(table, k=10)
        lazy = iface.query(ConjunctiveQuery(), count_only=True)
        table.apply_updates(deletes=[0])
        with pytest.raises(StaleResultError):
            lazy.sum_measure("PRICE")
