"""Backend equivalence tests.

The correctness contract of the backend layer is *id-level agreement*:
every backend returns the same sorted row ids for every conjunctive query.
The scan backend is checked against the brute-force oracle backend
(``oracles.BruteForceBackend``: a full scan of the live rows per query),
and estimator output through either is asserted identical end-to-end at
fixed seed.
"""

import numpy as np
import pytest

from oracles import BruteForceBackend
from repro.core import HDUnbiasedAgg, HDUnbiasedSize
from repro.datasets import yahoo_auto
from repro.hidden_db import (
    Attribute,
    ConjunctiveQuery,
    HiddenDBClient,
    HiddenTable,
    NaiveScanBackend,
    Schema,
    SchemaError,
    TopKInterface,
    make_backend,
)
from repro.utils.rng import spawn_rng

ALL_BACKENDS = {"scan": NaiveScanBackend, "brute_force": BruteForceBackend}


def random_table(rng, max_attrs=5, max_domain=6, max_rows=120):
    """A random schema + table (possibly with duplicate-free random rows)."""
    n = int(rng.integers(1, max_attrs + 1))
    attrs = [
        Attribute(f"A{j}", int(rng.integers(2, max_domain + 1)))
        for j in range(n)
    ]
    schema = Schema(attrs, measure_names=("X",))
    m = int(rng.integers(0, max_rows + 1))
    data = np.column_stack(
        [rng.integers(0, a.domain_size, size=m) for a in attrs]
    ) if m else np.empty((0, n), dtype=np.int64)
    measures = {"X": rng.random(m) * 100}
    return HiddenTable(schema, np.asarray(data, dtype=np.int64), measures)


def random_query(rng, schema, allow_absent_values=True):
    """A random conjunction over 0..n distinct attributes."""
    n = len(schema)
    depth = int(rng.integers(0, n + 1))
    attrs = rng.choice(n, size=depth, replace=False)
    query = ConjunctiveQuery()
    for attr in attrs:
        value = int(rng.integers(0, schema[int(attr)].domain_size))
        query = query.extended(int(attr), value)
    return query


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(SchemaError, match="unknown selection backend"):
            HiddenTable(
                Schema([Attribute("A", 2)]),
                np.zeros((1, 1), dtype=np.int64),
                backend="bitmap",
            )

    def test_make_backend_accepts_class_and_instance(self):
        data = np.zeros((3, 1), dtype=np.int64)
        built = make_backend(NaiveScanBackend, data, {})
        assert isinstance(built, NaiveScanBackend)
        assert make_backend(built, data, {}) is built


class TestEquivalenceProperty:
    """Randomized schemas × randomized queries ⇒ identical selections."""

    @pytest.mark.parametrize("trial", range(20))
    def test_selection_ids_agree(self, trial):
        rng = spawn_rng(1000 + trial)
        table = random_table(rng)
        oracle = table.with_backend(BruteForceBackend)
        for _ in range(25):
            query = random_query(rng, table.schema)
            scan_ids = table.selection_ids(query)
            oracle_ids = oracle.selection_ids(query)
            assert scan_ids.dtype == oracle_ids.dtype == np.int64
            assert np.array_equal(scan_ids, oracle_ids), (
                f"backends disagree on {query!r}"
            )
            assert table.count(query) == oracle.count(query)
            assert table.sum_measure(query, "X") == pytest.approx(
                oracle.sum_measure(query, "X")
            )

    def test_ids_sorted_ascending(self):
        rng = spawn_rng(7)
        table = random_table(rng, max_rows=200)
        oracle = table.with_backend(BruteForceBackend)
        for _ in range(10):
            query = random_query(rng, table.schema)
            for t in (table, oracle):
                ids = t.selection_ids(query)
                assert np.array_equal(ids, np.sort(ids))


class TestEquivalenceAcrossEpochs:
    """scan ≡ brute force ≡ fresh rebuild after every apply_updates epoch."""

    def random_batch(self, rng, table):
        """A random (insert, delete, modify) batch legal for *table*."""
        live = np.flatnonzero(np.asarray(table.alive_mask))
        schema = table.schema
        n = len(schema)
        n_del = int(rng.integers(0, max(1, live.size // 4) + 1))
        deletes = (
            rng.choice(live, size=n_del, replace=False)
            if n_del else np.empty(0, dtype=np.int64)
        )
        survivors = np.setdiff1d(live, deletes)
        n_mod = int(rng.integers(0, max(1, survivors.size // 4) + 1))
        mod_ids = (
            rng.choice(survivors, size=n_mod, replace=False)
            if n_mod else np.empty(0, dtype=np.int64)
        )
        modifications = {}
        for row_id in mod_ids:
            attr = int(rng.integers(0, n))
            modifications[int(row_id)] = {
                attr: int(rng.integers(0, schema[attr].domain_size))
            }
        n_ins = int(rng.integers(0, 6))
        inserts = np.column_stack([
            rng.integers(0, schema[j].domain_size, size=n_ins)
            for j in range(n)
        ]) if n_ins else None
        measures = {"X": rng.random(n_ins) * 10} if n_ins else None
        return inserts, deletes, modifications, measures

    @pytest.mark.parametrize("trial", range(10))
    def test_backends_agree_after_every_epoch(self, trial):
        rng = spawn_rng(9_000 + trial)
        table = random_table(rng, max_rows=80)
        oracle = table.with_backend(BruteForceBackend)
        for _epoch in range(4):
            inserts, deletes, modifications, measures = self.random_batch(
                rng, table
            )
            table.apply_updates(
                inserts=inserts, deletes=deletes,
                modifications=modifications, insert_measures=measures,
            )
            # A from-scratch table over the live rows.
            fresh = HiddenTable(
                table.schema,
                np.asarray(table.data, dtype=np.int64),
                {"X": np.asarray(table.measure("X"))},
            )
            for _ in range(15):
                query = random_query(rng, table.schema)
                scan_count = table.count(query)
                oracle_count = oracle.count(query)
                assert scan_count == oracle_count == fresh.count(query), (
                    f"epoch {table.version}: backends disagree on {query!r}"
                )
                # Ids agree too (the fresh table's ids are over compacted
                # rows, so only scan/brute force are compared id-for-id).
                assert np.array_equal(
                    table.selection_ids(query), oracle.selection_ids(query)
                )
                assert table.sum_measure(query, "X") == pytest.approx(
                    oracle.sum_measure(query, "X")
                )
        # The brute-force sibling was rebound with every epoch.
        assert oracle.version == table.version == 4

    def test_estimator_backend_independent_across_epochs(self):
        """Fixed-seed estimation agrees between backends after churn."""
        results = {}
        for name, backend in ALL_BACKENDS.items():
            table = yahoo_auto(m=800, seed=5).with_backend(backend)
            from repro.datasets import ChurnGenerator

            ChurnGenerator(table, rate=0.15, seed=3).run(2)
            client = HiddenDBClient(TopKInterface(table, 50))
            estimator = HDUnbiasedSize(client, r=2, dub=16, seed=99)
            results[name] = estimator.run(rounds=5)
        assert results["scan"].estimates == results["brute_force"].estimates
        assert results["scan"].total_cost == results["brute_force"].total_cost


class TestInterfaceOverBackends:
    """The simulated form is indistinguishable across backends."""

    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_identical_pages(self, k):
        rng = spawn_rng(42)
        table = random_table(rng, max_rows=150)
        oracle = table.with_backend(BruteForceBackend)
        scan_iface = TopKInterface(table, k)
        oracle_iface = TopKInterface(oracle, k)
        for _ in range(20):
            query = random_query(rng, table.schema)
            a = scan_iface.query(query)
            b = oracle_iface.query(query)
            assert a.outcome is b.outcome
            assert a.num_returned == b.num_returned
            assert [t.values for t in a.tuples] == [t.values for t in b.tuples]

    def test_count_only_page_lazy_then_identical(self):
        table = yahoo_auto(m=500, seed=3)
        iface = TopKInterface(table, k=10)
        query = ConjunctiveQuery().extended(0, 1)
        lazy = iface.query(query, count_only=True)
        eager = iface.query(query)
        assert lazy.outcome is eager.outcome
        if not lazy.underflow:
            assert not lazy.is_materialized
        # Materialisation is deterministic: same page either way.
        assert [t.values for t in lazy.tuples] == [t.values for t in eager.tuples]
        assert lazy.is_materialized

    def test_estimator_results_backend_independent(self):
        table = yahoo_auto(m=1_000, seed=5)
        results = {}
        for name, backend in ALL_BACKENDS.items():
            client = HiddenDBClient(TopKInterface(table.with_backend(backend), 50))
            estimator = HDUnbiasedSize(client, r=2, dub=16, seed=99)
            results[name] = estimator.run(rounds=6)
        scan, oracle = results["scan"], results["brute_force"]
        assert scan.estimates == oracle.estimates
        assert scan.total_cost == oracle.total_cost
        assert scan.trajectory.xs == oracle.trajectory.xs
        assert scan.trajectory.values == oracle.trajectory.values

    def test_agg_estimator_backend_independent(self):
        table = yahoo_auto(m=800, seed=8)
        results = {}
        for name, backend in ALL_BACKENDS.items():
            client = HiddenDBClient(TopKInterface(table.with_backend(backend), 50))
            estimator = HDUnbiasedAgg(
                client, aggregate="sum", measure="PRICE", r=2, dub=16, seed=21
            )
            results[name] = estimator.run(rounds=4)
        assert results["scan"].estimates == results["brute_force"].estimates
        assert results["scan"].total_cost == results["brute_force"].total_cost
