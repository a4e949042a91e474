"""Shared-memory table transport: export, attach, staleness, lifecycle.

``export_table`` copies a table's columns into one
``multiprocessing.shared_memory`` block and switches the table's pickle
payload to a few-hundred-byte :class:`SharedTableHandle`;
``attach_shared_table`` rebuilds a read-only, backend-equipped table over
the mapped block.  The contract under test: an attached table answers
every query identically, exports are idempotent per table version and
structurally stale after mutation, the pickle fast path only engages
while an export is live and matching, and the block's lifetime belongs
to the owner process alone.
"""

import pickle

import numpy as np
import pytest

from repro.datasets import yahoo_auto
from repro.hidden_db.query import ConjunctiveQuery
from repro.hidden_db.sharing import (
    _ATTACHED,
    attach_shared_table,
    export_table,
)


@pytest.fixture
def table():
    return yahoo_auto(m=1_500, seed=3)


@pytest.fixture
def export(table):
    export = export_table(table)
    yield export
    export.close()
    _ATTACHED.pop(export.handle.shm_name, None)


def _probe_queries(schema, per_attr=2):
    queries = [ConjunctiveQuery()]
    for attr in range(len(schema)):
        for value in range(min(per_attr, schema[attr].domain_size)):
            queries.append(ConjunctiveQuery().extended(attr, value))
    return queries


class TestExportAttach:
    def test_attached_table_answers_identically(self, table, export):
        attached = attach_shared_table(export.handle)
        assert attached.schema == table.schema
        assert attached.num_tuples == table.num_tuples
        assert attached.version == table.version
        assert type(attached.backend) is type(table.backend)
        for q in _probe_queries(table.schema):
            assert attached.count(q) == table.count(q)

    def test_attached_measures_match(self, table, export):
        attached = attach_shared_table(export.handle)
        for name in ("PRICE",):
            np.testing.assert_array_equal(
                attached.measure_physical(name), table.measure_physical(name)
            )

    def test_attach_is_memoised_per_block(self, table, export):
        assert attach_shared_table(export.handle) is attach_shared_table(
            export.handle
        )

    def test_attached_views_are_read_only(self, table, export):
        attached = attach_shared_table(export.handle)
        with pytest.raises((ValueError, RuntimeError)):
            attached._data[0, 0] = 99

    def test_export_is_idempotent_per_version(self, table, export):
        assert export_table(table) is export
        assert export.matches(table)

    def test_mutation_stales_the_export(self, table, export):
        table.apply_updates(deletes=[0, 1])
        assert not export.matches(table)
        fresh = export_table(table)
        try:
            assert fresh is not export
            assert export.closed  # the stale block was reaped on re-export
            assert fresh.handle.shm_name != export.handle.shm_name
            assert fresh.handle.version == table.version
            attached = attach_shared_table(fresh.handle)
            for q in _probe_queries(table.schema):
                assert attached.count(q) == table.count(q)
        finally:
            fresh.close()
            _ATTACHED.pop(fresh.handle.shm_name, None)

    def test_close_is_idempotent(self, table, export):
        export.close()
        export.close()
        assert export.closed
        assert not export.matches(table)


class TestPickleFastPath:
    def test_live_export_pickles_as_a_handle(self, table, export):
        payload = pickle.dumps(table)
        # The whole table pickles at tens of KB and up; the handle stays
        # a few KB (the schema dominates it).
        assert len(payload) < 8_000
        clone = pickle.loads(payload)
        assert clone is attach_shared_table(export.handle)
        assert clone.count(ConjunctiveQuery()) == table.count(ConjunctiveQuery())

    def test_no_export_pickles_by_value(self, table):
        clone = pickle.loads(pickle.dumps(table))
        assert clone.num_tuples == table.num_tuples
        for q in _probe_queries(table.schema):
            assert clone.count(q) == table.count(q)
        # By-value clones own their arrays: mutating one leaves the other.
        clone.apply_updates(deletes=[0])
        assert clone.num_tuples == table.num_tuples - 1

    def test_closed_export_falls_back_to_by_value(self, table, export):
        export.close()
        payload = pickle.dumps(table)
        assert len(payload) > 10_000
        clone = pickle.loads(payload)
        assert clone.count(ConjunctiveQuery()) == table.count(ConjunctiveQuery())

    def test_stale_export_falls_back_to_by_value(self, table, export):
        table.apply_updates(deletes=[2])
        clone = pickle.loads(pickle.dumps(table))
        assert clone.num_tuples == table.num_tuples
        assert clone.version == table.version


class TestHandleContents:
    def test_handle_names_every_column(self, table, export):
        keys = {key for key, *_ in export.handle.arrays}
        assert "data" in keys and "alive" in keys
        assert {f"measure:{name}" for name in table._measures} <= keys

    def test_offsets_are_aligned(self, export):
        for _, _, _, offset in export.handle.arrays:
            assert offset % 16 == 0

    def test_handle_is_tiny(self, export):
        assert len(pickle.dumps(export.handle)) < 8_000
