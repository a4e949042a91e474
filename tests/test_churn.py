"""Churn generator: seeded, duplicate-free, distribution-preserving."""

import numpy as np
import pytest

from repro.datasets import ChurnGenerator, apply_churn, bool_iid, yahoo_auto
from repro.hidden_db import ConjunctiveQuery, HiddenTable


def assert_no_duplicates(table):
    data = np.asarray(table.data)
    assert np.unique(data, axis=0).shape[0] == data.shape[0]


class TestChurnGenerator:
    def test_epoch_touches_roughly_rate_fraction(self):
        table = bool_iid(m=2_000, n=16, seed=0)
        generator = ChurnGenerator(table, rate=0.09, seed=1)
        delta = generator.epoch()
        # rate/3 expected per component; binomial keeps it near 60 each.
        assert 20 <= delta.num_inserted <= 120
        assert 20 <= delta.num_deleted <= 120
        assert 20 <= delta.num_modified <= 120
        assert table.version == 1

    def test_same_seed_replays_identical_evolution(self):
        sizes = []
        sums = []
        for _ in range(2):
            table = bool_iid(m=500, n=12, seed=3)
            ChurnGenerator(table, rate=0.1, seed=42).run(4)
            sizes.append(table.num_tuples)
            sums.append(table.sum_measure(ConjunctiveQuery(), "VALUE"))
        assert sizes[0] == sizes[1]
        assert sums[0] == pytest.approx(sums[1])

    def test_different_seeds_diverge(self):
        tables = []
        for seed in (1, 2):
            table = bool_iid(m=500, n=12, seed=3)
            ChurnGenerator(table, rate=0.1, seed=seed).run(3)
            tables.append(np.asarray(table.data))
        assert not np.array_equal(tables[0], tables[1])

    def test_population_stays_duplicate_free(self):
        table = bool_iid(m=400, n=10, seed=5)
        generator = ChurnGenerator(table, rate=0.15, seed=9)
        for _ in range(5):
            generator.epoch()
            assert_no_duplicates(table)

    def test_component_rates_can_differ(self):
        table = bool_iid(m=1_000, n=14, seed=2)
        generator = ChurnGenerator(
            table, insert_rate=0.1, delete_rate=0.0, modify_rate=0.0, seed=4
        )
        before = table.num_tuples
        delta = generator.epoch()
        assert delta.num_deleted == 0 and delta.num_modified == 0
        assert table.num_tuples == before + delta.num_inserted > before

    def test_negative_rate_rejected(self):
        table = bool_iid(m=100, n=8, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            ChurnGenerator(table, insert_rate=-0.1)

    def test_inserted_measures_follow_live_distribution(self):
        table = yahoo_auto(m=800, seed=6)
        live_mean = float(np.mean(table.measure("PRICE")))
        generator = ChurnGenerator(
            table, insert_rate=0.2, delete_rate=0.0, modify_rate=0.0, seed=7
        )
        delta = generator.epoch()
        inserted_prices = [
            table.row_measures(int(i))["PRICE"] for i in delta.inserted_ids
        ]
        assert delta.num_inserted > 50
        # Donor-sampled prices stay in the live price regime.
        assert 0.3 * live_mean < np.mean(inserted_prices) < 3.0 * live_mean

    def test_modifications_change_exactly_one_attribute(self):
        table = bool_iid(m=300, n=10, seed=8)
        before = {i: table.row_values(i) for i in range(table.num_physical_rows)}
        generator = ChurnGenerator(
            table, insert_rate=0.0, delete_rate=0.0, modify_rate=0.2, seed=3
        )
        delta = generator.epoch()
        assert delta.num_modified > 20
        for row_id in delta.modified_ids:
            old = before[int(row_id)]
            new = table.row_values(int(row_id))
            assert sum(a != b for a, b in zip(old, new)) == 1

    def test_apply_churn_convenience(self):
        table = bool_iid(m=200, n=10, seed=1)
        deltas = apply_churn(table, epochs=3, rate=0.1, seed=2)
        assert len(deltas) == 3
        assert table.version == 3

    def test_churn_propagates_to_backend_siblings(self):
        from oracles import BruteForceBackend

        table = bool_iid(m=300, n=10, seed=4)
        sibling = table.with_backend(BruteForceBackend)
        ChurnGenerator(table, rate=0.2, seed=5).run(3)
        assert sibling.version == 3
        for query in (
            ConjunctiveQuery(),
            ConjunctiveQuery().extended(0, 1).extended(3, 0),
            ConjunctiveQuery().extended(2, 0).extended(5, 1).extended(7, 1),
        ):
            assert table.count(query) == sibling.count(query)
