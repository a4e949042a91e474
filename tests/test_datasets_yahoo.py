"""Unit tests for the synthetic Yahoo! Auto generator."""

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    CATEGORICAL_SPECS,
    MAKES,
    OPTION_NAMES,
    model_label,
    yahoo_auto,
    yahoo_auto_schema,
)


@pytest.fixture(scope="module")
def table():
    return yahoo_auto(m=4_000, seed=13)


class TestSchema:
    def test_38_searchable_attributes(self):
        schema = yahoo_auto_schema()
        assert len(schema) == 38
        booleans = [a for a in schema if a.is_boolean]
        assert len(booleans) == 32

    def test_categorical_domains_between_5_and_16(self):
        schema = yahoo_auto_schema()
        for name, size in CATEGORICAL_SPECS:
            assert 5 <= schema.attribute(name).domain_size <= 16
            assert schema.attribute(name).domain_size == size

    def test_measures(self):
        schema = yahoo_auto_schema()
        assert set(schema.measure_names) == {"PRICE", "MILEAGE", "YEAR"}

    def test_option_names_all_boolean(self):
        schema = yahoo_auto_schema()
        for name in OPTION_NAMES:
            assert schema.attribute(name).is_boolean

    def test_make_labels(self):
        schema = yahoo_auto_schema()
        assert schema.attribute("MAKE").label_of(0) == "Toyota"
        assert schema.attribute("MAKE").value_of("Ford") == 1

    def test_model_labels_resolve_per_make(self):
        assert model_label(MAKES.index("Toyota"), 0) == "Corolla"
        assert model_label(MAKES.index("Ford"), 0) == "F-150"
        assert model_label(MAKES.index("Ford"), 1) == "Escape"
        assert model_label(MAKES.index("Kia"), 0) == "Model-1"


class TestGeneration:
    def test_size_and_uniqueness(self, table):
        assert table.num_tuples == 4_000
        assert np.unique(table.data, axis=0).shape[0] == 4_000

    def test_deterministic(self):
        a = yahoo_auto(m=500, seed=3)
        b = yahoo_auto(m=500, seed=3)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.measure("PRICE"), b.measure("PRICE"))

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            # The paper-scale table every figure and benchmark runs on.
            ({}, "46c9cef5e26eda9a243bec396560473d0ebed35b72929188dbb2d69b5112ee47"),
            (
                {"m": 20_000, "seed": 12345},
                "0f193453134a88e48c85d2f2dce5504bb6f55ce681aa2902a34b677049eb37ec",
            ),
        ],
    )
    def test_table_bytes_are_pinned(self, kwargs, digest):
        table = yahoo_auto(**kwargs)
        h = hashlib.sha256(np.ascontiguousarray(table.data).tobytes())
        for name in ("MILEAGE", "PRICE", "YEAR"):
            h.update(np.ascontiguousarray(table.measure(name)).tobytes())
        assert h.hexdigest() == digest

    def test_make_distribution_is_skewed(self, table):
        make = table.data[:, 0]
        counts = np.bincount(make, minlength=16)
        assert counts.max() > 3 * max(counts.min(), 1)

    def test_model_depends_on_make(self, table):
        # The top model slot of two different makes should differ: the
        # conditional model distributions are rotated per make.
        make = table.data[:, 0]
        model = table.data[:, 1]
        top_slots = []
        for mk in range(2):
            slots = model[make == mk]
            if slots.size:
                top_slots.append(int(np.bincount(slots, minlength=16).argmax()))
        assert len(set(top_slots)) > 1

    def test_price_positive_and_luxury_correlated(self, table):
        price = table.measure("PRICE")
        assert (price > 0).all()
        make = table.data[:, 0]
        bmw, kia = MAKES.index("BMW"), MAKES.index("Kia")
        if (make == bmw).sum() > 10 and (make == kia).sum() > 10:
            assert price[make == bmw].mean() > price[make == kia].mean()

    def test_year_range(self, table):
        year = table.measure("YEAR")
        assert year.min() >= 1998 and year.max() <= 2007

    def test_mileage_positive(self, table):
        assert (table.measure("MILEAGE") > 0).all()

    def test_common_options_more_frequent_than_rare(self, table):
        schema = table.schema
        ac = table.data[:, schema.index_of("AC")].mean()
        nav = table.data[:, schema.index_of("NAV_SYSTEM")].mean()
        assert ac > nav

    def test_domain_vastly_exceeds_size(self, table):
        assert table.schema.domain_size() > 10**9 * table.num_tuples
