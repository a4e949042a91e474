"""Property-based tests (hypothesis) for core invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import uniform_walk_probabilities
from repro.core.drilldown import Walker
from repro.core.weights import UniformWeights, WeightStore
from repro.hidden_db import (
    Attribute,
    ConjunctiveQuery,
    HiddenDBClient,
    HiddenTable,
    Schema,
    TopKInterface,
)
from repro.hidden_db.schema import key_shifts, row_keys
from repro.utils.stats import RunningStats, StreamingMeanSeries

# -- strategies ------------------------------------------------------------


@st.composite
def small_tables(draw):
    """Random duplicate-free categorical tables (2-4 attrs, fanouts 2-4)."""
    n_attrs = draw(st.integers(2, 4))
    fanouts = [draw(st.integers(2, 4)) for _ in range(n_attrs)]
    domain = 1
    for f in fanouts:
        domain *= f
    m = draw(st.integers(1, min(domain, 30)))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    # Sample m distinct row indices of the full domain, decode mixed-radix.
    choices = rng.choice(domain, size=m, replace=False)
    rows = []
    for code in choices:
        row = []
        rest = int(code)
        for f in fanouts:
            row.append(rest % f)
            rest //= f
        rows.append(row)
    schema = Schema([Attribute(f"A{i}", f) for i, f in enumerate(fanouts)])
    return HiddenTable.from_rows(schema, rows)


# -- interface invariants ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(small_tables(), st.integers(1, 6), st.integers(0, 2**16))
def test_interface_outcome_invariants(table, k, seed):
    """|returned| = min(k, |Sel|) and flags match exact counts."""
    rng = np.random.default_rng(seed)
    iface = TopKInterface(table, k)
    for _ in range(5):
        query = ConjunctiveQuery()
        for attr in range(table.num_attributes):
            if rng.random() < 0.5:
                query = query.extended(
                    attr, int(rng.integers(table.schema[attr].domain_size))
                )
        result = iface.query(query)
        exact = table.count(query)
        assert result.num_returned == min(k, exact)
        assert result.underflow == (exact == 0)
        assert result.overflow == (exact > k)
        assert result.valid == (1 <= exact <= k)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(small_tables(), st.integers(1, 4), st.integers(0, 2**16))
def test_walk_terminates_with_valid_probability(table, k, seed):
    """Every drill down ends at a top-valid node with p in (0, 1]."""
    if table.count(ConjunctiveQuery()) <= k:
        return  # root valid: no walk happens
    client = HiddenDBClient(TopKInterface(table, k))
    walker = Walker(client, UniformWeights(), np.random.default_rng(seed))
    order = list(range(table.num_attributes))
    out = walker.drill_down(ConjunctiveQuery(), order)
    assert 0.0 < out.probability <= 1.0
    assert out.result is not None and out.result.valid
    # The terminal node's parent overflows (top-validity).
    parent = out.query.parent()
    assert table.count(parent) > k


@settings(max_examples=25, deadline=None)
@given(small_tables(), st.integers(1, 4))
def test_exact_probabilities_sum_to_one(table, k):
    """The uniform-walk reach probabilities form a distribution over
    top-valid nodes, and counts partition the table."""
    order = list(range(table.num_attributes))
    probs = uniform_walk_probabilities(table, k, order)
    m = table.count(ConjunctiveQuery())
    if m == 0:
        assert probs == {}
        return
    assert sum(p for p, _ in probs.values()) == pytest.approx(1.0)
    assert sum(c for _, c in probs.values()) == m


@settings(max_examples=20, deadline=None)
@given(small_tables(), st.integers(1, 3), st.integers(0, 2**16))
def test_estimator_expectation_matches_exact_distribution(table, k, seed):
    """E[estimate] computed from the exact walk distribution equals m —
    Theorem 1 holds for arbitrary random tables."""
    order = list(range(table.num_attributes))
    probs = uniform_walk_probabilities(table, k, order)
    m = table.count(ConjunctiveQuery())
    if not probs:
        assert m == 0
        return
    expectation = sum(p * (c / p) for p, c in probs.values())
    assert expectation == pytest.approx(m)


# -- weight store invariants -------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 8),
    st.lists(st.tuples(st.integers(0, 7), st.floats(0.1, 1000)), max_size=20),
    st.sets(st.integers(0, 7), max_size=7),
)
def test_weight_distribution_is_valid(fanout, masses, empties):
    """Branch distributions always sum to 1, are non-negative, vanish on
    known-empty branches and stay positive elsewhere."""
    store = WeightStore()
    key = frozenset()
    empties = {e for e in empties if e < fanout}
    if len(empties) == fanout:
        empties.pop()
    for value in empties:
        store.mark_empty(key, 0, fanout, value)
    for value, mass in masses:
        if value < fanout and value not in empties:
            store.add_mass(key, 0, fanout, value, mass)
    dist = store.branch_distribution(key, 0, fanout)
    assert dist.shape == (fanout,)
    assert dist.sum() == pytest.approx(1.0)
    assert (dist >= 0).all()
    for value in range(fanout):
        if value in empties:
            assert dist[value] == 0.0
        else:
            assert dist[value] > 0.0


# -- statistics invariants ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
def test_running_stats_matches_numpy(xs):
    rs = RunningStats()
    rs.extend(xs)
    assert rs.mean == pytest.approx(float(np.mean(xs)), rel=1e-6, abs=1e-6)
    assert rs.variance == pytest.approx(
        float(np.var(xs, ddof=1)), rel=1e-6, abs=1e-5
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.floats(-100, 100)),
                min_size=1, max_size=50))
def test_series_step_interpolation(points):
    points = sorted(points, key=lambda t: t[0])
    series = StreamingMeanSeries()
    for x, v in points:
        series.append(x, v)
    # At any x >= last point, the last value is returned.
    assert series.value_at(points[-1][0] + 1) == pytest.approx(points[-1][1])
    # Before the first point: nan.
    assert math.isnan(series.value_at(points[0][0] - 1))


# -- query canonicalisation ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=6,
                unique_by=lambda t: t[0]))
def test_query_equality_is_order_independent(predicates):
    import random

    shuffled = predicates[:]
    random.Random(0).shuffle(shuffled)
    a = ConjunctiveQuery(predicates)
    b = ConjunctiveQuery(shuffled)
    assert a == b
    assert hash(a) == hash(b)
    assert a.num_predicates == len(predicates)


# -- row keys ------------------------------------------------------------------


@st.composite
def keyed_rows(draw, total_bits, wide_fanout=False):
    """Rows over random fanouts whose key widths sum to *total_bits*.

    Each column takes values from a few drawn candidates (always 0 and
    ``fanout - 1`` among them), so rows share prefixes and repeat, and every
    field reaches its top bit.  With *wide_fanout* one column has a fanout
    above 128.
    """
    widths = []
    if wide_fanout:
        widths.append(draw(st.integers(8, 10)))
    while sum(widths) < total_bits:
        widths.append(draw(st.integers(1, min(12, total_bits - sum(widths)))))
    widths = draw(st.permutations(widths))
    fanouts = [
        2 if w == 1 else draw(st.integers(2 ** (w - 1) + 1, 2 ** w))
        for w in widths
    ]
    if wide_fanout:
        assert max(fanouts) > 128
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 120))
    columns = []
    for f in fanouts:
        candidates = np.concatenate([[0, f - 1], rng.integers(0, f, size=2)])
        columns.append(rng.choice(candidates, size=m))
    dtype = np.int8 if max(fanouts) <= 128 else np.int16
    data = np.column_stack(columns).astype(draw(st.sampled_from([dtype, np.int64])))
    return fanouts, data


@pytest.mark.parametrize(
    "total_bits, wide_fanout", [(63, False), (64, False), (65, False), (65, True)]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_keys_sort_and_dedup_like_rows(total_bits, wide_fanout, data):
    fanouts, rows = data.draw(keyed_rows(total_bits, wide_fanout))
    keys = row_keys(rows, fanouts)
    assert (keys.dtype == np.uint64) == (total_bits <= 64)
    shifts = key_shifts(fanouts)
    assert keys.tolist() == [
        sum(int(v) << shift for v, shift in zip(row, shifts)) for row in rows
    ]
    # Sorting keys sorts the rows lexicographically (first column first).
    np.testing.assert_array_equal(
        np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1])
    )
    # The same first occurrences, in the same order, as the 2-D unique.
    _, by_key = np.unique(keys, return_index=True)
    _, by_row = np.unique(rows, axis=0, return_index=True)
    np.testing.assert_array_equal(by_key, by_row)
