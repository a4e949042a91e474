"""Each output check of the benchmark passes on a right input and fails
on a wrong one (run with ``PYTHONPATH=src python -m pytest perfbench``)."""

import numpy as np
import pytest

from perfbench import checks


def running_means(values):
    return [[float(i), float(np.mean(values[:i]))] for i in range(1, len(values) + 1)]


def test_per_round_values_inverts_the_running_mean():
    values = [3.0, 9.0, 6.0, 12.0]
    assert checks.per_round_values(running_means(values)) == pytest.approx(values)


def test_mean_within_catches_a_shifted_truth():
    rng = np.random.default_rng(0)
    values = rng.normal(100.0, 10.0, size=400)
    assert checks.mean_within(values, 100.0)[0]
    assert not checks.mean_within(values, 105.0)[0]
    assert not checks.mean_within([1.0], 1.0)[0]


def test_same_outcome_compares_every_field():
    report = {"estimate": 1.5, "ci95": [1.0, 2.0],
              "trajectory": [[3.0, 1.5]], "total_queries": 3}
    assert checks.same_outcome(report, dict(report))[0]
    for key, wrong in (("estimate", 1.5000001), ("ci95", [1.0, 2.1]),
                       ("trajectory", [[4.0, 1.5]]), ("total_queries", 4)):
        assert not checks.same_outcome(report, {**report, key: wrong})[0], key


def test_rows_distinct_catches_duplicates_and_a_wrong_count():
    rows = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.int8)
    assert checks.rows_distinct(rows, 3)[0]
    assert not checks.rows_distinct(np.vstack([rows, rows[:1]]), 4)[0]
    assert not checks.rows_distinct(rows, 4)[0]


def test_relative_errors_unbiased_catches_a_bias():
    assert checks.relative_errors_unbiased([-0.2, 0.1, 0.3, -0.1, 0.0])[0]
    assert not checks.relative_errors_unbiased([0.50, 0.52, 0.49, 0.51])[0]


def test_byte_identical_catches_one_changed_digit():
    report = {"estimate": 20802.9, "trajectory": [[47.0, 18068.6]]}
    reference = checks.canonical(report)
    assert checks.byte_identical(dict(report), reference)[0]
    assert not checks.byte_identical({**report, "estimate": 20802.8}, reference)[0]


def test_snapshots_numbered_catches_gaps_and_a_short_stream():
    assert checks.snapshots_numbered([1, 2, 3], 3)[0]
    assert not checks.snapshots_numbered([1, 3], 2)[0]
    assert not checks.snapshots_numbered([1, 2], 3)[0]


def test_counters_match_catches_a_miscount():
    before = {"jobs_done": 5, "cache_hits": 2, "cache_misses": 3}
    after = {"jobs_done": 9, "cache_hits": 4, "cache_misses": 5}
    expected = {"jobs_done": 4, "cache_hits": 2, "cache_misses": 2}
    assert checks.counters_match(before, after, expected)[0]
    assert not checks.counters_match(before, after, {**expected, "cache_hits": 3})[0]


def test_evictions_match_catches_one_wrong_update():
    assert checks.evictions_match([(1, 1), (2, 2)])[0]
    assert not checks.evictions_match([(1, 1), (1, 2)])[0]


def test_journal_complete_catches_missing_corrupt_and_orphaned():
    assert checks.journal_complete([1, 2, 3], [3, 2, 1], 0, 0)[0]
    assert not checks.journal_complete([1, 2], [1, 2, 3], 0, 0)[0]
    assert not checks.journal_complete([1, 2, 3], [1, 2, 3], 1, 0)[0]
    assert not checks.journal_complete([1, 2, 3], [1, 2, 3], 0, 1)[0]


def test_flags_match_catches_one_wrong_flag():
    assert checks.flags_match([True, True], True)[0]
    assert not checks.flags_match([True, False], True)[0]
    assert not checks.flags_match([None], False)[0]
