"""Level-synchronous cohort execution: bit-identity and backend savings.

The cohort engine (:mod:`repro.core.cohort`) interleaves a wave of
rounds' probe plans and answers each level's grouped probes with one
bulk backend pass, memoising identical ``(query, version)`` pages within
the wave.  Its contract is *exact* equivalence with the per-round loop
(``oracles.per_round_loop``: one fresh estimator and one ``run_once``
per round seed): same estimates, same per-round charge ledgers, same
cache statistics, at every worker count and under both executors.  These
tests pin that contract, the backend-invocation savings the memo exists
for, and the serial fallbacks (wrapped interfaces, hard query limits).
"""

import pytest

from oracles import per_round_loop
from repro.core import HDUnbiasedAgg, HDUnbiasedSize
from repro.core.engine import merge_rounds
from repro.datasets import yahoo_auto
from repro.hidden_db import (
    FlakyInterface,
    HiddenDBClient,
    QueryCounter,
    TopKInterface,
)

#: (workers, executor) cells; workers=1 on a thread pool is the
#: sequential schedule (the engine runs the lone worker inline).
MATRIX = [
    (1, "thread"),
    (2, "thread"),
    (8, "thread"),
    (2, "process"),
    (8, "process"),
]


@pytest.fixture(scope="module")
def table():
    return yahoo_auto(m=1_000, seed=5)


def make_estimator(table, seed=7):
    client = HiddenDBClient(TopKInterface(table, 50))
    return HDUnbiasedSize(client, r=2, dub=16, seed=seed)


def per_round_reference(estimator, rounds, seed=99):
    """What ``parallel_session(seed=seed).run(rounds)`` must reproduce.

    Returns the merged result and the per-round client reports.
    """
    with estimator.parallel_session(1, seed=seed) as session:
        seeds = session.round_seeds(rounds)
    outcomes = per_round_loop(session.factory, seeds)
    result = merge_rounds(
        [outcome[0] for outcome in outcomes],
        estimator._statistic,
        estimator._dims,
        stop_reason="rounds",
    )
    return result, [outcome[1] for outcome in outcomes]


def _facts(result):
    return (
        result.estimates,
        result.total_cost,
        result.mean,
        result.ci95,
        [r.cost for r in result.raw_rounds],
        [r.walks for r in result.raw_rounds],
    )


class TestDeterminismMatrix:
    def test_every_cell_matches_the_serial_reference(self, table):
        """{workers 1/2/8} x {thread/process} agree with the loop.

        The reference is the per-round loop.  Every cell must reproduce
        its estimates AND its per-round cost/walk ledgers bit-for-bit,
        and the merged client reports.
        """
        reference, reports = per_round_reference(make_estimator(table), 10)
        expected_stats = {}
        for report in reports:
            for key, value in report.items():
                expected_stats[key] = expected_stats.get(key, 0.0) + value
        for workers, executor in MATRIX:
            session = make_estimator(table).parallel_session(
                workers, seed=99, executor=executor
            )
            try:
                facts = _facts(session.run(rounds=10))
            finally:
                session.close()
            assert facts == _facts(reference), (workers, executor)
            for key in ("cost", "cache_hits", "cache_misses"):
                assert session.client_stats[key] == expected_stats[key]

    def test_agg_estimator_cohort_invariant(self, table):
        client = HiddenDBClient(TopKInterface(table, 50))
        estimator = HDUnbiasedAgg(
            client, aggregate="sum", measure="PRICE", r=2, dub=16, seed=31,
        )
        reference, _ = per_round_reference(estimator, 8)
        session = estimator.parallel_session(4, seed=99)
        try:
            result = session.run(rounds=8)
        finally:
            session.close()
        assert result.estimates == reference.estimates
        assert result.total_cost == reference.total_cost


class _BackendSpy:
    """Counts backend dispatches without touching the answers."""

    def __init__(self, backend):
        self.calls = 0
        for name in (
            "selection_count",
            "selection_counts_many",
            "selection_ids",
        ):
            original = getattr(backend, name)

            def counted(*args, _original=original, **kwargs):
                self.calls += 1
                return _original(*args, **kwargs)

            setattr(backend, name, counted)


class TestProbeMemo:
    def test_memo_cuts_backend_dispatches_not_charges(self):
        """Charges are untouched; backend invocations drop.

        Every round's counter must be charged exactly as the per-round
        loop charges it (the ledger equality), while the cohort's grouped
        answering + memo performs strictly fewer backend dispatches than
        the loop's round-at-a-time execution.
        """
        dispatches = {}
        ledgers = {}
        for cohort in (False, True):
            table = yahoo_auto(m=1_000, seed=5)  # fresh caches per arm
            spy = _BackendSpy(table.backend)
            estimator = make_estimator(table)
            if cohort:
                session = estimator.parallel_session(1, seed=99)
                try:
                    result = session.run(rounds=12)
                finally:
                    session.close()
            else:
                result, _ = per_round_reference(estimator, 12)
            dispatches[cohort] = spy.calls
            ledgers[cohort] = [r.cost for r in result.raw_rounds]
        assert ledgers[True] == ledgers[False]
        assert dispatches[True] < dispatches[False]


class TestSerialFallback:
    def test_flaky_interface_falls_back_and_matches(self, table):
        """A wrapped interface cannot batch; the cohort must not try.

        ``FlakyInterface`` has no ``classify_many`` — its seeded failure
        stream must see submissions one at a time — so cohort rounds run
        through plain ``run_once`` and stay bit-identical to the loop.
        """
        flaky = FlakyInterface(
            TopKInterface(table, 50), failure_rate=0.2, seed=17
        )
        client = HiddenDBClient(flaky, retries=50)
        estimator = HDUnbiasedSize(client, r=2, dub=16, seed=7)
        reference, _ = per_round_reference(estimator, 6)
        session = estimator.parallel_session(1, seed=99)
        try:
            assert _facts(session.run(rounds=6)) == _facts(reference)
        finally:
            session.close()

    def test_hard_limit_falls_back_and_matches(self, table):
        """A hard query limit forces the literal loop's semantics.

        A mid-batch ``QueryLimitExceeded`` must leave exactly the serial
        loop's counter/cache state behind, so limit-carrying rounds run
        through ``run_once`` inside the cohort.  With a generous limit the
        fallback is observable only through equivalence: outcome values,
        costs and client reports all match the serial loop exactly.
        """
        from repro.core.cohort import run_cohort

        def factory(seed):
            client = HiddenDBClient(
                TopKInterface(table, 50, counter=QueryCounter(limit=10_000))
            )
            return HDUnbiasedSize(client, r=2, dub=16, seed=seed)

        seeds = [11, 12, 13, 14]
        cohort_out = run_cohort(factory, seeds)
        for seed, (outcome, report) in zip(seeds, cohort_out):
            estimator = factory(seed)
            serial = estimator.run_once()
            assert outcome.values.tolist() == serial.values.tolist()
            assert outcome.cost == serial.cost
            assert outcome.walks == serial.walks
            assert report == estimator.client.report()
