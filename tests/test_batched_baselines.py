"""Probe batching in the baselines: batched == per-query, bit for bit.

The 2007 sampler submits each walk's pre-drawn path as one
``query_many`` batch (only the prefix up to the first non-overflow
answer is charged, per the *until* contract); the crawler answers each
sibling window in one bulk pass.  The reference is the same code over a
form without ``classify_many`` (``oracles.per_query_interface``), where
``query_many`` takes its literal per-query loop: samples / discovered
tuples, charges, budget cut-offs and diagnostic counters must be
identical.
"""

import pytest

from oracles import BruteForceBackend, per_query_interface
from repro.baselines import HiddenDBSampler
from repro.datasets import boolean_table, yahoo_auto
from repro.hidden_db import (
    ConjunctiveQuery,
    HiddenDBClient,
    NaiveScanBackend,
    QueryCounter,
    TopKInterface,
    crawl,
)

BACKENDS = {"scan": NaiveScanBackend, "brute_force": BruteForceBackend}


@pytest.fixture(scope="module", params=sorted(BACKENDS))
def table(request):
    return yahoo_auto(m=2_000, seed=13).with_backend(BACKENDS[request.param])


def _interface(table, k, literal, **kwargs):
    """The batching form, or the per-query reference form."""
    if literal:
        return per_query_interface(table, k, **kwargs)
    return TopKInterface(table, k, **kwargs)


def _sample_facts(sample):
    return (
        sample.values,
        sample.depth,
        sample.inverse_probability,
        sample.cost_so_far,
    )


class TestSamplerBatching:
    def _collect(self, table, literal, limit=None, **kwargs):
        client = HiddenDBClient(
            _interface(table, 4, literal, counter=QueryCounter(limit=limit)),
            cache=False,
        )
        sampler = HiddenDBSampler(client, seed=3, **kwargs)
        samples = sampler.collect(count=15)
        return samples, sampler

    def test_samples_and_counters_bit_identical(self):
        table = boolean_table(120, [0.5] * 9, seed=21)
        batched, s_on = self._collect(table, False)
        looped, s_off = self._collect(table, True)
        assert [_sample_facts(s) for s in batched] == [
            _sample_facts(s) for s in looped
        ]
        assert (s_on.walks, s_on.restarts, s_on.rejections) == (
            s_off.walks, s_off.restarts, s_off.rejections
        )
        assert s_on.client.cost == s_off.client.cost

    def test_bit_identical_on_both_backends(self, table):
        batched, s_on = self._collect(table, False)
        looped, s_off = self._collect(table, True)
        assert [_sample_facts(s) for s in batched] == [
            _sample_facts(s) for s in looped
        ]
        assert s_on.client.cost == s_off.client.cost

    def test_hard_limit_death_is_identical(self):
        """Mid-walk budget death: both forms stop at the same cost.

        A hard counter limit routes ``query_many`` through its literal
        loop fallback, so the batched sampler dies on exactly the query
        the loop dies on.
        """
        table = boolean_table(120, [0.5] * 9, seed=21)
        outcomes = []
        for literal in (False, True):
            client = HiddenDBClient(
                _interface(table, 4, literal, counter=QueryCounter(limit=40)),
                cache=False,
            )
            sampler = HiddenDBSampler(client, seed=9)
            samples = sampler.collect(count=10_000)
            outcomes.append(
                ([_sample_facts(s) for s in samples], client.cost)
            )
        assert outcomes[0] == outcomes[1]


def _crawl_facts(result):
    return (sorted(result.tuples), result.query_cost, result.complete)


class TestCrawlerBatching:
    def test_full_crawl_bit_identical(self, table):
        facts = []
        for literal in (False, True):
            client = HiddenDBClient(_interface(table, 10, literal))
            facts.append(_crawl_facts(crawl(client)))
            assert client.cost == facts[-1][1]
        assert facts[0] == facts[1]

    def test_subtree_crawl_bit_identical(self, table):
        root = ConjunctiveQuery().extended(0, 1)
        facts = [
            _crawl_facts(
                crawl(
                    HiddenDBClient(_interface(table, 10, literal)),
                    root=root,
                )
            )
            for literal in (False, True)
        ]
        assert facts[0] == facts[1]

    def test_budget_partial_cut_bit_identical(self, table):
        """The budget must cut the batched crawl at the same query."""
        for max_queries in (7, 40, 173):
            facts = [
                _crawl_facts(
                    crawl(
                        HiddenDBClient(_interface(table, 10, literal)),
                        max_queries=max_queries,
                        budget_action="partial",
                    )
                )
                for literal in (False, True)
            ]
            assert facts[0] == facts[1], max_queries
            assert not facts[0][2]  # genuinely truncated

    def test_partial_is_lower_bound_of_full(self, table):
        full = crawl(HiddenDBClient(TopKInterface(table, 10)))
        partial = crawl(
            HiddenDBClient(TopKInterface(table, 10)),
            max_queries=60,
            budget_action="partial",
        )
        assert partial.tuples <= full.tuples
        assert not partial.complete
