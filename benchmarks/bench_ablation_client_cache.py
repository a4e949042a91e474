"""Ablation: the client-side result cache (``HiddenDBClient(cache=...)``).

Repeated drill downs share their upper tree levels; a rational client
caches result pages so re-asking them is free.  This benchmark quantifies
the saving on a fixed number of estimation rounds.
"""

import numpy as np

from repro.core import HDUnbiasedSize
from repro.datasets import bool_iid
from repro.experiments.config import resolve_scale
from repro.hidden_db import HiddenDBClient, TopKInterface


def _cost(table, k, cache, seeds, rounds=10):
    costs = []
    for seed in seeds:
        client = HiddenDBClient(TopKInterface(table, k), cache=cache)
        estimator = HDUnbiasedSize(client, r=4, dub=32, seed=seed)
        costs.append(estimator.run(rounds=rounds).total_cost)
    return float(np.mean(costs))


def test_client_cache_ablation(benchmark, scale_name):
    scale = resolve_scale(scale_name)
    table = bool_iid(m=scale.m, n=scale.n, seed=29)
    seeds = list(range(60, 60 + scale.replications))

    def run():
        return (
            _cost(table, scale.k, True, seeds),
            _cost(table, scale.k, False, seeds),
        )

    cached, uncached = benchmark.pedantic(run, rounds=1, iterations=1)
    saving = 1.0 - cached / uncached
    print(f"\nmean session cost: cached={cached:.0f}, uncached={uncached:.0f} "
          f"(saving {saving:.0%})")
    # Caching must never cost more, and on repeated rounds it saves
    # substantially (the shared top levels of every drill down).
    assert cached <= uncached
    assert saving > 0.15
