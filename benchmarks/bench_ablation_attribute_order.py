"""Ablation (paper Section 5.1): attribute ordering.

The paper argues large-fanout attributes should sit near the tree root so
smart backtracking probes fewer branches.  The effect concerns the *walk
probe cost*, so this benchmark uses plain backtracking walks (no
divide-&-conquer — its segmentation would confound the comparison by
changing the recursion structure) and measures the session query cost
under decreasing- vs increasing-fanout orderings on the categorical
Yahoo! Auto dataset.
"""

import numpy as np

from repro.core import HDUnbiasedSize
from repro.datasets import yahoo_auto
from repro.experiments.config import resolve_scale
from repro.hidden_db import HiddenDBClient, TopKInterface


def _session_costs(table, k, order, seeds):
    costs = []
    for seed in seeds:
        client = HiddenDBClient(TopKInterface(table, k))
        estimator = HDUnbiasedSize(
            client, r=1, dub=None, weight_adjustment=False,
            attribute_order=order, seed=seed,
        )
        costs.append(estimator.run(rounds=8).total_cost)
    return float(np.mean(costs))


def test_attribute_order_ablation(benchmark, scale_name):
    scale = resolve_scale(scale_name)
    table = yahoo_auto(m=min(scale.yahoo_m, 20_000), seed=23)
    decreasing = list(table.schema.decreasing_fanout_order())
    increasing = decreasing[::-1]
    seeds = list(range(40, 40 + scale.replications))

    def run():
        return (
            _session_costs(table, scale.k, decreasing, seeds),
            _session_costs(table, scale.k, increasing, seeds),
        )

    dec_cost, inc_cost = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nmean session cost: decreasing-fanout={dec_cost:.0f}, "
          f"increasing-fanout={inc_cost:.0f}")
    # Section 5.1's recommendation: the decreasing order is cheaper.
    assert dec_cost <= inc_cost
