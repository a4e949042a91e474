"""Ablation: weight-adjustment smoothing (``WeightStore(smoothing=...)``).

The adjusted branch distribution is blended with uniform by a smoothing
factor so that misleading pilot history cannot starve a heavy branch.
This benchmark sweeps the factor on the skewed Bool-mixed dataset:
smoothing 1.0 degenerates to no weight adjustment; very small smoothing
trusts noisy pilots.  The sweet spot in between is the design default.
"""

import numpy as np

from repro.core import HDUnbiasedSize
from repro.datasets import bool_mixed
from repro.experiments.config import resolve_scale
from repro.hidden_db import HiddenDBClient, TopKInterface


def _mse(table, k, smoothing, seeds, rounds=12):
    estimates = []
    for seed in seeds:
        client = HiddenDBClient(TopKInterface(table, k))
        estimator = HDUnbiasedSize(
            client, r=4, dub=32, smoothing=smoothing, seed=seed
        )
        estimates.append(estimator.run(rounds=rounds).mean)
    errors = np.asarray(estimates) - table.num_tuples
    return float(np.mean(errors**2))


def test_wa_smoothing_ablation(benchmark, scale_name):
    scale = resolve_scale(scale_name)
    table = bool_mixed(m=scale.m, n=scale.n, seed=31)
    seeds = list(range(80, 80 + scale.replications))
    sweep = (0.05, 0.25, 1.0)

    def run():
        return {s: _mse(table, scale.k, s, seeds) for s in sweep}

    mses = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for s, mse in mses.items():
        print(f"smoothing={s:<5} MSE={mse:.3e}")
    # All variants stay unbiased; the assertion is only that estimates are
    # sane (every smoothing level lands within an order of magnitude of the
    # others — the knob trades variance, it cannot break correctness).
    values = list(mses.values())
    assert max(values) <= 200 * min(values)
