"""Replication harness: estimator sessions → metric-vs-query-cost curves.

The paper evaluates estimators by running independent sessions and plotting
MSE / relative error / error bars of the *running estimate* against the
cumulative number of issued queries.  This module provides the generic
machinery: session factories producing ``(cost, running estimate)``
trajectories, and a grid evaluator that reads every trajectory at fixed
budgets and aggregates the error metrics.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.baselines.capture_recapture import CaptureRecaptureEstimator
from repro.baselines.hidden_db_sampler import HiddenDBSampler
from repro.core.estimators import HDUnbiasedAgg, HDUnbiasedSize
from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.interface import TopKInterface
from repro.hidden_db.table import HiddenTable
from repro.utils.stats import StreamingMeanSeries

__all__ = [
    "MetricsAtCost",
    "TrajectoryFactory",
    "collect_trajectories",
    "collect_epoch_trajectories",
    "collect_federated_runs",
    "collect_spec_runs",
    "metrics_at_costs",
    "hd_size_factory",
    "agg_factory",
    "capture_recapture_factory",
]

#: Builds one independent session trajectory from a seed.
TrajectoryFactory = Callable[[int], StreamingMeanSeries]


@dataclass
class MetricsAtCost:
    """Replication metrics of one estimator at one query budget."""

    cost: int
    mse: float
    mean_relative_error: float  # mean of |est-truth|/truth over replications
    mean_estimate: float
    std_estimate: float  # std over replications (the paper's error bars)
    replications: int  # replications that reached this budget


def collect_trajectories(
    factory: TrajectoryFactory,
    replications: int,
    base_seed: int,
    workers: int = 1,
) -> List[StreamingMeanSeries]:
    """Run *replications* independent sessions.

    Sessions are embarrassingly parallel — each builds its own client from a
    seed fixed by its replication index — so with ``workers > 1`` they fan
    out over a thread pool and the returned trajectories are identical to a
    sequential run (same seeds, same order) regardless of the pool size.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    seeds = [base_seed + 7919 * i for i in range(replications)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(factory, seeds))
    return [factory(seed) for seed in seeds]


def collect_epoch_trajectories(
    table_factory: Callable[[], "HiddenTable"],
    replications: int,
    base_seed: int,
    *,
    epochs: int,
    churn: float = 0.05,
    churn_seed: int = 0,
    policy: str = "reissue",
    workers: int = 1,
    **track_kwargs,
) -> List["TrackResult"]:
    """Run *replications* independent dynamic tracking sessions.

    The dynamic analogue of :func:`collect_trajectories`.  Every
    replication rebuilds its own table from *table_factory* and replays
    the **same** churn stream (fixed *churn_seed*), so the database
    evolution — and with it the per-epoch ground truth — is identical
    across replications, while each replication's estimator runs with its
    own seed (derived from *base_seed* and the replication index).  That
    layout is exactly what the per-epoch unbiasedness experiments need:
    the replication mean at epoch t must match the fixed truth at epoch t.

    ``workers`` fans *replications* over a thread pool; the returned
    trajectories are identical to a sequential run (same seeds, same
    order) regardless of the pool size.  Round-level fan-out inside a
    single tracking session is a different knob that this helper does not
    expose (replication-level parallelism is the better use of cores
    here); call :func:`repro.core.dynamic.track` directly for that.
    """
    from repro.core.dynamic import track

    if replications < 1:
        raise ValueError("need at least one replication")

    def one_replication(seed: int) -> "TrackResult":
        table = table_factory()
        return track(
            table,
            epochs=epochs,
            churn=churn,
            churn_seed=churn_seed,
            policy=policy,
            seed=seed,
            **track_kwargs,
        )

    seeds = [base_seed + 7919 * i for i in range(replications)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one_replication, seeds))
    return [one_replication(seed) for seed in seeds]


def collect_federated_runs(
    target,
    replications: int,
    base_seed: int,
    *,
    policy: str = "neyman",
    query_budget: float = 2_000,
    pilot_rounds: int = 3,
    workers: int = 1,
    aggregate: Optional[str] = None,
    measure: Optional[str] = None,
) -> List["FederatedResult"]:
    """Run *replications* independent federated estimation sessions.

    The federated analogue of :func:`collect_trajectories`: every
    replication builds a fresh
    :class:`~repro.federation.estimators.FederatedSizeEstimator` (or the
    aggregate variant when *aggregate* is given) over the **shared**
    *target* with its own seed, so the replication spread measures
    estimator variance against one fixed federation.  ``workers`` fans
    replications over a thread pool; a federated run is itself
    worker-count invariant, so replication-level parallelism is the
    better use of cores and the returned results are identical to a
    sequential run (same seeds, same order) regardless of the pool size.
    """
    from repro.federation import FederatedAggEstimator, FederatedSizeEstimator

    if replications < 1:
        raise ValueError("need at least one replication")

    def one_replication(seed: int) -> "FederatedResult":
        if aggregate is None:
            estimator = FederatedSizeEstimator(
                target, policy=policy, pilot_rounds=pilot_rounds, seed=seed
            )
        else:
            estimator = FederatedAggEstimator(
                target,
                aggregate=aggregate,
                measure=measure,
                policy=policy,
                pilot_rounds=pilot_rounds,
                seed=seed,
            )
        return estimator.run(query_budget)

    seeds = [base_seed + 7919 * i for i in range(replications)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one_replication, seeds))
    return [one_replication(seed) for seed in seeds]


def collect_spec_runs(
    spec,
    replications: int,
    base_seed: int,
    *,
    workers: int = 1,
):
    """Run *replications* of one :class:`~repro.api.spec.EstimationSpec`.

    The spec-level analogue of :func:`collect_trajectories`: every
    replication executes ``Estimation(spec.with_seed(seed)).run()`` with
    a seed derived from *base_seed* and the replication index, and the
    list of :class:`~repro.api.report.AggregateReport`\\ s comes back in
    replication order.  Everything else the spec pins — dataset seed,
    churn seed, federation fixture — is shared, so the replication
    spread measures estimator variance against one fixed target (each
    replication recompiles its own target from the spec, so tracking
    runs do not cross-mutate).  ``workers`` fans replications over a
    thread pool; results are identical to a sequential run regardless
    of the pool size.
    """
    from repro.api import Estimation

    if replications < 1:
        raise ValueError("need at least one replication")

    def one_replication(seed: int):
        return Estimation(spec.with_seed(seed)).run()

    seeds = [base_seed + 7919 * i for i in range(replications)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one_replication, seeds))
    return [one_replication(seed) for seed in seeds]


def metrics_at_costs(
    trajectories: Sequence[StreamingMeanSeries],
    truth: float,
    costs: Sequence[int],
) -> List[MetricsAtCost]:
    """Evaluate replication error metrics at each budget in *costs*.

    A trajectory contributes at budget c only if it has produced at least
    one estimate by then (step interpolation; NaN otherwise).
    """
    out: List[MetricsAtCost] = []
    for cost in costs:
        values = np.array(
            [t.value_at(cost) for t in trajectories], dtype=float
        )
        values = values[~np.isnan(values)]
        # Schnabel estimates can be inf before the first recapture; treat
        # them as missing at this budget (the paper's C&R points simply sit
        # off the chart there).
        values = values[np.isfinite(values)]
        if values.size == 0:
            out.append(
                MetricsAtCost(cost, float("nan"), float("nan"), float("nan"),
                              float("nan"), 0)
            )
            continue
        errors = values - truth
        out.append(
            MetricsAtCost(
                cost=cost,
                mse=float(np.mean(errors**2)),
                mean_relative_error=float(np.mean(np.abs(errors)) / truth),
                mean_estimate=float(np.mean(values)),
                std_estimate=float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
                replications=int(values.size),
            )
        )
    return out


# -- session factories ----------------------------------------------------


def hd_size_factory(
    table: HiddenTable,
    k: int,
    budget: int,
    r: int = 4,
    dub: Optional[int] = 32,
    weight_adjustment: bool = True,
    condition=None,
    attribute_order=None,
) -> TrajectoryFactory:
    """Sessions of :class:`HDUnbiasedSize` (or its ablations) on *table*.

    Every session gets a fresh interface/client (no cross-session cache
    leakage) and runs rounds until *budget* queries.
    """

    def factory(seed: int) -> StreamingMeanSeries:
        client = HiddenDBClient(TopKInterface(table, k))
        estimator = HDUnbiasedSize(
            client,
            r=r,
            dub=dub,
            weight_adjustment=weight_adjustment,
            condition=condition,
            attribute_order=attribute_order,
            seed=seed,
        )
        return estimator.run(query_budget=budget).trajectory

    return factory


def agg_factory(
    table: HiddenTable,
    k: int,
    budget: int,
    aggregate: str,
    measure: Optional[str] = None,
    r: int = 4,
    dub: Optional[int] = 32,
    weight_adjustment: bool = True,
    condition=None,
) -> TrajectoryFactory:
    """Sessions of :class:`HDUnbiasedAgg` on *table*."""

    def factory(seed: int) -> StreamingMeanSeries:
        client = HiddenDBClient(TopKInterface(table, k))
        estimator = HDUnbiasedAgg(
            client,
            aggregate=aggregate,
            measure=measure,
            r=r,
            dub=dub,
            weight_adjustment=weight_adjustment,
            condition=condition,
            seed=seed,
        )
        return estimator.run(query_budget=budget).trajectory

    return factory


def capture_recapture_factory(
    table: HiddenTable,
    k: int,
    budget: int,
) -> TrajectoryFactory:
    """Sessions of CAPTURE-&-RECAPTURE over HIDDEN-DB-SAMPLER.

    The 2007 sampler restarts from the root on every underflow and
    re-issues the repeated queries — that inefficiency is part of what the
    paper measures — so its client runs *uncached*, and a hard counter
    limit enforces the budget even mid-walk.
    """
    from repro.hidden_db.counters import QueryCounter

    def factory(seed: int) -> StreamingMeanSeries:
        interface = TopKInterface(table, k, counter=QueryCounter(limit=budget))
        client = HiddenDBClient(interface, cache=False)
        sampler = HiddenDBSampler(client, seed=seed)
        estimator = CaptureRecaptureEstimator(sampler)
        return estimator.run(query_budget=budget).trajectory

    return factory
