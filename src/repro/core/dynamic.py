"""Aggregate tracking over *dynamic* hidden databases.

The base reproduction assumes a frozen database; real hidden web databases
churn daily.  Liu et al. ("Aggregate Estimation Over Dynamic Hidden Web
Databases", arXiv:1403.2763) show that re-running HD-UNBIASED-SIZE from
scratch every epoch wastes almost its entire budget re-learning what did
not change, and that *reissuing* prior drill downs tracks the aggregate far
cheaper.  This module implements that idea in the present codebase's
round/walk vocabulary:

:class:`RSReissueEstimator` (RS = *reissue-subsample*, in the spirit of the
paper's RS-ESTIMATOR)
    Fixes a pool of ``rounds`` drill-down seeds at epoch 0 and runs them
    all once.  Every later epoch it draws a seeded uniform subset of
    ``reissue_per_epoch`` rounds and **reissues** them — each reissued
    round replays its drill down *with its original seed* against the
    current database.  Where churn left the walked subtree untouched the
    replay lands on the same node with the same probability and the
    difference cancels exactly; where an outcome changed the replay
    measures the change.  The published estimate combines the stored
    per-round pool with the measured drift:

    .. math::

        \\hat m_t \\;=\\; \\underbrace{\\tfrac1R \\sum_i v_i}_{V_{t-1}}
        \\;+\\; \\underbrace{\\tfrac1b \\sum_{i \\in S_t}
            \\bigl(e_i(t) - v_i\\bigr)}_{D_t},

    where :math:`v_i` is round *i*'s stored value (from the epoch it was
    last reissued) and :math:`e_i(t)` its fresh replay.  Each walk is
    unbiased for the epoch it ran against (Theorem 1 of the SIGMOD paper
    holds per epoch), and the reissue subset is chosen independently of
    every walk outcome, so :math:`\\mathbb E[V_{t-1}] = \\tfrac1R\\sum_i
    m_{\\tau_i}` and :math:`\\mathbb E[D_t] = m_t - \\tfrac1R \\sum_i
    m_{\\tau_i}` — the per-epoch estimate is **unbiased for the current
    size/aggregate** while paying only ``reissue_per_epoch`` drill downs
    instead of ``rounds``.

:class:`RestartEstimator`
    The baseline the dynamic paper compares against: a fresh
    HD-UNBIASED-SIZE session (new seeds) every epoch.

Both estimators fan their per-epoch rounds out through
:meth:`~repro.core.engine.ParallelSession.run_rounds`, inheriting the
engine's worker-count-invariance contract: ``track`` output is bit
identical for any ``workers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.engine import ParallelSession
from repro.core.estimators import (
    ConditionLike,
    HDUnbiasedAgg,
    HDUnbiasedSize,
    _RoundFactory,
)
from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.query import ConjunctiveQuery
from repro.utils.rng import RandomSource, spawn_rng

__all__ = [
    "EpochEstimate",
    "TrackResult",
    "RSReissueEstimator",
    "RestartEstimator",
    "build_tracker",
    "track",
]


@dataclass
class EpochEstimate:
    """One epoch's published estimate and its accounting."""

    epoch: int  # 0-based epoch index (0 = initial full estimation)
    version: int  # table version the estimate was computed against
    estimate: float  # the published per-epoch unbiased estimate
    stored_mean: float  # V_t: mean of the stored round pool after update
    drift: float  # D_t: measured drift correction (0.0 at epoch 0)
    reissued: int  # rounds replayed this epoch
    cost: int  # queries charged this epoch
    changed: int = 0  # replayed rounds whose subtree outcome drifted
    truth: Optional[float] = None  # ground truth, when the tracker records it

    @property
    def relative_error(self) -> float:
        """|estimate - truth| / truth (NaN without recorded truth)."""
        if self.truth is None or self.truth == 0:
            return float("nan")
        return abs(self.estimate - self.truth) / abs(self.truth)


@dataclass
class TrackResult:
    """Per-epoch trajectory of one tracking session."""

    policy: str
    epochs: List[EpochEstimate] = field(default_factory=list)

    @property
    def estimates(self) -> List[float]:
        return [e.estimate for e in self.epochs]

    @property
    def truths(self) -> List[Optional[float]]:
        return [e.truth for e in self.epochs]

    @property
    def costs(self) -> List[int]:
        return [e.cost for e in self.epochs]

    @property
    def total_cost(self) -> int:
        return int(sum(e.cost for e in self.epochs))

    def to_dict(self) -> Dict:
        return {
            "policy": self.policy,
            "total_cost": self.total_cost,
            "epochs": [
                {
                    "epoch": e.epoch,
                    "version": e.version,
                    "estimate": e.estimate,
                    "truth": e.truth,
                    "cost": e.cost,
                    "reissued": e.reissued,
                    "changed": e.changed,
                    "drift": e.drift,
                }
                for e in self.epochs
            ],
        }


class _EpochEstimatorBase:
    """Shared scaffolding: template estimator + engine fan-out."""

    def __init__(
        self,
        client: HiddenDBClient,
        aggregate: str = "count",
        measure: Optional[str] = None,
        condition: ConditionLike = None,
        r: int = 1,
        dub: Optional[int] = None,
        weight_adjustment: bool = False,
        seed: RandomSource = None,
        workers: int = 1,
        executor: str = "thread",
    ) -> None:
        aggregate = aggregate.lower()
        if aggregate not in ("count", "sum"):
            raise ValueError(
                f"dynamic tracking supports 'count' and 'sum', got {aggregate!r} "
                "(AVG has no unbiased estimator; track SUM and COUNT instead)"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.client = client
        self.aggregate = aggregate
        self.measure = measure
        self.workers = int(workers)
        self.executor = executor
        master = spawn_rng(seed)
        self._master = master
        # The template never runs; it exists so the engine's _RoundFactory
        # can clone per-round estimators (fresh client + RNG per round).
        if aggregate == "count":
            self._template = HDUnbiasedSize(
                client, r=r, dub=dub, weight_adjustment=weight_adjustment,
                condition=condition, seed=0,
            )
        else:
            self._template = HDUnbiasedAgg(
                client, aggregate="sum", measure=measure,
                r=r, dub=dub, weight_adjustment=weight_adjustment,
                condition=condition, seed=0,
            )
        self.history: List[EpochEstimate] = []

    # -- engine plumbing -------------------------------------------------

    def _session(self) -> ParallelSession:
        # One persistent session (and worker pool) per tracker: step() is
        # called once per epoch and the pool is reused across epochs.
        session = getattr(self, "_engine_session", None)
        if session is None:
            session = ParallelSession(
                factory=_RoundFactory(self._template),
                workers=self.workers,
                executor=self.executor,
            )
            self._engine_session = session
        return session

    def _run_rounds(self, seeds: List[int]):
        """Replay one round per seed; returns (values, total_cost).

        Outcomes come back in seed order regardless of worker scheduling
        (the engine contract), so everything derived here is
        worker-count invariant.
        """
        outcomes = self._session().run_rounds(seeds)
        values = np.array(
            [self._template._statistic(o[0].values) for o in outcomes]
        )
        cost = int(sum(o[0].cost for o in outcomes))
        return values, cost

    def close(self) -> None:
        """Release the persistent engine session's worker pool."""
        session = getattr(self, "_engine_session", None)
        if session is not None:
            session.close()
            self._engine_session = None

    def _draw_seed(self) -> int:
        return int(self._master.integers(0, 2**63 - 1))

    @property
    def _version(self) -> int:
        return int(getattr(self.client.interface, "version", 0))

    def step(self) -> EpochEstimate:
        raise NotImplementedError

    @property
    def epoch(self) -> int:
        """Epochs estimated so far."""
        return len(self.history)


class RSReissueEstimator(_EpochEstimatorBase):
    """RS-style tracking: reissue a seeded subset of prior drill downs.

    Parameters
    ----------
    client:
        Client over the live form.  Per-round fresh clients are cloned
        from it (own cache and counter each), so per-epoch costs are a
        function of the epoch's walks alone — never of worker scheduling.
    rounds:
        Size R of the fixed round pool (epoch 0 runs all of them).
    reissue_per_epoch:
        Budgeted number b of rounds replayed per later epoch; must not
        exceed *rounds*.  ``None`` (the default) picks ``max(1, rounds
        // 4)``.
    epoch_query_budget:
        Optional per-epoch query cap.  The subset size is shrunk *before*
        any query is issued, using the previous epoch's mean per-round
        cost — deciding from past epochs only keeps the subset choice
        independent of this epoch's outcomes (anything else would bias
        the estimate).
    aggregate / measure / condition / r / dub / weight_adjustment:
        As in the HD-UNBIASED family (defaults are the plain
        single-drill-down walk).
    seed:
        Fixes the round-seed pool, the per-epoch subset draws, and every
        walk — one seed replays an entire tracking session.
    workers / executor:
        Per-epoch fan-out through :class:`ParallelSession`.
    """

    def __init__(
        self,
        client: HiddenDBClient,
        rounds: int = 32,
        reissue_per_epoch: Optional[int] = None,
        epoch_query_budget: Optional[int] = None,
        **kwargs,
    ) -> None:
        if rounds < 2:
            raise ValueError(f"rounds must be >= 2, got {rounds}")
        if reissue_per_epoch is None:
            reissue_per_epoch = max(1, rounds // 4)
        if reissue_per_epoch < 1:
            raise ValueError(
                f"reissue_per_epoch must be >= 1, got {reissue_per_epoch}"
            )
        if reissue_per_epoch > rounds:
            raise ValueError(
                f"reissue_per_epoch ({reissue_per_epoch}) cannot exceed the "
                f"round pool size ({rounds})"
            )
        super().__init__(client, **kwargs)
        self.rounds = int(rounds)
        self.reissue_per_epoch = int(reissue_per_epoch)
        self.epoch_query_budget = epoch_query_budget
        self._round_seeds = [self._draw_seed() for _ in range(self.rounds)]
        self._subset_rng = spawn_rng(self._draw_seed())
        self._values: Optional[np.ndarray] = None  # stored pool v_i

    def _initialize(self) -> EpochEstimate:
        values, cost = self._run_rounds(self._round_seeds)
        self._values = values
        mean = float(values.mean())
        estimate = EpochEstimate(
            epoch=0,
            version=self._version,
            estimate=mean,
            stored_mean=mean,
            drift=0.0,
            reissued=self.rounds,
            cost=cost,
        )
        self.history.append(estimate)
        return estimate

    def _subset_size(self) -> int:
        b = self.reissue_per_epoch
        if self.epoch_query_budget is not None and self.history:
            last = self.history[-1]
            mean_round_cost = last.cost / max(1, last.reissued)
            affordable = int(self.epoch_query_budget // max(1.0, mean_round_cost))
            b = min(b, max(1, affordable))
        return b

    def step(self) -> EpochEstimate:
        """Estimate the current epoch (initial full pass on first call)."""
        if self._values is None:
            return self._initialize()
        b = self._subset_size()
        subset = np.sort(
            self._subset_rng.choice(self.rounds, size=b, replace=False)
        )
        replayed, cost = self._run_rounds(
            [self._round_seeds[i] for i in subset]
        )
        diffs = replayed - self._values[subset]
        drift = float(diffs.mean())
        anchor = float(self._values.mean())  # V_{t-1}
        estimate_value = anchor + drift
        self._values[subset] = replayed  # rotate the pool forward
        estimate = EpochEstimate(
            epoch=len(self.history),
            version=self._version,
            estimate=estimate_value,
            stored_mean=float(self._values.mean()),
            drift=drift,
            reissued=int(b),
            cost=cost,
            # A reissued walk whose subtree survived churn untouched lands
            # on the same node with the same probability: its difference is
            # exactly zero.  Non-zero differences are detected changes.
            changed=int(np.count_nonzero(diffs)),
        )
        self.history.append(estimate)
        return estimate


class RestartEstimator(_EpochEstimatorBase):
    """Baseline: a fresh HD-UNBIASED session (new seeds) every epoch."""

    def __init__(
        self,
        client: HiddenDBClient,
        rounds_per_epoch: int = 32,
        **kwargs,
    ) -> None:
        if rounds_per_epoch < 1:
            raise ValueError(
                f"rounds_per_epoch must be >= 1, got {rounds_per_epoch}"
            )
        super().__init__(client, **kwargs)
        self.rounds_per_epoch = int(rounds_per_epoch)

    def step(self) -> EpochEstimate:
        seeds = [self._draw_seed() for _ in range(self.rounds_per_epoch)]
        values, cost = self._run_rounds(seeds)
        mean = float(values.mean())
        estimate = EpochEstimate(
            epoch=len(self.history),
            version=self._version,
            estimate=mean,
            stored_mean=mean,
            drift=0.0,
            reissued=self.rounds_per_epoch,
            cost=cost,
        )
        self.history.append(estimate)
        return estimate


def _ground_truth(table, aggregate: str, measure: Optional[str], condition) -> float:
    root = condition if condition is not None else ConjunctiveQuery()
    if aggregate == "count":
        if condition is None:
            return float(table.num_tuples)
        return float(table.count(condition))
    return float(table.sum_measure(root, measure))


def build_tracker(
    table,
    *,
    churn=0.05,
    policy: str = "reissue",
    k: int = 100,
    rounds: int = 32,
    reissue_per_epoch: Optional[int] = None,
    epoch_query_budget: Optional[int] = None,
    seed: RandomSource = None,
    churn_seed: RandomSource = 0,
    **estimator_kwargs,
):
    """Wire up one tracking session: ``(estimator, churn_gen, table)``.

    This is :func:`track`'s construction phase, exposed so the streaming
    front door in :mod:`repro.api` builds the exact same stack and runs
    it through the same epoch loop.  The returned *table* is the one the
    estimator reads and the one *churn_gen* mutates.
    """
    from repro.datasets.churn import ChurnGenerator
    from repro.hidden_db.interface import TopKInterface

    if policy == "restart" and (
        epoch_query_budget is not None or reissue_per_epoch is not None
    ):
        raise ValueError(
            "reissue_per_epoch/epoch_query_budget only apply to the "
            "reissue policy; the restart baseline always pays its full "
            "per-epoch round count"
        )
    if isinstance(churn, ChurnGenerator):
        churn_gen = churn
    else:
        churn_gen = ChurnGenerator(table, rate=float(churn), seed=churn_seed)
    client = HiddenDBClient(TopKInterface(table, k))
    common = dict(seed=seed, **estimator_kwargs)
    if policy == "reissue":
        estimator = RSReissueEstimator(
            client,
            rounds=rounds,
            reissue_per_epoch=reissue_per_epoch,
            epoch_query_budget=epoch_query_budget,
            **common,
        )
    elif policy == "restart":
        estimator = RestartEstimator(
            client, rounds_per_epoch=rounds, **common
        )
    else:
        raise ValueError(
            f"unknown policy {policy!r}; expected 'reissue' or 'restart'"
        )
    return estimator, churn_gen, table


def track(
    table,
    *,
    epochs: int,
    churn=0.05,
    policy: str = "reissue",
    k: int = 100,
    rounds: int = 32,
    reissue_per_epoch: Optional[int] = None,
    epoch_query_budget: Optional[int] = None,
    aggregate: str = "count",
    measure: Optional[str] = None,
    condition: ConditionLike = None,
    seed: RandomSource = None,
    churn_seed: RandomSource = 0,
    workers: int = 1,
    executor: str = "thread",
    record_truth: bool = True,
    **estimator_kwargs,
) -> TrackResult:
    """Track a live aggregate across *epochs* mutation epochs.

    Epoch 0 estimates the initial database; every later epoch first
    applies one churn epoch to *table* (mutating it!) and then runs the
    policy's per-epoch estimation.  *churn* is either a per-epoch rate
    (fraction of tuples touched, split evenly between inserts / deletes /
    modifications) or a ready
    :class:`~repro.datasets.churn.ChurnGenerator`.  *policy* is
    ``"reissue"`` (:class:`RSReissueEstimator`) or ``"restart"``
    (:class:`RestartEstimator` with ``rounds`` fresh rounds per epoch).

    The estimator seed and the churn seed are independent: fixing
    *churn_seed* pins the database evolution (hence the ground truth in
    every epoch) while replications vary *seed* — exactly the layout the
    unbiasedness experiments need.  Output is worker-count invariant.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    tracker = build_tracker(
        table,
        churn=churn,
        policy=policy,
        k=k,
        rounds=rounds,
        reissue_per_epoch=reissue_per_epoch,
        epoch_query_budget=epoch_query_budget,
        seed=seed,
        churn_seed=churn_seed,
        aggregate=aggregate,
        measure=measure,
        condition=condition,
        workers=workers,
        executor=executor,
        **estimator_kwargs,
    )
    for result in _track_epochs(tracker, epochs, policy, record_truth):
        pass
    return result


def _track_epochs(tracker, epochs: int, policy: str, record_truth: bool = True):
    """:func:`track`'s epoch loop over a :func:`build_tracker` triple.

    Yields the growing :class:`TrackResult` after each epoch.  :func:`track`
    drains it and the tracking stream of :meth:`Estimation.stream
    <repro.api.session.Estimation.stream>` iterates it; ending or closing
    it releases the tracker's worker pool.
    """
    estimator, churn_gen, table = tracker
    result = TrackResult(policy=policy)
    try:
        for epoch in range(epochs):
            if epoch:
                churn_gen.epoch()
            epoch_estimate = estimator.step()
            if record_truth:
                epoch_estimate.truth = _ground_truth(
                    table, estimator.aggregate, estimator.measure,
                    estimator._template.condition,
                )
            result.epochs.append(epoch_estimate)
            yield result
    finally:
        estimator.close()
