"""Spec → estimator-stack compilation.

The functions here are the *only* place the public API touches estimator
construction: given a validated :class:`~repro.api.spec.EstimationSpec`
they build exactly the stack a hand-written script (or the pre-API CLI)
would have built — same dataset makers, same client wiring, same
defaults — so a seeded ``Estimation(spec).run()`` reproduces the legacy
entry points bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.api.spec import EstimationSpec
from repro.core.estimators import HDUnbiasedAgg, HDUnbiasedSize
from repro.datasets import bool_iid, bool_mixed, yahoo_auto
from repro.federation.estimators import (
    FederatedAggEstimator,
    FederatedSizeEstimator,
)
from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.interface import TopKInterface

__all__ = [
    "DATASET_MAKERS",
    "DEFAULT_FEDERATED_POLICY",
    "build_table",
    "build_estimator",
    "build_federation",
    "build_federated_estimator",
    "tracker_kwargs",
]

DATASET_MAKERS = {"iid": bool_iid, "mixed": bool_mixed, "yahoo": yahoo_auto}

#: HD-UNBIASED defaults for static / budgeted / federated compilation
#: (tracking inherits :func:`repro.core.dynamic.track`'s plain-walk
#: defaults instead — a ``None`` method knob always means "mode default").
_DEFAULT_R = 4
_DEFAULT_DUB = 32

#: Allocation policy a federated spec compiles to when none is named.
DEFAULT_FEDERATED_POLICY = "neyman"


def build_table(spec: EstimationSpec, table=None):
    """The hidden table a dataset-target spec runs against.

    *table* injects a pre-built :class:`~repro.hidden_db.table.HiddenTable`
    (mandatory for ``dataset.name == "custom"``, optional otherwise — an
    injected table overrides the generated one).
    """
    dataset = spec.target.dataset
    if dataset is None:
        raise ValueError("build_table needs a dataset target")
    if table is None:
        if dataset.name == "custom":
            raise ValueError(
                "dataset 'custom' carries no generator; pass the table to "
                "Estimation(spec, table=...)"
            )
        table = DATASET_MAKERS[dataset.name](m=dataset.m, seed=dataset.seed)
    return table


def build_estimator(spec: EstimationSpec, table):
    """The single-database estimator of a static / budgeted spec."""
    method, aggregate = spec.method, spec.aggregate
    client = HiddenDBClient(TopKInterface(table, spec.target.k))
    common = dict(
        r=method.r if method.r is not None else _DEFAULT_R,
        dub=method.dub if method.dub is not None else _DEFAULT_DUB,
        weight_adjustment=(
            method.weight_adjustment
            if method.weight_adjustment is not None
            else True
        ),
        condition=aggregate.condition,
        seed=spec.regime.seed,
    )
    if aggregate.kind in ("size", "count"):
        return HDUnbiasedSize(client, **common)
    return HDUnbiasedAgg(
        client, aggregate=aggregate.kind, measure=aggregate.measure, **common
    )


def resolve_rounds(spec: EstimationSpec) -> Optional[int]:
    """The effective round count of a static / budgeted spec.

    A spec with neither rounds nor another stop runs the historical
    default of 20 rounds (the CLI's long-standing behaviour).
    """
    rounds = spec.regime.rounds
    if (
        rounds is None
        and spec.regime.query_budget is None
        and spec.regime.target_precision is None
    ):
        rounds = 20
    return rounds


def build_federation(spec: EstimationSpec, federation=None):
    """The :class:`~repro.federation.target.FederatedTarget` of a spec.

    *federation* injects a pre-built target (overriding the generated
    fixture) — the serializable spec then documents the regime while the
    caller supplies the real sources.
    """
    from repro.datasets.federation import heterogeneous_federation

    if federation is not None:
        return federation
    fed = spec.target.federation
    if fed is None:
        raise ValueError("build_federation needs a federation target")
    return heterogeneous_federation(
        num_sources=fed.sources,
        base_m=fed.base_m,
        k=spec.target.k,
        overlap=fed.overlap,
        seed=fed.seed,
    )


def build_federated_estimator(spec: EstimationSpec, target):
    """The federated estimator (size or aggregate) of a spec."""
    method, aggregate = spec.method, spec.aggregate
    common = dict(
        policy=(
            method.policy
            if method.policy is not None
            else DEFAULT_FEDERATED_POLICY
        ),
        pilot_rounds=(
            method.pilot_rounds if method.pilot_rounds is not None else 3
        ),
        seed=spec.regime.seed,
        executor=spec.regime.executor,
    )
    if aggregate.kind == "size":
        return FederatedSizeEstimator(target, **common)
    return FederatedAggEstimator(
        target,
        aggregate=aggregate.kind,
        measure=aggregate.measure,
        **common,
    )


def tracker_kwargs(spec: EstimationSpec) -> Tuple[dict, dict]:
    """Keyword arguments for :func:`repro.core.dynamic.track` /
    :func:`repro.core.dynamic.build_tracker`, as ``(loop_kwargs,
    build_kwargs)`` — *loop_kwargs* carries the epoch count ``track``
    needs on top of the shared construction kwargs."""
    target, method, aggregate, regime = (
        spec.target, spec.method, spec.aggregate, spec.regime,
    )
    churn = target.churn
    if churn is None:
        raise ValueError("tracker_kwargs needs a churn (tracking) target")
    aggregate_kind = "count" if aggregate.kind == "size" else aggregate.kind
    build_kwargs = dict(
        churn=churn.rate,
        policy=method.policy if method.policy is not None else "reissue",
        k=target.k,
        rounds=regime.rounds if regime.rounds is not None else 32,
        reissue_per_epoch=method.reissue_per_epoch,
        epoch_query_budget=method.epoch_query_budget,
        aggregate=aggregate_kind,
        measure=aggregate.measure,
        condition=aggregate.condition,
        seed=regime.seed,
        churn_seed=churn.seed,
        workers=regime.workers,
        executor=regime.executor,
    )
    # The walk knobs default to track()'s plain single-drill-down walk;
    # forward them only when the spec sets them, so a knob-less spec
    # stays byte-identical to a legacy track() call.
    for knob in ("r", "dub", "weight_adjustment"):
        value = getattr(method, knob)
        if value is not None:
            build_kwargs[knob] = value
    loop_kwargs = dict(epochs=churn.epochs)
    return loop_kwargs, build_kwargs
