"""hiddendb-repro: unbiased aggregate estimation over hidden web databases.

A full reproduction of Dasgupta, Jin, Jewell, Zhang, Das —
"Unbiased Estimation of Size and Other Aggregates Over Hidden Web
Databases", SIGMOD 2010.

The stable public surface is :mod:`repro.api` — one declarative,
JSON-serializable request type and one facade::

    from repro import DatasetSpec, Estimation, EstimationSpec, RegimeSpec, TargetSpec

    spec = EstimationSpec(
        target=TargetSpec(dataset=DatasetSpec(name="yahoo", m=20_000)),
        regime=RegimeSpec(rounds=25, seed=7),
    )
    report = Estimation(spec).run()      # one unified AggregateReport

The class-based layer underneath remains available for hand wiring::

    from repro import (
        HDUnbiasedSize, HDUnbiasedAgg, BoolUnbiasedSize,  # estimators
        TopKInterface, HiddenDBClient,                    # the form
        Attribute, Schema, HiddenTable, ConjunctiveQuery, # data model
    )

See :mod:`repro.datasets` for the paper's workloads, :mod:`repro.baselines`
for the comparison estimators, :mod:`repro.analysis` for the theoretical
results and :mod:`repro.experiments` for the figure/table harness.

Architecture: selections are served by a backend behind the table
(:mod:`repro.hidden_db.backends` — row narrowing with a prefix cache) and
estimator rounds can be fanned out over a worker pool
(:class:`repro.core.engine.ParallelSession`).  Tables are epoch-versioned
(:meth:`HiddenTable.apply_updates` + :mod:`repro.datasets.churn`) and
:class:`repro.core.dynamic.RSReissueEstimator` tracks aggregates of a
*churning* database by reissuing prior drill downs (``track`` on the CLI).
Query budgets are first-class ledgers (:class:`repro.core.budget.QueryBudget`
— round-granular leases settled in round order) so budget-bounded
sessions parallelise deterministically, and :mod:`repro.federation`
estimates totals across *many* hidden databases under one
variance-adaptive budget scheduler (``federate`` on the CLI).
``ARCHITECTURE.md`` at the repository root documents the interface →
backend → engine layering, the versioning/epoch layer, the
budget/federation scheduler and how to extend each.
"""

from repro.api import (
    AggregateReport,
    AggregateSpec,
    ChurnSpec,
    DatasetSpec,
    Estimation,
    EstimationSpec,
    EstimationStream,
    FederationSpec,
    MethodSpec,
    RegimeSpec,
    TargetSpec,
    run_spec,
)
from repro.core import (
    BoolUnbiasedSize,
    EpochEstimate,
    EstimationResult,
    HDUnbiasedAgg,
    HDUnbiasedSize,
    ParallelSession,
    QueryBudget,
    RestartEstimator,
    RoundEstimate,
    RSReissueEstimator,
    TrackResult,
    track,
)
from repro.federation import (
    FederatedAggEstimator,
    FederatedResult,
    FederatedSizeEstimator,
    FederatedSource,
    FederatedTarget,
)
from repro.hidden_db import (
    Attribute,
    ConjunctiveQuery,
    HiddenDBClient,
    HiddenTable,
    OnlineFormSimulator,
    QueryCounter,
    Schema,
    TableDelta,
    TopKInterface,
)
from repro.server import (
    EstimationServer,
    Journal,
    ServerConfig,
    ServiceProtocol,
)
from repro.service import EstimationService

__version__ = "1.7.0"

__all__ = [
    "EstimationSpec",
    "TargetSpec",
    "DatasetSpec",
    "FederationSpec",
    "ChurnSpec",
    "AggregateSpec",
    "RegimeSpec",
    "MethodSpec",
    "AggregateReport",
    "Estimation",
    "EstimationStream",
    "run_spec",
    "HDUnbiasedSize",
    "HDUnbiasedAgg",
    "BoolUnbiasedSize",
    "EstimationResult",
    "RoundEstimate",
    "ParallelSession",
    "QueryBudget",
    "FederatedSource",
    "FederatedTarget",
    "FederatedSizeEstimator",
    "FederatedAggEstimator",
    "FederatedResult",
    "RSReissueEstimator",
    "RestartEstimator",
    "EpochEstimate",
    "TrackResult",
    "track",
    "Attribute",
    "Schema",
    "ConjunctiveQuery",
    "HiddenTable",
    "TableDelta",
    "TopKInterface",
    "HiddenDBClient",
    "QueryCounter",
    "OnlineFormSimulator",
    "EstimationService",
    "EstimationServer",
    "ServerConfig",
    "ServiceProtocol",
    "Journal",
    "__version__",
]
