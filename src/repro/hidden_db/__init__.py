"""Hidden-database substrate: schema, table, top-k form interface.

This package implements the *environment* the paper's estimators operate
in — everything a hidden web database exposes (a restrictive top-k search
form) and everything it hides (true counts, full result sets).
"""

from repro.hidden_db.backends import (
    NaiveScanBackend,
    SelectionBackend,
    make_backend,
)
from repro.hidden_db.counters import HiddenDBClient, QueryCounter
from repro.hidden_db.crawler import CrawlResult, crawl
from repro.hidden_db.discretize import (
    bucket_labels,
    bucketise,
    equi_depth_edges,
    equi_width_edges,
    promote_measure_to_attribute,
)
from repro.hidden_db.exceptions import (
    HiddenDBError,
    InvalidQueryError,
    MutationError,
    QueryLimitExceeded,
    QueryRejected,
    SchemaError,
    StaleResultError,
)
from repro.hidden_db.flaky import FlakyInterface, TransientServerError
from repro.hidden_db.interface import (
    QueryOutcome,
    QueryResult,
    ReturnedTuple,
    TopKInterface,
)
from repro.hidden_db.online import OnlineFormSimulator
from repro.hidden_db.query import ConjunctiveQuery
from repro.hidden_db.ranking import (
    MeasureRanking,
    RankingFunction,
    RowIdRanking,
    StaticScoreRanking,
)
from repro.hidden_db.schema import Attribute, Schema
from repro.hidden_db.table import HiddenTable
from repro.hidden_db.versioning import TableDelta

__all__ = [
    "Attribute",
    "Schema",
    "ConjunctiveQuery",
    "HiddenTable",
    "TableDelta",
    "SelectionBackend",
    "NaiveScanBackend",
    "make_backend",
    "TopKInterface",
    "QueryOutcome",
    "QueryResult",
    "ReturnedTuple",
    "QueryCounter",
    "HiddenDBClient",
    "OnlineFormSimulator",
    "RankingFunction",
    "RowIdRanking",
    "StaticScoreRanking",
    "MeasureRanking",
    "CrawlResult",
    "crawl",
    "equi_width_edges",
    "equi_depth_edges",
    "bucketise",
    "bucket_labels",
    "promote_measure_to_attribute",
    "HiddenDBError",
    "SchemaError",
    "InvalidQueryError",
    "QueryLimitExceeded",
    "QueryRejected",
    "StaleResultError",
    "MutationError",
    "FlakyInterface",
    "TransientServerError",
]
