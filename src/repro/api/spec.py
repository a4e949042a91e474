"""Declarative estimation requests: the :class:`EstimationSpec` tree.

A spec says *what* to estimate (:class:`AggregateSpec`), *against what*
(:class:`TargetSpec` — a built-in dataset or a generated federation, plus
the interface parameters and an optional churn workload) and *under what
regime* (:class:`RegimeSpec` — rounds / query budget / target precision,
seed, workers — plus the :class:`MethodSpec` estimator knobs).  Specs are
frozen, eagerly validated at construction, and round-trip through JSON
bit-identically (:meth:`EstimationSpec.to_json` is canonical: sorted keys,
every field serialized).

The spec resolves to one of four *modes* — the four estimation regimes
this codebase grew across PRs 1-3, now behind one front door:

``static``
    A fixed number of HD-UNBIASED rounds against one database.
``budgeted``
    Rounds until a query budget and/or a CI-precision target is hit.
``tracking``
    A churning database followed across epochs (reissue / restart).
``federated``
    Many sources under one global budget and an allocation policy.

Example::

    spec = EstimationSpec(
        target=TargetSpec(dataset=DatasetSpec(name="yahoo", m=20_000)),
        regime=RegimeSpec(rounds=25, seed=7),
    )
    spec == EstimationSpec.from_json(spec.to_json())   # always True
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "DatasetSpec",
    "FederationSpec",
    "ChurnSpec",
    "TargetSpec",
    "AggregateSpec",
    "RegimeSpec",
    "MethodSpec",
    "EstimationSpec",
]

#: Bumped whenever the serialized layout changes incompatibly.
SPEC_SCHEMA_VERSION = 1

DATASET_NAMES = ("iid", "mixed", "yahoo", "custom")
AGGREGATE_KINDS = ("size", "count", "sum", "avg")
TRACK_POLICIES = ("reissue", "restart")
MODES = ("static", "budgeted", "tracking", "federated")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class DatasetSpec:
    """A built-in single-database workload.

    ``name`` is one of the generators the CLI has always offered
    (``"iid"``, ``"mixed"``, ``"yahoo"``) or ``"custom"``, which cannot
    be built from the spec alone — it marks a spec whose table is
    injected at run time (``Estimation(spec, table=...)``).
    """

    name: str = "yahoo"
    m: int = 20_000
    seed: int = 0

    def __post_init__(self) -> None:
        _require(
            self.name in DATASET_NAMES,
            f"unknown dataset {self.name!r}; expected one of {DATASET_NAMES}",
        )
        _require(self.m >= 1, f"dataset m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class FederationSpec:
    """A seeded heterogeneous federation fixture.

    Mirrors :func:`repro.datasets.federation.heterogeneous_federation`:
    one big skewed source plus ``sources - 1`` smaller tame ones, with
    *overlap* of every source cross-listed from a shared universe.
    """

    sources: int = 3
    base_m: int = 1_000
    overlap: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(
            self.sources >= 2,
            f"a federation needs >= 2 sources, got {self.sources}",
        )
        _require(self.base_m >= 1, f"base_m must be >= 1, got {self.base_m}")
        _require(
            0.0 <= self.overlap <= 1.0,
            f"overlap must lie in [0, 1], got {self.overlap}",
        )


@dataclass(frozen=True)
class ChurnSpec:
    """A seeded per-epoch mutation workload (turns the target dynamic)."""

    epochs: int = 5
    rate: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}")
        _require(
            self.rate >= 0.0,
            f"churn rate must be non-negative, got {self.rate}",
        )


@dataclass(frozen=True)
class TargetSpec:
    """What the estimation runs against.

    Exactly one of *dataset* / *federation* must be given.  *k* is the
    simulated form's page size (per-source for federations); *churn*
    makes a dataset target dynamic (tracking mode).
    """

    dataset: Optional[DatasetSpec] = None
    federation: Optional[FederationSpec] = None
    k: int = 100
    churn: Optional[ChurnSpec] = None

    def __post_init__(self) -> None:
        _require(
            (self.dataset is None) != (self.federation is None),
            "a target needs exactly one of dataset / federation",
        )
        _require(self.k >= 1, f"k must be >= 1, got {self.k}")
        _require(
            self.churn is None or self.dataset is not None,
            "churn tracking applies to dataset targets only (give each "
            "federated source its own churn instead)",
        )


@dataclass(frozen=True)
class AggregateSpec:
    """What statistic to estimate.

    ``size`` is COUNT(*) of the whole database; ``count`` is COUNT(*)
    under *condition*; ``sum`` / ``avg`` aggregate *measure* (AVG is the
    paper's biased-but-consistent ratio estimator and is refused by the
    tracking and federated modes, which have no unbiased version of it).
    *condition* maps attribute names to values (ints) or labels (strings),
    e.g. ``{"MAKE": "Toyota"}``.
    """

    kind: str = "size"
    measure: Optional[str] = None
    condition: Optional[Dict[str, Union[int, str]]] = None

    def __post_init__(self) -> None:
        _require(
            self.kind in AGGREGATE_KINDS,
            f"unknown aggregate {self.kind!r}; expected one of "
            f"{AGGREGATE_KINDS}",
        )
        if self.kind in ("sum", "avg"):
            _require(
                self.measure is not None,
                f"aggregate {self.kind!r} needs a measure name",
            )
        else:
            _require(
                self.measure is None,
                f"aggregate {self.kind!r} takes no measure "
                f"(got {self.measure!r})",
            )
        if self.condition is not None:
            _require(
                isinstance(self.condition, Mapping) and len(self.condition) > 0,
                "condition must be a non-empty attribute -> value mapping",
            )
            # Freeze a defensive copy so a caller mutating their dict
            # afterwards cannot alter the (frozen) spec.
            object.__setattr__(self, "condition", dict(self.condition))


@dataclass(frozen=True)
class RegimeSpec:
    """How to spend queries, and the session seed / fan-out.

    At most one *target_precision*; *rounds* and *query_budget* compose
    (whichever stop fires first).  ``workers > 1`` fans rounds out over
    a :class:`~repro.core.engine.ParallelSession` (results are
    worker-count invariant); *target_precision* is an adaptive sequential
    stop and refuses ``workers > 1``.  *executor* picks the pool flavour
    (``"thread"`` or ``"process"`` — shared-memory workers); results are
    executor-invariant too, so it is purely a wall-clock knob.
    """

    rounds: Optional[int] = None
    query_budget: Optional[float] = None
    target_precision: Optional[float] = None
    seed: int = 0
    workers: int = 1
    executor: str = "thread"

    def __post_init__(self) -> None:
        _require(
            self.executor in ("thread", "process"),
            f"executor must be 'thread' or 'process', got {self.executor!r}",
        )
        _require(
            self.rounds is None or self.rounds >= 1,
            f"rounds must be >= 1, got {self.rounds}",
        )
        _require(
            self.query_budget is None or self.query_budget >= 1,
            f"query_budget must be >= 1, got {self.query_budget}",
        )
        _require(
            self.target_precision is None or self.target_precision > 0,
            f"target_precision must be positive, got {self.target_precision}",
        )
        _require(self.workers >= 1, f"workers must be >= 1, got {self.workers}")
        _require(
            self.target_precision is None or self.workers == 1,
            "target_precision is an adaptive sequential stop; it does not "
            "compose with workers > 1",
        )


@dataclass(frozen=True)
class MethodSpec:
    """Estimator-level knobs.

    ``r`` / ``dub`` / ``weight_adjustment`` are the HD-UNBIASED
    parameters; ``None`` means the mode's default (4 / 32 / on for
    static and budgeted runs; the plain single-drill-down walk for
    tracking, matching :func:`repro.core.dynamic.track`).  Federated
    specs refuse them — each :class:`FederatedSource` carries its own.
    *policy* names the tracking policy (``reissue`` / ``restart``) or the
    federated allocation policy (``uniform`` / ``cost_weighted`` /
    ``neyman``); the remaining knobs are mode-specific.
    """

    r: Optional[int] = None
    dub: Optional[int] = None
    weight_adjustment: Optional[bool] = None
    policy: Optional[str] = None
    pilot_rounds: Optional[int] = None
    reissue_per_epoch: Optional[int] = None
    epoch_query_budget: Optional[int] = None

    def __post_init__(self) -> None:
        _require(self.r is None or self.r >= 1, f"r must be >= 1, got {self.r}")
        _require(
            self.dub is None or self.dub >= 1,
            f"dub must be >= 1, got {self.dub}",
        )
        _require(
            self.pilot_rounds is None or self.pilot_rounds >= 2,
            f"pilot_rounds must be >= 2, got {self.pilot_rounds}",
        )
        _require(
            self.reissue_per_epoch is None or self.reissue_per_epoch >= 1,
            f"reissue_per_epoch must be >= 1, got {self.reissue_per_epoch}",
        )
        _require(
            self.epoch_query_budget is None or self.epoch_query_budget >= 1,
            f"epoch_query_budget must be >= 1, got {self.epoch_query_budget}",
        )


@dataclass(frozen=True)
class EstimationSpec:
    """One declarative, serializable estimation request.

    Validation is eager (construction raises on any inconsistent
    combination) and cross-field: the resolved :attr:`mode` constrains
    which regime/method knobs are meaningful.
    """

    target: TargetSpec
    aggregate: AggregateSpec = field(default_factory=AggregateSpec)
    regime: RegimeSpec = field(default_factory=RegimeSpec)
    method: MethodSpec = field(default_factory=MethodSpec)

    # -- mode resolution ---------------------------------------------------

    @property
    def mode(self) -> str:
        """The estimation regime this spec compiles to."""
        if self.target.federation is not None:
            return "federated"
        if self.target.churn is not None:
            return "tracking"
        if (
            self.regime.query_budget is not None
            or self.regime.target_precision is not None
        ):
            return "budgeted"
        return "static"

    def __post_init__(self) -> None:
        mode = self.mode
        regime, method, aggregate = self.regime, self.method, self.aggregate
        if mode == "federated":
            _require(
                regime.query_budget is not None,
                "a federated run needs regime.query_budget (the global "
                "budget the allocation policy splits)",
            )
            _require(
                regime.rounds is None and regime.target_precision is None,
                "federated runs are budget-driven; rounds / "
                "target_precision do not apply",
            )
            _require(
                aggregate.kind != "avg",
                "AVG does not combine unbiasedly across sources; federate "
                "SUM and COUNT instead",
            )
            _require(
                aggregate.condition is None,
                "federated estimation does not support a selection "
                "condition (the federated estimators aggregate whole "
                "sources); estimate per source instead",
            )
            _require(
                method.r is None
                and method.dub is None
                and method.weight_adjustment is None,
                "r/dub/weight_adjustment are per-source "
                "properties of a federation (each FederatedSource carries "
                "its own); they cannot be set on a federated spec",
            )
            if method.policy is not None:
                from repro.federation.policies import available_policies

                _require(
                    method.policy in available_policies(),
                    f"unknown allocation policy {method.policy!r}; expected "
                    f"one of {sorted(available_policies())}",
                )
        else:
            _require(
                method.pilot_rounds is None,
                "pilot_rounds applies to federated runs only",
            )
        if mode == "tracking":
            _require(
                regime.query_budget is None and regime.target_precision is None,
                "tracking sessions take a per-epoch cap "
                "(method.epoch_query_budget), not a global query_budget / "
                "target_precision",
            )
            _require(
                aggregate.kind != "avg",
                "AVG has no unbiased estimator to track; track SUM and "
                "COUNT instead",
            )
            _require(
                method.policy is None or method.policy in TRACK_POLICIES,
                f"unknown tracking policy {method.policy!r}; expected one "
                f"of {TRACK_POLICIES}",
            )
            if (method.policy or "reissue") == "restart":
                _require(
                    method.reissue_per_epoch is None
                    and method.epoch_query_budget is None,
                    "reissue_per_epoch/epoch_query_budget only apply to the "
                    "reissue policy",
                )
        else:
            _require(
                method.reissue_per_epoch is None
                and method.epoch_query_budget is None,
                "reissue_per_epoch/epoch_query_budget apply to tracking "
                "runs only",
            )
        if mode in ("static", "budgeted"):
            _require(
                method.policy is None,
                f"a {mode} run takes no policy (got {method.policy!r})",
            )

    # -- derivation --------------------------------------------------------

    def with_seed(self, seed: int) -> "EstimationSpec":
        """This spec with a different session seed (replication helper)."""
        return dataclasses.replace(
            self, regime=dataclasses.replace(self.regime, seed=int(seed))
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (every field explicit — the schema is visible)."""
        payload = dataclasses.asdict(self)
        payload["schema_version"] = SPEC_SCHEMA_VERSION
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys — byte-stable for equal specs)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EstimationSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_dict` output.

        Unknown keys raise — a spec is a request contract, and silently
        dropping a field the caller thought they set is how drift hides.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"spec payload must be a mapping, got {type(payload).__name__}"
            )
        payload = dict(payload)
        version = payload.pop("schema_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported spec schema_version {version!r} "
                f"(this build reads version {SPEC_SCHEMA_VERSION})"
            )
        sections = {
            "target": (TargetSpec, True),
            "aggregate": (AggregateSpec, False),
            "regime": (RegimeSpec, False),
            "method": (MethodSpec, False),
        }
        unknown = set(payload) - set(sections)
        if unknown:
            raise ValueError(f"unknown spec section(s): {sorted(unknown)}")
        kwargs: Dict[str, Any] = {}
        for name, (section_cls, required) in sections.items():
            # An explicit null section means "absent": defaults for the
            # optional sections, a clean error for the required target.
            if payload.get(name) is None:
                if required:
                    raise ValueError(f"spec payload is missing {name!r}")
                continue
            kwargs[name] = _section_from_dict(section_cls, payload[name], name)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "EstimationSpec":
        """Rebuild (and re-validate) a spec from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(payload)


#: Nested dataclass fields inside the sections (sub-section name -> class).
_NESTED = {
    "dataset": DatasetSpec,
    "federation": FederationSpec,
    "churn": ChurnSpec,
}


def _section_from_dict(section_cls, payload: Any, name: str):
    """One spec section from its dict form, rejecting unknown keys."""
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"spec section {name!r} must be a mapping, got "
            f"{type(payload).__name__}"
        )
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"unknown key(s) in spec section {name!r}: {sorted(unknown)}"
        )
    kwargs: Dict[str, Any] = {}
    for key, value in payload.items():
        if key in _NESTED and value is not None:
            value = _section_from_dict(_NESTED[key], value, f"{name}.{key}")
        kwargs[key] = value
    return section_cls(**kwargs)
