"""Random drill down with backtracking — the engine of Section 3.

One *walk* starts from a known-overflowing node and repeatedly specialises
one more attribute until it lands on a **valid** node (a *top-valid* node:
valid with an overflowing parent) or exhausts the attribute list while the
landing still overflows (a *bottom-overflow* node — only meaningful inside
a divide-&-conquer segment).

At each level the walker:

1. draws an initial branch from the pick distribution (uniform without
   weight adjustment, Section 3; pilot-adjusted with it, Section 4.1);
2. if the branch underflows, probes right-neighbours circularly until a
   non-underflowing branch is found — *smart backtracking* (Section 3.2);
3. determines the **landing probability**: the chance that step 1+2 would
   land exactly here, i.e. the summed pick probability of the landed branch
   plus its maximal run of consecutive underflowing predecessors (the
   paper's ``(w_U(j)+1)/w`` in the uniform case).  Learning the run length
   may require probing left-neighbours.

The walker exploits the two paper-noted query savings:

* **Boolean backtracking is free** — if the picked branch of a fanout-2
  level underflows, the sibling of an overflowing parent must overflow,
  so it is followed without being issued (landing probability 1);
* **the final Boolean level is free** — when a fanout-2 branch lands valid,
  its sibling cannot be empty (the parent overflows and the landed branch
  holds at most k of its more-than-k tuples), so Scenario I is known
  without a probe.

``p(q)``, the product of landing probabilities, is *exactly* the
probability that this walk reaches ``q`` — the Horvitz–Thompson weight that
makes ``mass(q)/p(q)`` unbiased (Theorem 1).

Probe plans
-----------
The walk logic is written once, as *probe-plan generators*: instead of
calling the client directly, :meth:`Walker.drill_down_plan` yields
:class:`Probe` / :class:`ProbeWindow` requests and receives the result
pages back through ``send``.  :func:`drive_plan` is the sequential driver —
it answers every request immediately through :meth:`HiddenDBClient.query` /
:meth:`~HiddenDBClient.query_many`, so the driven walk is *by construction*
bit-identical to the pre-plan inline code (same probes, same order, same
charges, same cache state).  The cohort engine
(:mod:`repro.core.cohort`) drives many rounds' plans level-synchronously
instead, answering whole waves of requests with fused backend passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.interface import QueryResult
from repro.hidden_db.query import ConjunctiveQuery

__all__ = [
    "Probe",
    "ProbeWindow",
    "drive_plan",
    "WalkStep",
    "WalkKind",
    "WalkOutcome",
    "Walker",
]


class Probe:
    """One probe request yielded by a plan; answered with a ``QueryResult``.

    Semantically ``client.query(query, count_only=count_only)``.
    """

    __slots__ = ("query", "count_only")

    def __init__(self, query: ConjunctiveQuery, count_only: bool = True) -> None:
        self.query = query
        self.count_only = count_only

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Probe({self.query!r}, count_only={self.count_only})"


class ProbeWindow:
    """A probe-batch request; answered with the consumed result prefix.

    Semantically ``client.query_many(queries, count_only=count_only,
    until=until)`` — the response list stops at the first result for which
    *until* is true, exactly like the smart-backtracking early exit.
    """

    __slots__ = ("queries", "until", "count_only")

    def __init__(self, queries, until=None, count_only: bool = True) -> None:
        self.queries = queries
        self.until = until
        self.count_only = count_only

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProbeWindow({len(self.queries)} queries)"


def drive_plan(client: HiddenDBClient, plan: Generator):
    """Run a probe plan to completion against *client*; return its value.

    The sequential execution mode: every yielded request is answered
    immediately through the client, so charges, cache state and early
    exits are exactly those of the equivalent inline query loop.
    """
    response = None
    try:
        while True:
            request = plan.send(response)
            if request.__class__ is ProbeWindow:
                response = client.query_many(
                    request.queries,
                    count_only=request.count_only,
                    until=request.until,
                )
            else:
                response = client.query(
                    request.query, count_only=request.count_only
                )
    except StopIteration as stop:
        return stop.value


class WalkKind(enum.Enum):
    """How a drill down terminated."""

    TOP_VALID = "top_valid"
    BOTTOM_OVERFLOW = "bottom_overflow"


@dataclass(slots=True)
class WalkStep:
    """One level of a drill down: the choice made and its probability.

    A plain (non-frozen) slotted dataclass: tens of thousands are built per
    session and the frozen ``object.__setattr__`` init costs real time.
    """

    node_key: frozenset  # canonical key of the node where the choice happened
    attr: int
    fanout: int
    value: int  # landed branch
    probability: float  # exact landing probability of this branch


@dataclass(slots=True)
class WalkOutcome:
    """Terminal state of one drill down."""

    kind: WalkKind
    query: ConjunctiveQuery
    result: Optional[QueryResult]  # page of the terminal node (None when inferred)
    probability: float  # p(q): product of landing probabilities
    steps: List[WalkStep]

    @property
    def depth(self) -> int:
        """Number of levels walked."""
        return len(self.steps)


@dataclass(slots=True)
class _Landing:
    value: int
    query: ConjunctiveQuery
    result: Optional[QueryResult]
    probability: float
    valid: bool  # landed on a valid (terminal) node


class Walker:
    """Performs drill downs for an estimator.

    Parameters
    ----------
    client:
        The (caching) client over the top-k form.
    weights:
        Branch-pick policy — :class:`~repro.core.weights.UniformWeights`
        for the plain paper walk or a
        :class:`~repro.core.weights.WeightStore` for weight adjustment.
        The walker reports discovered underflows to it either way.
    rng:
        Random generator driving the picks.
    """

    def __init__(
        self,
        client: HiddenDBClient,
        weights,
        rng: np.random.Generator,
    ) -> None:
        self.client = client
        self.weights = weights
        self.rng = rng
        self.schema = client.schema
        # WeightStore hands small-fanout distributions out as plain lists
        # (same entries, no array round-trip); other policies fall back to
        # the array-returning method.
        self._pick_weights = getattr(
            weights, "branch_pick_weights", weights.branch_distribution
        )
        self.walks_performed = 0
        #: Optional ``(parent key, attr, value) -> query`` table, installed
        #: by a cohort so walks share child-query construction.  Queries are
        #: immutable value objects, so a shared instance is pure compute
        #: sharing — no observable state crosses rounds (see
        #: :mod:`repro.core.cohort`).
        self.interner: Optional[dict] = None

    # -- public API ------------------------------------------------------

    def drill_down(
        self,
        root: ConjunctiveQuery,
        attributes: Sequence[int],
    ) -> WalkOutcome:
        """One random drill down from *root* through *attributes*.

        *root* must be overflowing (the caller has observed its page or, in
        recursion, inherited the knowledge from a bottom-overflow landing).
        """
        return drive_plan(self.client, self.drill_down_plan(root, attributes))

    def drill_down_plan(
        self,
        root: ConjunctiveQuery,
        attributes: Sequence[int],
    ) -> Generator:
        """Probe plan of one drill down; returns the :class:`WalkOutcome`."""
        if not attributes:
            raise ValueError("drill_down needs at least one attribute level")
        self.walks_performed += 1
        node = root
        probability = 1.0
        steps: List[WalkStep] = []
        landing: Optional[_Landing] = None
        for attr in attributes:
            landing = yield from self._choose_branch_plan(node, attr)
            probability *= landing.probability
            steps.append(
                WalkStep(
                    node_key=node.key,
                    attr=attr,
                    fanout=self.schema[attr].domain_size,
                    value=landing.value,
                    probability=landing.probability,
                )
            )
            node = landing.query
            if landing.valid:
                return WalkOutcome(
                    WalkKind.TOP_VALID, node, landing.result, probability, steps
                )
        return WalkOutcome(
            WalkKind.BOTTOM_OVERFLOW, node, landing.result, probability, steps
        )

    # -- one level --------------------------------------------------------

    def _child(
        self, node: ConjunctiveQuery, attr: int, value: int
    ) -> ConjunctiveQuery:
        """``node.extended(attr, value)``, interned when a cohort shares it."""
        interner = self.interner
        if interner is None:
            return node.extended(attr, value)
        key = (node._key, attr, value)
        query = interner.get(key)
        if query is None:
            query = node.extended(attr, value)
            interner[key] = query
        return query

    def _choose_branch_plan(
        self, node: ConjunctiveQuery, attr: int
    ) -> Generator:
        """Pick, smart-backtrack and price one level below *node*.

        *node* is known to overflow, so at least one branch is non-empty.
        The right walk and the left walk each probe their first branch
        singly and, only when that branch underflows, batch the rest of
        the circle as one :class:`ProbeWindow` whose ``until`` predicate
        reproduces the walk's early exit.  The consumed probes — and
        therefore every charge and cache entry — are exactly those a
        probe-at-a-time walk issues, in the same order; the backend just
        classifies each window in one vectorised pass.  At fanout 2 the
        rest of the circle is the sibling alone, which the two Boolean
        shortcuts below settle without a window.
        """
        fanout = self.schema[attr].domain_size
        # A plain list for small fanouts under a WeightStore, a numpy array
        # otherwise — every use below (scalar indexing, iteration) treats
        # the two identically.
        dist = self._pick_weights(node.key, attr, fanout)
        # Inverse-CDF sampling: the exact arithmetic Generator.choice
        # performs for a weighted scalar draw, so the picked branch and the
        # RNG stream advance bit-identically without choice()'s validation
        # and shuffle machinery.  cumsum is sequential by definition, each
        # cdf entry is the same division, and searchsorted(u, side="right")
        # is the first index whose normalised prefix exceeds u.
        u = self.rng.random()
        values = dist if type(dist) is list else dist.tolist()
        total = 0.0
        for v in values:
            total += v
        prefix = 0.0
        start = fanout - 1
        for i, v in enumerate(values):
            prefix += v
            if prefix / total > u:
                start = i
                break

        weights = self.weights
        child = self._child
        # Right walk: probe the initial pick; on underflow, walk right
        # (circularly) to the first non-underflowing sibling.
        value = start
        query = child(node, attr, value)
        result = yield Probe(query)
        if result.underflow:
            weights.mark_empty(node.key, attr, fanout, start)
            if fanout == 2:
                # Boolean shortcut: the sibling of an underflowing child of
                # an overflowing parent must overflow — follow it unissued.
                value = 1 - start
                return _Landing(
                    value=value,
                    query=child(node, attr, value),
                    result=None,
                    probability=1.0,  # both branches lead here
                    valid=False,
                )
            window = [(start + i) % fanout for i in range(1, fanout)]
            siblings = [child(node, attr, v) for v in window]
            batch = yield ProbeWindow(siblings, until=_landed_somewhere)
            for v, sibling_result in zip(window, batch):
                if sibling_result.underflow:
                    weights.mark_empty(node.key, attr, fanout, v)
            result = batch[-1]
            if result.underflow:
                raise RuntimeError(
                    f"all {fanout} branches of {node!r} on attribute {attr} "
                    "underflow although the node overflows - inconsistent table"
                )
            landed = len(batch) - 1
            value = window[landed]
            query = siblings[landed]
        valid = result.valid

        # Landing probability = pick probability of the landed branch plus
        # that of its maximal run of consecutive underflowing predecessors.
        if fanout == 2 and valid:
            # Final-level Boolean shortcut: the sibling cannot be empty
            # (parent has > k tuples, this branch holds <= k), so the
            # window is just the landed branch - no probe needed.
            return _Landing(value, query, result, float(dist[value]), valid)
        # Left walk.  The first predecessor is probed singly — in the
        # common case it does not underflow and the walk ends after one
        # probe, costing no batch machinery; only when a run actually
        # starts is the rest of the circle batched.
        probability = float(dist[value])
        first = (value - 1) % fanout
        pred_result = yield Probe(child(node, attr, first))
        if pred_result.underflow:
            weights.mark_empty(node.key, attr, fanout, first)
            if fanout == 2:
                # Full circle: the sibling is empty; landing here was certain.
                return _Landing(value, query, result, 1.0, valid)
            probability += float(dist[first])
            rest = [(value - 2 - i) % fanout for i in range(fanout - 2)]
            candidates = [child(node, attr, p) for p in rest]
            batch = yield ProbeWindow(candidates, until=_landed_somewhere)
            for p, rest_result in zip(rest, batch):
                if rest_result.underflow:
                    weights.mark_empty(node.key, attr, fanout, p)
                    probability += float(dist[p])
            if batch[-1].underflow:
                # Full circle: every other branch underflows; landing here
                # was certain.
                probability = 1.0
        return _Landing(value, query, result, probability, valid)


def _landed_somewhere(result: QueryResult) -> bool:
    """``until`` predicate of a probe window: stop at non-underflow."""
    return not result.underflow
