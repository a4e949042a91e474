"""HIDDEN-DB-SAMPLER (Dasgupta, Das, Mannila, SIGMOD 2007) — Section 2.4.

The pre-existing sampler the paper compares against: a random drill down
*without* backtracking.  The walk restarts from the root whenever it hits an
underflowing node ("early termination"); on reaching a valid node it picks
one returned tuple at random and applies **rejection sampling** to
approximate uniformity — a tuple reached through a high-probability
(shallow, low-fanout) path must be rejected more often.

The exact acceptance probability needed for uniformity is proportional to
``Π fanouts(path) · |q|`` (the inverse of the tuple's selection
probability), normalised by an unknown constant.  The 2007 paper scales by
a tuned constant ``C``; like its practical variant we support an *adaptive*
scale (normalise by the largest inverse-probability seen so far), which
introduces exactly the kind of unknown bias the 2010 paper criticises —
that is the behaviour being reproduced, not a defect.

These samples feed :mod:`repro.baselines.capture_recapture`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


from repro.hidden_db.counters import HiddenDBClient
from repro.hidden_db.exceptions import QueryLimitExceeded
from repro.hidden_db.query import ConjunctiveQuery
from repro.utils.rng import RandomSource, spawn_rng

__all__ = ["Sample", "HiddenDBSampler"]


@dataclass(frozen=True)
class Sample:
    """One accepted sample tuple."""

    values: Tuple[int, ...]  # searchable attribute values (tuple identity)
    depth: int  # predicates in the valid query it came from
    inverse_probability: float  # Π fanouts(path) * |q| (un-normalised weight)
    cost_so_far: int  # cumulative charged queries when accepted


class HiddenDBSampler:
    """Random drill down with restarts and rejection sampling.

    Parameters
    ----------
    client:
        Client over the top-k form.
    scale:
        The constant ``C`` scaling acceptance probabilities
        (``accept = min(1, weight * scale)``).  ``None`` enables the
        adaptive variant: the scale shrinks whenever a larger weight is
        seen, so early samples are accepted too eagerly — a (deliberately
        reproduced) source of unknown bias.
    attribute_order:
        Drill order; decreasing fanout by default.
    max_restarts:
        Safety valve for one :meth:`sample` call.
    """

    def __init__(
        self,
        client: HiddenDBClient,
        scale: Optional[float] = None,
        attribute_order: Optional[Sequence[int]] = None,
        seed: RandomSource = None,
        max_restarts: int = 100_000,
    ) -> None:
        self.client = client
        self.rng = spawn_rng(seed)
        schema = client.schema
        if attribute_order is None:
            self.attribute_order = list(schema.decreasing_fanout_order())
        else:
            self.attribute_order = list(attribute_order)
        self.fixed_scale = scale
        self._adaptive_scale: Optional[float] = None
        self.max_restarts = max_restarts
        self.walks = 0
        self.restarts = 0
        self.rejections = 0

    # -- internals ---------------------------------------------------------

    def _walk_once(self) -> Optional[Tuple[Tuple[int, ...], int, float]]:
        """One drill down; returns (tuple values, depth, inverse prob) or
        None on early termination (underflow hit).

        The path's random values are drawn up front: the draws never
        depend on the probe answers (the walk has no backtracking — an
        underflow restarts it), so pre-drawing leaves the sample
        distribution unchanged while turning the whole path into one
        probe batch.  Only the prefix up to the first non-overflow answer
        is charged (``query_many``'s *until* contract), exactly like the
        level-at-a-time loop.
        """
        schema = self.client.schema
        self.walks += 1
        root = self.client.query(ConjunctiveQuery())
        if root.underflow:
            return None
        if root.valid:
            # Whole database fits one page; sample uniformly from it.
            chosen = root.tuples[int(self.rng.integers(root.num_returned))]
            return chosen.values, 0, float(root.num_returned)
        path: List[ConjunctiveQuery] = []
        fanouts: List[int] = []
        query = ConjunctiveQuery()
        for attr in self.attribute_order:
            fanout = schema[attr].domain_size
            query = query.extended(attr, int(self.rng.integers(fanout)))
            path.append(query)
            fanouts.append(fanout)
        results = self.client.query_many(
            path, count_only=False, until=lambda r: not r.overflow
        )
        inverse_probability = 1.0
        for depth, result in enumerate(results, start=1):
            inverse_probability *= fanouts[depth - 1]
            if result.underflow:
                self.restarts += 1
                return None
            if result.valid:
                chosen = result.tuples[int(self.rng.integers(result.num_returned))]
                return (
                    chosen.values,
                    depth,
                    inverse_probability * result.num_returned,
                )
        raise RuntimeError(
            "fully-specified query overflowed; table has duplicate tuples"
        )

    def _acceptance(self, weight: float) -> float:
        if self.fixed_scale is not None:
            return min(1.0, weight * self.fixed_scale)
        if self._adaptive_scale is None or weight > 1.0 / self._adaptive_scale:
            # Renormalise against the largest weight seen (bias source!).
            self._adaptive_scale = 1.0 / weight
        return min(1.0, weight * self._adaptive_scale)

    # -- public API ----------------------------------------------------------

    def sample(self) -> Sample:
        """Draw one (approximately uniform) sample tuple.

        Raises :class:`QueryLimitExceeded` if the interface budget dies
        first, ``RuntimeError`` if *max_restarts* walks all terminate early.
        """
        for _ in range(self.max_restarts):
            outcome = self._walk_once()
            if outcome is None:
                continue
            values, depth, weight = outcome
            if self.rng.random() <= self._acceptance(weight):
                return Sample(
                    values=values,
                    depth=depth,
                    inverse_probability=weight,
                    cost_so_far=self.client.cost,
                )
            self.rejections += 1
        raise RuntimeError(
            f"no sample accepted within {self.max_restarts} walks"
        )

    def collect(
        self,
        count: Optional[int] = None,
        query_budget: Optional[int] = None,
    ) -> List[Sample]:
        """Collect samples until a count or a query budget is reached."""
        if count is None and query_budget is None:
            raise ValueError("specify count and/or query_budget")
        start = self.client.cost
        samples: List[Sample] = []
        while True:
            if count is not None and len(samples) >= count:
                break
            if query_budget is not None and self.client.cost - start >= query_budget:
                break
            try:
                samples.append(self.sample())
            except QueryLimitExceeded:
                break
        return samples
