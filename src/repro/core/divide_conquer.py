"""Divide-&-conquer estimation over segmented query trees (Section 4.2).

The attribute order is cut into segments whose sub-domain size is at most
``D_UB`` (:mod:`repro.core.partition`).  Estimation proceeds recursively:
run ``r`` drill downs over the current segment; walks that land on
top-valid nodes contribute ``mass/p`` directly; walks that end on
*bottom-overflow* nodes (the segment is exhausted but the node still
overflows) recurse into the next segment.

Unbiasedness note (this is where we depart from a literal reading of the
paper's Eq. 9 in Section 4.2): each walk that ends on a bottom
overflow node ``b`` contributes ``S(b)/p_w(b)`` where ``p_w`` is *that
walk's* reaching probability and ``S(b)`` the recursive estimate — i.e. the
recursive estimate is weighted by the **actual** number of hits, not the
expected number.  With all hit counts equal to one this is exactly the
paper's Eq. 10 (``κ(q) = r·p(q)·κ(q_R)``); with repeated hits it remains
exactly unbiased:

    S(q_R) = (1/r) [ Σ_TV-walks mass(q)/p_w(q) + Σ_BO-walks S(b)/p_w(b) ]
    E[S(q_R)] = Σ_TV mass(q) + Σ_BO (true mass under b)   (induction)

Masses are small numpy vectors so a single pass can estimate several
aggregates at once (HD-UNBIASED-AGG's AVG needs SUM and COUNT from the same
walks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Sequence

import numpy as np

from repro.core.drilldown import Walker, WalkKind, drive_plan
from repro.hidden_db.interface import QueryResult
from repro.hidden_db.query import ConjunctiveQuery

__all__ = ["MassFunction", "TreeEstimate", "estimate_tree", "estimate_tree_plan"]

#: Maps a valid result page to the mass vector it contributes.
MassFunction = Callable[[QueryResult], np.ndarray]


@dataclass
class TreeEstimate:
    """Result of one recursive divide-&-conquer pass."""

    values: np.ndarray  # unbiased estimate per mass component
    walks: int = 0  # total drill downs across all subtrees
    subtrees: int = 0  # subtrees visited (1 without D&C)
    deepest_layer: int = 0  # 0-based index of the deepest segment reached


def estimate_tree(
    walker: Walker,
    root: ConjunctiveQuery,
    segments: Sequence[Sequence[int]],
    r: int,
    mass_fn: MassFunction,
    dims: int,
    alignment_component: int = 0,
) -> TreeEstimate:
    """Recursive divide-&-conquer estimate below the overflowing *root*.

    Parameters
    ----------
    walker:
        Drill-down engine (carries client, weights and RNG).
    root:
        A node already observed to overflow.
    segments:
        Attribute segments from :func:`repro.core.partition.segment_attributes`.
        A single segment disables divide-&-conquer.
    r:
        Drill downs per subtree (Section 5.1; ``r=1`` also disables D&C in
        the paper's sense — every subtree is entered at most once per pass).
    mass_fn:
        Maps valid result pages to mass vectors (length *dims*).
    dims:
        Mass dimensionality.
    alignment_component:
        Which mass component feeds the weight-adjustment history (COUNT for
        size estimation, SUM for sum estimation).
    """
    return drive_plan(
        walker.client,
        estimate_tree_plan(
            walker, root, segments, r, mass_fn, dims, alignment_component
        ),
    )


def estimate_tree_plan(
    walker: Walker,
    root: ConjunctiveQuery,
    segments: Sequence[Sequence[int]],
    r: int,
    mass_fn: MassFunction,
    dims: int,
    alignment_component: int = 0,
) -> Generator:
    """Probe plan of :func:`estimate_tree`; returns the ``TreeEstimate``."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    stats = TreeEstimate(values=np.zeros(dims))

    def subtree(node: ConjunctiveQuery, layer: int) -> Generator:
        if layer >= len(segments):
            raise RuntimeError(
                "a fully-specified query overflowed: the table violates the "
                "no-duplicate-tuples assumption"
            )
        stats.subtrees += 1
        stats.deepest_layer = max(stats.deepest_layer, layer)
        # One float per mass component: the IEEE double ops of length-dims
        # numpy arrays, without numpy's per-call cost on every walk.
        tv_total = [0.0] * dims
        bottom = {}
        for _ in range(r):
            walk = yield from walker.drill_down_plan(node, segments[layer])
            stats.walks += 1
            if walk.kind is WalkKind.TOP_VALID:
                mass = np.asarray(mass_fn(walk.result), dtype=float).tolist()
                for i, value in enumerate(mass):
                    tv_total[i] += value / walk.probability
                walker.weights.record_walk(
                    walk.steps, mass[alignment_component]
                )
            else:
                entry = bottom.setdefault(walk.query.key, _BottomEntry(walk.query))
                entry.sum_inverse_p += 1.0 / walk.probability
                entry.step_lists.append(walk.steps)
        bo_total = [0.0] * dims
        for entry in bottom.values():
            sub_estimate = yield from subtree(entry.query, layer + 1)
            for i, value in enumerate(sub_estimate):
                bo_total[i] += value * entry.sum_inverse_p
            for steps in entry.step_lists:
                walker.weights.record_walk(
                    steps, sub_estimate[alignment_component]
                )
        return [(tv + bo) / r for tv, bo in zip(tv_total, bo_total)]

    stats.values = np.array((yield from subtree(root, 0)))
    return stats


@dataclass
class _BottomEntry:
    query: ConjunctiveQuery
    sum_inverse_p: float = 0.0
    step_lists: List[list] = field(default_factory=list)
