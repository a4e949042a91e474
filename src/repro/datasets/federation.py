"""Seeded multi-source workloads for federated estimation.

A federation fixture is a set of Boolean sources that differ in the three
dimensions the allocation policies react to:

* **size** — per-source tuple counts (a huge marketplace next to niche
  verticals);
* **skew** — per-source attribute-density profiles (a skew of 0 is the
  paper's Bool-iid; a skew of 1 the Bool-mixed-style ramp) — skew drives
  per-round estimate variance;
* **interface** — per-source ``k`` and ``cost_per_query`` — they drive
  per-round cost.

Universes can be **disjoint** (every source drawn independently) or
**overlapping** (a fraction of every source sampled from one shared
duplicate-free universe, modelling cross-listed inventory).  Everything
is driven by one seed, so a fixture replays identically across
replications and worker counts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.datasets.churn import ChurnGenerator
from repro.datasets.synthetic import boolean_table
from repro.federation.target import FederatedSource, FederatedTarget
from repro.hidden_db.schema import Attribute, Schema
from repro.hidden_db.table import HiddenTable
from repro.utils.rng import RandomSource, spawn_rng

__all__ = [
    "skewed_probabilities",
    "federated_sources",
    "heterogeneous_federation",
]


def skewed_probabilities(n_attrs: int, skew: float) -> np.ndarray:
    """Per-attribute densities interpolating Bool-iid → Bool-mixed.

    ``skew=0`` gives every attribute p = 0.5 (the paper's Bool-iid);
    ``skew=1`` keeps a quarter of the attributes uniform (entropy so a
    duplicate-free table stays drawable — the same trick as Bool-mixed's
    five uniform attributes) and ramps the rest from 1/(2n) up to 0.5.
    Intermediate skews blend linearly.  Skewed sources produce higher
    drill-down variance, which is exactly the signal the ``neyman``
    policy allocates on.
    """
    if not 0.0 <= skew <= 1.0:
        raise ValueError(f"skew must lie in [0, 1], got {skew}")
    if n_attrs < 1:
        raise ValueError(f"n_attrs must be >= 1, got {n_attrs}")
    uniform_block = max(1, n_attrs // 4)
    ramped = n_attrs - uniform_block
    ramp = np.full(n_attrs, 0.5)
    if ramped:
        ramp[uniform_block:] = (np.arange(ramped, dtype=float) + 1.0) / (
            2.0 * ramped
        )
    return (1.0 - skew) * np.full(n_attrs, 0.5) + skew * ramp


def _overlap_universe(
    n_attrs: int, rows: int, seed: RandomSource
) -> np.ndarray:
    """A duplicate-free pool of Boolean rows sources can cross-list from."""
    rng = spawn_rng(seed)
    # Oversample then dedup: the p=0.5 universe is sparse enough that a
    # modest oversample always survives deduplication at fixture scales.
    raw = (rng.random((rows * 2 + 64, n_attrs)) < 0.5).astype(np.int8)
    unique = np.unique(raw, axis=0)
    if unique.shape[0] < rows:
        raise ValueError(
            f"cannot build a {rows}-row shared universe over {n_attrs} "
            f"attributes; use more attributes or a smaller overlap"
        )
    order = rng.permutation(unique.shape[0])[:rows]
    return unique[order]


def federated_sources(
    sizes: Sequence[int],
    n_attrs: int = 12,
    ks: Optional[Sequence[int]] = None,
    skews: Optional[Sequence[float]] = None,
    costs_per_query: Optional[Sequence[float]] = None,
    overlap: float = 0.0,
    churn_rates: Optional[Sequence[float]] = None,
    seed: RandomSource = None,
    name: str = "federation",
) -> FederatedTarget:
    """Build a seeded heterogeneous federation.

    Parameters
    ----------
    sizes:
        Live tuple count per source (one source per entry).
    n_attrs:
        Boolean attributes per source (all sources share the schema shape
        so overlapping universes are well-defined).
    ks / skews / costs_per_query:
        Per-source page size, density skew (see
        :func:`skewed_probabilities`) and query price; defaults 50 / 0.0 /
        1.0 everywhere.
    overlap:
        Fraction of every source's tuples drawn from one shared
        duplicate-free universe (0 = fully disjoint sources).  Shared rows
        model cross-listed inventory; per-source tables stay
        duplicate-free either way.
    churn_rates:
        Optional per-epoch churn rate per source (``None`` or 0 = static);
        churning sources carry a seeded
        :class:`~repro.datasets.churn.ChurnGenerator` stepped by
        :meth:`FederatedTarget.advance_epoch`.
    seed:
        Drives every table, overlap draw and churn stream.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one source size")
    count = len(sizes)

    def _per_source(values, default, label):
        if values is None:
            return [default] * count
        values = list(values)
        if len(values) != count:
            raise ValueError(
                f"{label} needs one entry per source ({count}), got "
                f"{len(values)}"
            )
        return values

    ks = _per_source(ks, 50, "ks")
    skews = _per_source(skews, 0.0, "skews")
    costs = _per_source(costs_per_query, 1.0, "costs_per_query")
    churns = _per_source(churn_rates, 0.0, "churn_rates")
    if not 0.0 <= overlap < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {overlap}")

    rng = spawn_rng(seed)
    shared_rows: Optional[np.ndarray] = None
    if overlap > 0.0:
        pool = max(int(round(max(sizes) * overlap)) * 2, 8)
        shared_rows = _overlap_universe(
            n_attrs, pool, int(rng.integers(0, 2**63 - 1))
        )

    sources: List[FederatedSource] = []
    for i, (m, k, skew, cost, churn_rate) in enumerate(
        zip(sizes, ks, skews, costs, churns)
    ):
        table_seed = int(rng.integers(0, 2**63 - 1))
        probs = skewed_probabilities(n_attrs, skew)
        if shared_rows is None or overlap == 0.0:
            table = boolean_table(m, probs, seed=table_seed)
        else:
            table = _overlapping_table(
                m, probs, shared_rows, overlap, table_seed
            )
        churn = None
        if churn_rate:
            churn = ChurnGenerator(
                table,
                rate=float(churn_rate),
                seed=int(rng.integers(0, 2**63 - 1)),
            )
        sources.append(
            FederatedSource(
                name=f"source_{i:02d}",
                table=table,
                k=int(k),
                cost_per_query=float(cost),
                churn=churn,
            )
        )
    return FederatedTarget(sources, name=name)


def _overlapping_table(
    m: int,
    probabilities: np.ndarray,
    shared_rows: np.ndarray,
    overlap: float,
    seed: int,
) -> HiddenTable:
    """One source table drawing ``overlap·m`` rows from the shared pool.

    The private remainder is generated from the source's own skew profile
    and deduplicated against the shared part, so the table stays
    duplicate-free (the paper's Section 2.1 model).
    """
    rng = spawn_rng(seed)
    n_shared = min(int(round(m * overlap)), shared_rows.shape[0])
    picked = shared_rows[rng.permutation(shared_rows.shape[0])[:n_shared]]
    private = boolean_table(
        m, probabilities, seed=int(rng.integers(0, 2**63 - 1))
    )
    private_rows = private._data
    if n_shared:
        keys = {row.tobytes() for row in picked}
        keep = np.array(
            [row.tobytes() not in keys for row in private_rows], dtype=bool
        )
        private_rows = private_rows[keep][: m - n_shared]
        if private_rows.shape[0] < m - n_shared:
            raise ValueError(
                "could not fill the private remainder without duplicates; "
                "lower overlap or use more attributes"
            )
        data = np.vstack([picked, private_rows])
    else:
        data = private_rows[:m]
    schema = Schema(
        [Attribute(f"A{j+1}", 2) for j in range(data.shape[1])],
        measure_names=("VALUE",),
    )
    value = spawn_rng(int(rng.integers(0, 2**63 - 1))).lognormal(
        mean=3.0, sigma=0.5, size=data.shape[0]
    )
    return HiddenTable(
        schema, data.astype(np.int8), {"VALUE": value}, check_duplicates=True
    )


def heterogeneous_federation(
    num_sources: int = 3,
    base_m: int = 1_000,
    n_attrs: int = 14,
    k: int = 50,
    overlap: float = 0.0,
    seed: RandomSource = None,
) -> FederatedTarget:
    """The standard benchmark fixture: one big skewed source, smaller tame ones.

    Source 0 is ``num_sources×`` the base size with full skew and a
    restrictive page (k/2) — high variance *and* high cost, the source a
    variance-adaptive policy should pour budget into.  The remaining
    sources shrink geometrically, stay near-iid, and answer on cheap
    pages.  This is the fixture ``benchmarks/bench_federation.py`` and the
    acceptance tests run on.
    """
    if num_sources < 2:
        raise ValueError(f"need at least 2 sources, got {num_sources}")
    sizes = [base_m * num_sources]
    ks = [max(2, k // 2)]
    skews = [1.0]
    for i in range(1, num_sources):
        sizes.append(max(64, base_m // (2 ** (i - 1))))
        ks.append(k)
        skews.append(min(1.0, 0.1 * (i - 1)))
    return federated_sources(
        sizes,
        n_attrs=n_attrs,
        ks=ks,
        skews=skews,
        overlap=overlap,
        seed=seed,
        name=f"heterogeneous_{num_sources}x",
    )
