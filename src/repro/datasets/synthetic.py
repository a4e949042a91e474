"""Synthetic Boolean datasets from the paper's experimental setup.

Section 6.1 defines two 200,000-tuple, 40-attribute Boolean datasets:

* **Bool-iid** — every attribute is 1 with probability 0.5, independently;
* **Bool-mixed** — 5 attributes have p = 0.5 and the other 35 have
  p = 1/70, 2/70, ..., 35/70, producing a skewed distribution.

Both are generated without duplicate tuples (Section 2.1's model).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.hidden_db.schema import Attribute, Schema, row_keys
from repro.hidden_db.table import HiddenTable
from repro.utils.rng import RandomSource, spawn_rng

__all__ = [
    "boolean_table",
    "bool_iid",
    "bool_mixed",
    "bool_mixed_probabilities",
]

_MAX_DEDUP_ROUNDS = 200


def boolean_table(
    m: int,
    probabilities: Sequence[float],
    seed: RandomSource = None,
    measure_seed_offset: int = 104729,
) -> HiddenTable:
    """Generate a duplicate-free Boolean table.

    Parameters
    ----------
    m:
        Number of tuples.
    probabilities:
        Per-attribute probability of value 1; its length sets the number of
        attributes n.
    seed:
        Randomness source.
    measure_seed_offset:
        The table also carries a synthetic ``VALUE`` measure column (used by
        the SUM experiments, Figures 9-10) drawn from a seeded lognormal;
        the offset decouples it from the attribute stream.

    Raises
    ------
    ValueError
        If m exceeds the number of distinct tuples the probabilities allow
        (attributes with p in {0,1} contribute no entropy) or deduplication
        fails to converge.
    """
    rng = spawn_rng(seed)
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D sequence")
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    n = probs.size
    free = int(np.count_nonzero((probs > 0) & (probs < 1)))
    if m > 2**free:
        raise ValueError(
            f"cannot draw {m} distinct tuples from a space of 2^{free}"
        )

    schema = Schema(
        [Attribute(f"A{i+1}", 2) for i in range(n)],
        measure_names=("VALUE",),
    )
    fanouts = schema.fanouts()
    data = (rng.random((m, n)) < probs).astype(np.int8)
    keys = row_keys(data, fanouts)
    for _ in range(_MAX_DEDUP_ROUNDS):
        _, first_idx = np.unique(keys, return_index=True)
        if first_idx.size == m:
            break
        dup_mask = np.ones(m, dtype=bool)
        dup_mask[first_idx] = False
        n_dups = int(dup_mask.sum())
        fresh = (rng.random((n_dups, n)) < probs).astype(np.int8)
        data[dup_mask] = fresh
        keys[dup_mask] = row_keys(fresh, fanouts)
    else:
        raise ValueError("deduplication did not converge; space too dense")

    value_rng = spawn_rng(int(rng.integers(2**31)) + measure_seed_offset)
    # Positive, mildly skewed measure; SUM experiments aggregate it.
    value = value_rng.lognormal(mean=3.0, sigma=0.5, size=m)
    return HiddenTable(schema, data, {"VALUE": value})


def bool_iid(m: int = 200_000, n: int = 40, seed: RandomSource = None) -> HiddenTable:
    """The paper's Bool-iid dataset (every attribute p = 0.5)."""
    return boolean_table(m, [0.5] * n, seed=seed)


def bool_mixed_probabilities(n: int = 40, n_uniform: int = 5) -> np.ndarray:
    """Per-attribute p for Bool-mixed: ``n_uniform`` attributes at 0.5 and
    the rest at 1/70, 2/70, ... (Section 6.1)."""
    if n <= n_uniform:
        raise ValueError("n must exceed the number of uniform attributes")
    skewed = [(i + 1) / 70.0 for i in range(n - n_uniform)]
    return np.asarray([0.5] * n_uniform + skewed)


def bool_mixed(m: int = 200_000, n: int = 40, seed: RandomSource = None) -> HiddenTable:
    """The paper's Bool-mixed dataset (skewed per-attribute densities)."""
    return boolean_table(m, bool_mixed_probabilities(n), seed=seed)
