"""Output checks, computed apart from the program.

Every function takes plain data (numbers, lists, dicts decoded from the
program's JSON, numpy arrays) and returns ``(passed, detail)``.  None of
them calls into ``repro``: the truths they compare against are computed
here, with numpy, from stored columns or from the program's own
documented invariants.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

Result = Tuple[bool, str]


def per_round_values(trajectory: Sequence[Sequence[float]]) -> List[float]:
    """Per-round estimates recovered from a running-mean trajectory.

    A static session's trajectory point *i* (1-based) holds the mean of
    rounds ``1..i``, so round *i*'s value is ``i*r_i - (i-1)*r_{i-1}``.
    """
    values = []
    previous = 0.0
    for i, (_, running) in enumerate(trajectory, start=1):
        values.append(i * running - (i - 1) * previous)
        previous = running
    return values


def mean_within(values: Sequence[float], truth: float, z: float = 4.0) -> Result:
    """The sample mean of *values* lies within *z* standard errors of
    *truth* (standard error = sample sd / sqrt(n))."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        return False, f"need >= 2 values, got {x.size}"
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(x.size))
    score = abs(mean - truth) / se if se > 0 else (0.0 if mean == truth else math.inf)
    return score <= z, (
        f"mean {mean:.6g} vs truth {truth:.6g}: {score:.2f} se "
        f"(n={x.size}, se={se:.4g}, limit {z:g})"
    )


def same_outcome(a: Mapping, b: Mapping) -> Result:
    """Two report dicts carry the same estimate, CI, trajectory and
    queries, exactly."""
    for key in ("estimate", "ci95", "trajectory", "total_queries"):
        if json.dumps(a.get(key)) != json.dumps(b.get(key)):
            return False, f"{key} differs: {a.get(key)!r:.80} vs {b.get(key)!r:.80}"
    return True, "estimate, ci95, trajectory and total_queries identical"


def rows_distinct(rows: np.ndarray, expected: float) -> Result:
    """Rows are pairwise distinct and there are *expected* of them."""
    unique = np.unique(np.asarray(rows), axis=0).shape[0]
    count = int(np.asarray(rows).shape[0])
    ok = unique == count and count == expected
    return ok, f"{count} live rows, {unique} distinct, expected {expected:g}"


def relative_errors_unbiased(per_run_means: Sequence[float], z: float = 4.0) -> Result:
    """Per-run mean relative errors average to within *z* standard errors
    of zero (the standard error is taken across the independent runs)."""
    return mean_within(per_run_means, 0.0, z)


def canonical(payload: Mapping) -> str:
    """The canonical bytes of a report dict (sorted keys, strict JSON)."""
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def byte_identical(wire: Mapping, reference_json: str) -> Result:
    text = canonical(wire)
    if text == reference_json:
        return True, f"{len(text)} bytes identical"
    return False, f"differs from reference ({len(text)} vs {len(reference_json)} bytes)"


def snapshots_numbered(seqs: Sequence[int], rounds: int) -> Result:
    """A stream's snapshot events are numbered 1..n with n = rounds."""
    ok = list(seqs) == list(range(1, rounds + 1))
    return ok, f"{len(seqs)} snapshots for {rounds} rounds"


def counters_match(before: Mapping, after: Mapping, expected: Mapping) -> Result:
    """Server counters differenced over the window equal the client's
    tallies."""
    diffs = {key: after[key] - before[key] for key in expected}
    ok = diffs == dict(expected)
    return ok, f"server {diffs} vs client {dict(expected)}"


def evictions_match(updates: Iterable[Tuple[int, int]]) -> Result:
    """Each update's ``evicted`` equals the dataset's completed fresh
    specs since the previous update; *updates* is ``(evicted, expected)``."""
    pairs = list(updates)
    bad = [(i, got, want) for i, (got, want) in enumerate(pairs) if got != want]
    if bad:
        return False, f"{len(bad)} of {len(pairs)} updates differ, first {bad[0]}"
    return True, f"{len(pairs)} updates evicted exactly the completed specs"


def journal_complete(terminal_ids: Iterable[int], acked_ids: Iterable[int],
                     corrupt_lines: int, orphans: int) -> Result:
    """One terminal record per acknowledged job, no corrupt line, no
    orphan."""
    terminal, acked = sorted(terminal_ids), sorted(acked_ids)
    ok = terminal == acked and corrupt_lines == 0 and orphans == 0
    return ok, (
        f"{len(terminal)} terminal records for {len(acked)} acknowledged jobs, "
        f"{corrupt_lines} corrupt lines, {orphans} orphans"
    )


def flags_match(flags: Sequence[bool], expected: bool) -> Result:
    bad = sum(1 for flag in flags if flag is not expected)
    return bad == 0, f"{len(flags) - bad} of {len(flags)} replies cached={expected}"
