"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def _kernel_age_s() -> float:
    """Seconds since this process started, in the kernel's 10 ms ticks."""
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5), counted after ")"
    with open("/proc/uptime", "r", encoding="ascii") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


#: The process's age when this module was imported, and the clock then.
_AGE_AT_IMPORT = _kernel_age_s()
_CLOCK_AT_IMPORT = time.perf_counter()


def process_age_s() -> float:
    """Seconds since this process started: the coarse kernel age at
    import plus the fine clock since."""
    return _AGE_AT_IMPORT + (time.perf_counter() - _CLOCK_AT_IMPORT)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of *pid* (default: this process)."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def tail(samples: List[float]) -> Optional[Tuple[float, float, int]]:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it,
    as ``(percentile, value, samples)``; ``None`` below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    best = None
    for pct in (75, 90, 95, 99):
        if n * (1 - pct / 100) >= 10:
            value = ordered[min(n - 1, math.ceil(pct / 100 * n) - 1)]
            best = (pct, value, n)
    return best


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    #: The gated end-to-end metrics (name -> value).
    metrics: Dict[str, float]
    #: The workload's speed figures (name -> (value, unit)), printed as
    #: ``#`` lines before the result.
    named: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    #: (check name, passed, detail) for every output check.
    checks: List[Tuple[str, bool, str]]
    #: Seconds of the timed part.
    timed_s: float
    #: Per-layer metrics of a traced run.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Extra information lines (tails, shares).
    notes: List[str] = field(default_factory=list)


def median_ms(samples: List[float]) -> float:
    return 1000.0 * statistics.median(samples)
