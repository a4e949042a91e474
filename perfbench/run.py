"""Run one benchmark workload and print its result.

Usage (from the root of a checkout; the package is not installed, so
``src`` is put on the path here)::

    python3 perfbench/run.py --workload paper_session --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` wraps the
calls into each layer of ``src/repro`` in spans and prints every
per-layer metric instead (plus the tracing overhead, measured against an
untraced run of the same seed in a child process).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check makes ``correct``
false and the exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench.common  # noqa: E402,F401  (its import starts the set-up clock)

WORKLOADS = ("paper_session", "track_churn", "service_tcp")

#: End-to-end metrics of the contract (``BENCHMARK.json``) and their units.
#: The workloads' speed figures are printed as ``#`` lines instead: on a
#: shared 2-vCPU host they spread more across seeds than any allowed bound
#: (see README.md).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "queries": "queries",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "dispatch_s" in name:
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_out"):
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def untraced_timed_s(args) -> float:
    """The timed-part seconds of an untraced run of the same seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("# timed_s "):
            return float(line.split()[2])
    raise RuntimeError(
        f"untraced twin run failed ({proc.returncode}): {proc.stderr[-2000:]}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    workload = importlib.import_module(f"perfbench.{args.workload}")
    baseline_s = untraced_timed_s(args) if args.trace else None
    tracer = None
    if args.trace:
        from perfbench.trace import Tracer, install

        tracer = Tracer()
        install(tracer)
    runs = ROOT / "perfbench" / ".runs"
    runs.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        outcome = workload.run(args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            runs.rmdir()  # only when no other run is using it
        except OSError:
            pass

    correct = all(ok for _, ok, _ in outcome.checks)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# timed_s {outcome.timed_s:.6f}")
    for name, (value, unit) in outcome.named.items():
        print(f"# {name} {value:.6g} {unit}")
    for note in outcome.notes:
        print(f"# {note}")
    for name, ok, detail in outcome.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if args.trace:
        layers = dict(outcome.layers)
        layers["tracing_overhead_s"] = outcome.timed_s - baseline_s
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
