"""``paper_session``: HD-UNBIASED sessions on the paper-scale table.

Set-up builds one ``yahoo_auto`` table at the paper's size (188,790
tuples, k = 100) through the compiler the CLI uses.  The timed part runs
cycles of four sessions on it, so every arm spans the whole timed part:

* SIZE at ``workers=1`` (60 rounds), twice per cycle;
* SUM(PRICE) at ``workers=1`` (60 rounds, Fig. 19's aggregate);
* SIZE at ``workers=2`` on the process executor (240 rounds, pool start
  included).

This is the read path of the paper's experiment: walker, client cache,
interface and scan backend.  Only the SUM arm materializes result pages;
only the parallel arm uses the process pool and shared memory.
"""

from __future__ import annotations

import dataclasses
import random
import time

from perfbench import checks
from perfbench.common import Outcome, median_ms, peak_rss_mb, process_age_s

M = 188_790
K = 100
#: The table is the same in every run (the generator's default seed); the
#: workload seed draws the sessions' seeds.  One fixed table keeps build
#: time and prefix-cache memory comparable across seeds.
DATASET_SEED = 2007
#: (arm, aggregate, rounds, workers, executor), in cycle order.
CYCLE = (
    ("size", "size", 60, 1, "thread"),
    ("sum", "sum", 60, 1, "thread"),
    ("size", "size", 60, 1, "thread"),
    ("parallel", "size", 240, 2, "process"),
)
#: Seconds one cycle took on the reference machine; the cycle count is
#: a fixed function of ``--seconds``, never of the measured time.
CYCLE_S = 3.5


def make_specs(seed: int, seconds: int):
    """The dataset spec and the session list ``[(arm, spec), ...]``."""
    from repro.api import (AggregateSpec, DatasetSpec, EstimationSpec,
                           RegimeSpec, TargetSpec)

    rng = random.Random(seed)
    dataset = DatasetSpec(name="yahoo", m=M, seed=DATASET_SEED)
    target = TargetSpec(dataset=dataset, k=K)
    sessions = []
    for _ in range(max(1, round(seconds / CYCLE_S))):
        for arm, kind, rounds, workers, executor in CYCLE:
            aggregate = (AggregateSpec(kind="sum", measure="PRICE")
                         if kind == "sum" else AggregateSpec())
            regime = RegimeSpec(rounds=rounds, seed=rng.randrange(2**31),
                                workers=workers, executor=executor)
            sessions.append((arm, EstimationSpec(
                target=target, aggregate=aggregate, regime=regime)))
    return dataset, sessions


def run(seed: int, seconds: int, tracer=None, workdir=None) -> Outcome:
    from repro.api import Estimation
    from repro.api.compiler import build_table

    dataset, sessions = make_specs(seed, seconds)
    trace_start = time.perf_counter()
    table = build_table(sessions[0][1])
    setup_s = process_age_s()

    reports, waits = [], []
    failed = 0
    start = time.perf_counter()
    for index, (arm, spec) in enumerate(sessions):
        if tracer is not None:
            tracer.request = index
        t0 = time.perf_counter()
        try:
            report = Estimation(spec, table=table).run()
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            failed += 1
            report = exc
        waits.append(time.perf_counter() - t0)
        reports.append(report)
    timed_s = time.perf_counter() - start
    rss = peak_rss_mb()
    if tracer is not None:
        from perfbench.trace import layer_metrics

        tracer.enabled = False
        layers = layer_metrics(tracer.spans(), tracer.counts(), trace_start,
                               start + timed_s)
    else:
        layers = {}

    ok = [(arm, spec, rep, wait) for (arm, spec), rep, wait
          in zip(sessions, reports, waits) if not isinstance(rep, Exception)]
    arm_rounds = {arm: 0 for arm, *_ in CYCLE}
    arm_time = {arm: 0.0 for arm, *_ in CYCLE}
    for arm, spec, rep, wait in ok:
        arm_rounds[arm] += rep.rounds
        arm_time[arm] += wait
    rounds = sum(arm_rounds.values())
    queries = sum(rep.total_queries for _, _, rep, _ in ok)
    size_waits = [wait for arm, _, _, wait in ok if arm == "size"]

    results = {}
    size_values = [v for arm, _, rep, _ in ok if arm == "size"
                   for v in checks.per_round_values(rep.trajectory)]
    results["size_mean_within_4se"] = checks.mean_within(size_values, dataset.m)
    price_total = float(table.measure("PRICE").sum())
    sum_values = [v for arm, _, rep, _ in ok if arm == "sum"
                  for v in checks.per_round_values(rep.trajectory)]
    results["sum_mean_within_4se"] = checks.mean_within(sum_values, price_total)
    for n, (arm, spec, rep, _) in enumerate(x for x in ok if x[0] == "parallel"):
        serial = dataclasses.replace(spec, regime=dataclasses.replace(
            spec.regime, workers=1, executor="thread"))
        stream = Estimation(serial, table=table).stream()
        for _ in stream:
            pass
        results[f"parallel_{n}_matches_serial_stream"] = checks.same_outcome(
            rep.to_dict(), stream.result.to_dict())

    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "queries": float(queries),
    }
    named = {
        "rounds_per_s": (rounds / timed_s, "rounds/s"),
        "size_session_p50_ms": (median_ms(size_waits), "ms"),
        "size_rounds_per_s": (arm_rounds["size"] / arm_time["size"], "rounds/s"),
        "sum_rounds_per_s": (arm_rounds["sum"] / arm_time["sum"], "rounds/s"),
        "parallel_rounds_per_s": (
            arm_rounds["parallel"] / arm_time["parallel"], "rounds/s"),
    }
    notes = [
        "sessions per arm: " + ", ".join(
            f"{arm}={sum(1 for a, *_ in ok if a == arm)}" for arm in arm_rounds)
        + f"; size session min {1000 * min(size_waits):.1f} ms, "
        f"max {1000 * max(size_waits):.1f} ms",
    ]
    return Outcome(
        metrics=metrics,
        named=named,
        attempted=len(sessions),
        failed=failed,
        checks=[(name, ok_, detail) for name, (ok_, detail) in results.items()],
        timed_s=timed_s,
        layers=layers,
        notes=notes,
    )
