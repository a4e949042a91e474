"""``track_churn``: ``track`` runs on a churning table, from argv.

Each run enters through ``repro.cli.main`` with the arguments a user
would type, so it takes the ``track`` subcommand's whole path: argv, the
spec, ``Estimation.run``, the table build (paid on every run, as a
``track`` user pays it), and the report.  It follows a ``yahoo_auto``
table (m = 20,000) for 40 epochs with the reissue policy and 5% churn.

This is the write path: churn generation, ``HiddenTable.apply_updates``,
the backend's rebind, the client's stale-page eviction and reissued
rounds through ``ParallelSession.run_rounds`` do their work here.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time

from perfbench import checks
from perfbench.common import Outcome, median_ms, peak_rss_mb, process_age_s

M = 20_000
EPOCHS = 40
CHURN = 0.05
#: Seconds one run took on the reference machine; the run count is a
#: fixed function of ``--seconds``, never of the measured time.
RUN_S = 1.25


def make_argvs(seed: int, seconds: int):
    rng = random.Random(seed)
    return [
        ["track", "--dataset", "yahoo", "--m", str(M), "--k", "100",
         "--epochs", str(EPOCHS), "--churn", str(CHURN),
         "--policy", "reissue", "--seed", str(rng.randrange(2**31)),
         "--churn-seed", str(rng.randrange(2**31)), "--json"]
        for _ in range(max(2, round(seconds / RUN_S)))
    ]


def run(seed: int, seconds: int, tracer=None, workdir=None) -> Outcome:
    import repro.api.session as session
    from repro.cli import main as cli_main

    argvs = make_argvs(seed, seconds)
    # Keep each run's table for the checks: the compiler hands the
    # tracking session the table it then churns in place.
    tables = []
    build_table = session.build_table

    def keep_table(*args, **kwargs):
        table = build_table(*args, **kwargs)
        tables.append(table)
        return table

    session.build_table = keep_table
    if tracer is not None:
        from perfbench.trace import spanned

        cli_main = spanned(tracer, "cli", cli_main)
    setup_s = process_age_s()

    payloads, waits, distinct = [], [], []
    checking = 0.0  # seconds spent on checks between runs, off the clock
    failed = 0
    start = time.perf_counter()
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.request = index
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        waits.append(time.perf_counter() - t0)
        # The final table is checked now, off the clock, and dropped, so
        # peak memory is that of one run, not of every run kept.
        table = tables.pop() if tables else None
        if code != 0:
            failed += 1
            continue
        payload = json.loads(out.getvalue())
        payloads.append(payload)
        c0 = time.perf_counter()
        distinct.append(checks.rows_distinct(
            table.data, payload["epochs"][-1]["truth"]))
        checking += time.perf_counter() - c0
    end = time.perf_counter()
    timed_s = sum(waits)
    rss = peak_rss_mb()
    session.build_table = build_table
    if tracer is not None:
        from perfbench.trace import layer_metrics

        tracer.enabled = False
        layers = layer_metrics(tracer.spans(), tracer.counts(), start, end)
        layers["unattributed_s"] -= checking
    else:
        layers = {}

    done = payloads
    results = {}
    truths0 = [p["epochs"][0]["truth"] for p in done]
    results["epoch0_truth_is_m"] = (
        all(t == M for t in truths0),
        f"epoch 0 truths {sorted(set(truths0))} vs requested {M}",
    )
    bad = [detail for ok, detail in distinct if not ok]
    results["final_rows_distinct"] = (
        not bad and len(distinct) == len(done),
        f"{len(distinct) - len(bad)} of {len(done)} final tables: live rows "
        f"pairwise distinct, count = last truth" + (f"; first bad: {bad[0]}" if bad else ""),
    )
    per_run = [
        statistics.fmean((e["estimate"] - e["truth"]) / e["truth"]
                         for e in p["epochs"])
        for p in done
    ]
    results["relative_error_within_4se"] = checks.relative_errors_unbiased(per_run)

    epochs = sum(len(p["epochs"]) for p in done)
    queries = float(sum(p["total_cost"] for p in done))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "queries": queries,
    }
    named = {
        "track_s": (timed_s / len(argvs), "s"),
        "track_p50_ms": (median_ms(waits), "ms"),
        "epochs_per_s": (epochs / timed_s, "epochs/s"),
    }
    notes = [
        f"{len(argvs)} track runs, {epochs} epochs; run min "
        f"{1000 * min(waits):.1f} ms, max {1000 * max(waits):.1f} ms",
        "per-run mean relative errors: "
        + ", ".join(f"{100 * e:+.1f}%" for e in per_run),
    ]
    return Outcome(
        metrics=metrics,
        named=named,
        attempted=len(argvs),
        failed=failed,
        checks=[(name, ok, detail) for name, (ok, detail) in results.items()],
        timed_s=timed_s,
        layers=layers,
        notes=notes,
    )
