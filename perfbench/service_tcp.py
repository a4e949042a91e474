"""``service_tcp``: the estimation server over TCP, driven in a closed loop.

The server starts the way users start it (``python -m repro serve --tcp
127.0.0.1:0 --workers 2 --journal PATH``; the traced run starts it through
``serve_traced.py``).  One process drives it over two connections; each
connection waits for a reply before it sends the next request.  Per
script iteration:

* connection 1, dataset A: a fresh static spec (a cache miss), a repeat
  from the hit pool (a cache hit), a budgeted streaming spec (snapshot
  events), another repeat;
* connection 2: an ``update`` deleting ten rows of dataset B (it evicts
  B's cache entries), a fresh spec on B, then a repeat, a streaming spec
  and a repeat on A.

The two connections move in lockstep: iteration *i+1* starts when both
have finished iteration *i*.  Only connection 2 submits against B and it
waits for each reply, so no job on B is in flight when an update lands,
and every run has the same hit and miss counts.  Set-up builds both tables in the server and warms
the hit pool; the cache (256 entries) holds the pool all run long.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench import checks
from perfbench.common import Outcome, median_ms, peak_rss_mb, process_age_s, tail

M = 20_000
K = 100
FRESH_ROUNDS = 8
STREAM_BUDGET = 400
HIT_POOL = 8
DELETES_PER_UPDATE = 10
CACHE_SIZE = 256  # the server's default --cache-size
#: Seconds one script iteration took on the reference machine; the
#: iteration count is a fixed function of ``--seconds``.
ITERATION_S = 0.11
ROOT = Path(__file__).resolve().parent.parent


def make_plan(seed: int, seconds: int) -> dict:
    """Every spec, update and script position, from the workload seed."""
    from repro.api import (DatasetSpec, EstimationSpec, RegimeSpec,
                           TargetSpec)

    rng = random.Random(seed)
    a = DatasetSpec(name="yahoo", m=M, seed=rng.randrange(2**31))
    b = DatasetSpec(name="yahoo", m=M, seed=rng.randrange(2**31))

    def spec(dataset, **regime):
        return EstimationSpec(
            target=TargetSpec(dataset=dataset, k=K),
            regime=RegimeSpec(seed=rng.randrange(2**31), **regime),
        )

    iterations = max(2, round(seconds / ITERATION_S))
    pool = [spec(a, rounds=FRESH_ROUNDS) for _ in range(HIT_POOL)]
    doomed = rng.sample(range(M), iterations * DELETES_PER_UPDATE)
    conn1, conn2 = [], []
    for i in range(iterations):
        conn1.append([
            ("fresh", spec(a, rounds=FRESH_ROUNDS)),
            ("hit", rng.randrange(HIT_POOL)),
            ("stream", spec(a, query_budget=STREAM_BUDGET)),
            ("hit", rng.randrange(HIT_POOL)),
        ])
        conn2.append([
            ("update", doomed[i * DELETES_PER_UPDATE:(i + 1) * DELETES_PER_UPDATE]),
            ("fresh_b", spec(b, rounds=FRESH_ROUNDS)),
            ("hit", rng.randrange(HIT_POOL)),
            ("stream", spec(a, query_budget=STREAM_BUDGET)),
            ("hit", rng.randrange(HIT_POOL)),
        ])
    if HIT_POOL + iterations + 1 > CACHE_SIZE:
        raise ValueError("the plan would evict the hit pool from the cache")
    return {"a": a, "b": b, "pool": pool, "warm_b": spec(b, rounds=FRESH_ROUNDS),
            "conn1": conn1, "conn2": conn2}


class Connection:
    """One closed-loop line-JSON client connection."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.next_id = 0
        self.bytes_in = 0
        self.lines_in = 0

    async def _line(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), 120)
        if not line:
            raise ConnectionError("server closed the connection")
        self.bytes_in += len(line)
        self.lines_in += 1
        return json.loads(line)

    async def call(self, payload: dict) -> dict:
        """Send one request and read until its final reply.

        Returns the record: the final payload, send/first-snapshot/done
        times and the snapshot sequence numbers.
        """
        self.next_id += 1
        payload = {**payload, "id": self.next_id}
        sent = time.perf_counter()
        self.writer.write((json.dumps(payload) + "\n").encode())
        await self.writer.drain()
        record = {"sent": sent, "first": None, "seqs": [], "job": None}
        while True:
            reply = await self._line()
            if reply.get("id") != self.next_id:
                raise RuntimeError(f"reply for another request: {reply}")
            if reply.get("status") == "queued":
                record["job"] = reply["job"]
                continue
            if reply.get("event") == "snapshot":
                record["seqs"].append(reply["seq"])
                if record["first"] is None:
                    record["first"] = time.perf_counter()
                continue
            record["done"] = time.perf_counter()
            record["reply"] = reply
            return record


def submit(spec, stream=False) -> dict:
    return {"op": "submit", "spec": spec.to_dict(), "stream": stream}


async def drive(port: int, plan: dict) -> dict:
    reader1, writer1 = await asyncio.open_connection("127.0.0.1", port)
    reader2, writer2 = await asyncio.open_connection("127.0.0.1", port)
    conn1, conn2 = Connection(reader1, writer1), Connection(reader2, writer2)
    out = {"warm": [], "acked": []}
    try:
        for spec in plan["pool"]:
            out["warm"].append(await conn1.call(submit(spec)))
        out["warm_b"] = await conn2.call(submit(plan["warm_b"]))
        out["acked"] += [r["job"] for r in out["warm"] + [out["warm_b"]]]
        out["before"] = (await conn1.call({"op": "metrics"}))["reply"]
        out["setup_s"] = process_age_s()
        bytes0 = conn1.bytes_in + conn2.bytes_in
        lines0 = conn1.lines_in + conn2.lines_in

        async def step(conn, kind, arg):
            if kind == "update":
                payload = {"op": "update", "dataset": dataclasses.asdict(plan["b"]),
                           "deletes": arg}
            elif kind == "hit":
                payload = submit(plan["pool"][arg])
            else:
                payload = submit(arg, stream=kind == "stream")
            return kind, arg, await conn.call(payload)

        async def script(conn, steps):
            return [await step(conn, kind, arg) for kind, arg in steps]

        # The connections move in lockstep, one iteration at a time, so
        # the same requests overlap in every run and neither connection
        # ends the window running alone.
        start = time.perf_counter()
        one, two = [], []
        for steps1, steps2 in zip(plan["conn1"], plan["conn2"]):
            a, b = await asyncio.gather(script(conn1, steps1), script(conn2, steps2))
            one += a
            two += b
        end = time.perf_counter()
        out["window"] = (start, end)
        out["bytes_out"] = conn1.bytes_in + conn2.bytes_in - bytes0
        out["events_out"] = conn1.lines_in + conn2.lines_in - lines0
        out["records"] = {"conn1": one, "conn2": two}
        out["after"] = (await conn1.call({"op": "metrics"}))["reply"]
    finally:
        for writer in (writer1, writer2):
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return out


def start_server(workdir: str, journal: str, spans: str = None):
    """Launch the server and return ``(process, port, launch time)``."""
    serve = ["serve", "--tcp", "127.0.0.1:0", "--workers", "2",
             "--journal", journal]
    if spans is None:
        argv = [sys.executable, "-m", "repro", *serve]
    else:
        argv = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                spans, *serve]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    stderr = open(os.path.join(workdir, "server.err"), "wb")
    launched = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=stderr)
    stderr.close()
    ready, _, _ = select.select([proc.stdout], [], [], 60)
    line = proc.stdout.readline() if ready else b""
    if not line:
        stop_server(proc)
        raise RuntimeError("server did not announce a listening port")
    return proc, json.loads(line)["port"], launched


def stop_server(proc) -> int:
    """SIGTERM, then wait for the drain (kill after 60 s)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    proc.stdout.close()
    return code


def run(seed: int, seconds: int, tracer=None, workdir=None) -> Outcome:
    from repro.api import Estimation
    from repro.api.compiler import build_table
    from repro.server.journal import Journal

    plan = make_plan(seed, seconds)
    if tracer is not None:
        tracer.enabled = False  # the traced server records; this process only checks
    journal = os.path.join(workdir, "journal.jsonl")
    spans = os.path.join(workdir, "spans.json") if tracer is not None else None
    proc, port, launched = start_server(workdir, journal, spans)
    try:
        out = asyncio.run(drive(port, plan))
        rss = peak_rss_mb(proc.pid)
    finally:
        exit_code = stop_server(proc)
    start, end = out["window"]
    window_s = end - start

    records = out["records"]["conn1"] + out["records"]["conn2"]
    out["acked"] += [r["job"] for _, _, r in records if r["job"] is not None]
    # A request whose reply is not "done"/"ok" failed; the checks and the
    # latencies below cover the rest.
    by_kind = {}
    failed = 0
    for kind, arg, record in records:
        if record["reply"].get("status") in ("done", "ok"):
            by_kind.setdefault(kind, []).append((arg, record))
        else:
            failed += 1

    # -- checks, made apart from the program --------------------------------
    results = {}
    results["server_exit_code"] = (exit_code == 0, f"exit code {exit_code}")
    state = Journal.load(journal)
    results["journal_one_terminal_per_job"] = checks.journal_complete(
        state.terminal, out["acked"], state.corrupt_lines, len(state.orphans))

    table_a = build_table(plan["pool"][0])
    warm_reports = [r["reply"]["report"] for r in out["warm"]]
    fresh = by_kind.get("fresh", [])
    reference = [Estimation(fresh[0][0]).run().to_json()]
    reference += [Estimation(spec, table=table_a).run().to_json()
                  for spec, _ in fresh[1:]]
    reference += [Estimation(spec, table=table_a).run().to_json()
                  for spec in plan["pool"]]
    wire = [r["reply"]["report"] for _, r in fresh] + warm_reports
    mismatched = [i for i, (w, ref) in enumerate(zip(wire, reference))
                  if not checks.byte_identical(w, ref)[0]]
    results["fresh_reports_equal_run"] = (
        not mismatched,
        f"{len(wire) - len(mismatched)} of {len(wire)} fresh reports "
        f"byte-identical to Estimation(spec).run()",
    )

    bad_streams, bad_seqs = 0, 0
    for spec, record in by_kind.get("stream", []):
        stream = Estimation(spec, table=table_a).stream()
        for _ in stream:
            pass
        report = record["reply"]["report"]
        bad_streams += not checks.byte_identical(report, stream.result.to_json())[0]
        bad_seqs += not checks.snapshots_numbered(record["seqs"], report["rounds"])[0]
    n_streams = len(by_kind.get("stream", []))
    results["stream_reports_equal_stream"] = (
        bad_streams == 0,
        f"{n_streams - bad_streams} of {n_streams} stream reports byte-identical "
        f"to Estimation(spec).stream().result",
    )
    results["stream_snapshots_numbered"] = (
        bad_seqs == 0, f"{n_streams - bad_seqs} of {n_streams} streams numbered 1..rounds")

    hits = by_kind.get("hit", [])
    bad_hits = sum(1 for index, r in hits if not checks.byte_identical(
        r["reply"]["report"], checks.canonical(warm_reports[index]))[0])
    results["hits_equal_warm_report"] = (
        bad_hits == 0, f"{len(hits) - bad_hits} of {len(hits)} hits byte-identical")
    results["hits_cached"] = checks.flags_match(
        [r["reply"].get("cached") for _, r in hits], True)
    results["fresh_not_cached"] = checks.flags_match(
        [r["reply"].get("cached") for _, r in fresh + by_kind.get("fresh_b", [])]
        + [r["reply"].get("cached") for r in out["warm"]], False)

    # Dataset B: replay the updates in script order on a private copy.
    table_b = build_table(plan["warm_b"])
    completed_b = 1  # the warm-up spec
    evictions, bad_b = [], 0
    for kind, arg, record in out["records"]["conn2"]:
        if record["reply"].get("status") not in ("done", "ok"):
            continue
        if kind == "update":
            evictions.append((record["reply"].get("evicted"), completed_b))
            table_b.apply_updates(deletes=arg)
            completed_b = 0
        elif kind == "fresh_b":
            completed_b += 1
            ref = Estimation(arg, table=table_b).run().to_json()
            bad_b += not checks.byte_identical(record["reply"]["report"], ref)[0]
    n_b = len(by_kind.get("fresh_b", []))
    results["fresh_b_reports_equal_run"] = (
        bad_b == 0, f"{n_b - bad_b} of {n_b} reports after updates byte-identical")
    results["update_evictions"] = checks.evictions_match(evictions)

    n_fresh = len(fresh) + n_b
    results["server_counters"] = checks.counters_match(
        out["before"]["metrics"]["counters"], out["after"]["metrics"]["counters"],
        {"jobs_done": n_fresh + len(hits) + n_streams,
         "cache_hits": len(hits), "cache_misses": n_fresh},
    )

    # -- metrics ------------------------------------------------------------
    def waits(kinds, key="done"):
        return [r[key] - r["sent"] for kind in kinds for _, r in by_kind.get(kind, [])]

    classes = {
        "fresh_done_p50_ms": waits(("fresh",)),
        "fresh_after_update_p50_ms": waits(("fresh_b",)),
        "hit_done_p50_ms": waits(("hit",)),
        "first_snapshot_p50_ms": waits(("stream",), "first"),
        "stream_done_p50_ms": waits(("stream",)),
        "update_p50_ms": waits(("update",)),
    }
    queries = float(sum(r["reply"]["report"]["total_queries"]
                        for kind in ("fresh", "fresh_b", "stream")
                        for _, r in by_kind.get(kind, [])))
    metrics = {
        "setup_s": out["setup_s"],
        "peak_rss_mb": rss,
        "queries": queries,
    }
    named = {
        "requests_per_s": ((len(records) - failed) / window_s, "requests/s"),
        **{name: (median_ms(samples), "ms") for name, samples in classes.items()},
    }
    notes = [f"{len(records)} requests: " + ", ".join(
        f"{kind}={len(v)}" for kind, v in sorted(by_kind.items()))]
    for name, samples in classes.items():
        high = tail(samples)
        if high is not None:
            notes.append(f"{name[:-7]} p{high[0]} {1000 * high[1]:.1f} ms "
                         f"over {high[2]} samples")

    layers = {}
    if tracer is not None:
        from perfbench.trace import layer_metrics

        with open(spans, "r", encoding="utf-8") as fh:
            dumped = json.load(fh)
        counts = dict(dumped["counts"])
        counts["server.bytes_out"] = out["bytes_out"]
        counts["server.events_out"] = out["events_out"]
        counts["server.journal_bytes"] = os.path.getsize(journal)
        layers = layer_metrics(dumped["spans"], counts, launched, end)
    return Outcome(
        metrics=metrics,
        named=named,
        attempted=len(records),
        failed=failed,
        checks=[(name, ok, detail) for name, (ok, detail) in results.items()],
        timed_s=window_s,
        layers=layers,
        notes=notes,
    )
