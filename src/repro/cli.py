"""Command-line interface.

Examples::

    hiddendb-repro list
    hiddendb-repro run fig06
    hiddendb-repro run fig14 --scale tiny --seed 3
    hiddendb-repro run all --full
    hiddendb-repro estimate --dataset yahoo --m 20000 --rounds 20
    hiddendb-repro estimate --query-budget 2000 --workers 4 --json
    hiddendb-repro estimate --target-precision 0.05 --query-budget 5000
    hiddendb-repro federate --sources 3 --policy neyman --budget 3000
    hiddendb-repro track --epochs 5 --churn 0.05 --policy reissue
    hiddendb-repro run-spec request.json --json

Every estimation subcommand is a thin translator from argparse flags to
an :class:`~repro.api.spec.EstimationSpec` executed through the
:class:`~repro.api.session.Estimation` facade — the same front door
programmatic callers use.  ``run-spec`` skips the flags entirely and
executes a serialized spec (``estimate/track/federate`` requests are all
expressible as spec files; ``-`` reads stdin), printing the unified
:class:`~repro.api.report.AggregateReport`.

``federate`` estimates the total size of a *federation* of heterogeneous
hidden databases under one global query budget: seeded pilot rounds per
source feed a budget-allocation policy (``--policy neyman`` adapts to
observed per-source variance and cost; ``uniform`` / ``cost_weighted``
are the baselines), then each source runs a budget-bounded session
against its grant.  Output is one line per source plus the federated
total with its variance-decomposition CI, and is independent of
``--workers``.

``track`` follows a *dynamic* database across mutation epochs: each epoch
churns the dataset (seeded inserts/deletes/modifications at ``--churn``
rate) and re-estimates its size, either by reissuing a seeded subset of
prior drill downs (``--policy reissue``, the RS-style tracker — cheap) or
by restarting HD-UNBIASED-SIZE from scratch (``--policy restart`` — the
baseline).  Output is one line per epoch (estimate, truth, queries paid)
and is independent of ``--workers``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Mapping, Optional

from repro import __version__
from repro.api import (
    ChurnSpec,
    DatasetSpec,
    Estimation,
    EstimationSpec,
    FederationSpec,
    MethodSpec,
    RegimeSpec,
    TargetSpec,
)
from repro.experiments.config import SCALES, default_scale_name
from repro.experiments.figures import FIGURE_RUNNERS
from repro.federation.policies import available_policies

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="hiddendb-repro",
        description="Reproduction of 'Unbiased Estimation of Size and Other "
                    "Aggregates Over Hidden Web Databases' (SIGMOD 2010)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures/tables")

    run = sub.add_parser("run", help="regenerate a figure/table")
    run.add_argument("figure", help="figure id (e.g. fig06) or 'all'")
    run.add_argument("--scale", choices=sorted(SCALES), default=None,
                     help="experiment scale (default: small, or paper with "
                          "REPRO_FULL=1)")
    run.add_argument("--full", action="store_true",
                     help="shortcut for --scale paper")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true", help="emit JSON")

    est = sub.add_parser("estimate", help="estimate the size of a built-in dataset")
    est.add_argument("--dataset", choices=["iid", "mixed", "yahoo"], default="yahoo")
    est.add_argument("--m", type=int, default=20_000)
    est.add_argument("--k", type=int, default=100)
    est.add_argument("--rounds", type=int, default=None,
                     help="round count (default 20 unless --query-budget or "
                          "--target-precision supply another stop; with one "
                          "of those it acts as a round cap)")
    est.add_argument("--query-budget", type=int, default=None,
                     help="stop once this many queries have been charged "
                          "(the last round may overshoot; enforced through "
                          "round-granular leases, so it composes with "
                          "--workers)")
    est.add_argument("--target-precision", type=float, default=None,
                     help="run until the 95%% CI half-width falls below this "
                          "fraction of the estimate (adaptive run_until; "
                          "sequential only)")
    est.add_argument("--r", type=int, default=4)
    est.add_argument("--dub", type=int, default=32)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--workers", type=int, default=1,
                     help="fan rounds out over N workers (ParallelSession; "
                          "results are worker-count independent)")
    est.add_argument("--executor", choices=["thread", "process"],
                     default="thread",
                     help="worker pool kind at workers > 1 (process = "
                          "shared-memory subprocesses; results are "
                          "executor-independent)")
    est.add_argument("--json", action="store_true",
                     help="emit the full AggregateReport as JSON")

    fed = sub.add_parser(
        "federate",
        help="estimate the total size of a federation of hidden databases "
             "under one global query budget",
    )
    fed.add_argument("--sources", type=int, default=3,
                     help="number of heterogeneous sources (one big skewed "
                          "source + smaller tame ones)")
    fed.add_argument("--policy", choices=sorted(available_policies()),
                     default="neyman",
                     help="budget-allocation policy (neyman = "
                          "variance-adaptive pilots)")
    fed.add_argument("--budget", type=int, default=2_000,
                     help="global query budget in cost units, spent across "
                          "all sources (pilot phase included)")
    fed.add_argument("--pilot-rounds", type=int, default=3,
                     help="seeded pilot rounds per source the policy "
                          "observes before allocating")
    fed.add_argument("--m", type=int, default=1_000,
                     help="base source size (the big source is sources x "
                          "this)")
    fed.add_argument("--k", type=int, default=50)
    fed.add_argument("--overlap", type=float, default=0.0,
                     help="fraction of each source cross-listed from a "
                          "shared universe")
    fed.add_argument("--workers", type=int, default=1,
                     help="per-source round fan-out (output is worker-count "
                          "independent)")
    fed.add_argument("--executor", choices=["thread", "process"],
                     default="thread",
                     help="worker pool kind (results are executor-"
                          "independent)")
    fed.add_argument("--seed", type=int, default=0)
    fed.add_argument("--json", action="store_true", help="emit JSON")

    trk = sub.add_parser(
        "track",
        help="track the size of a churning (dynamic) database across epochs",
    )
    trk.add_argument("--dataset", choices=["iid", "mixed", "yahoo"], default="yahoo")
    trk.add_argument("--m", type=int, default=20_000)
    trk.add_argument("--k", type=int, default=100)
    trk.add_argument("--epochs", type=int, default=5,
                     help="estimation epochs (epoch 0 = initial DB; each "
                          "later epoch applies one churn step first)")
    trk.add_argument("--churn", type=float, default=0.05,
                     help="per-epoch churn rate (fraction of tuples touched, "
                          "split between inserts/deletes/modifications)")
    trk.add_argument("--policy", choices=["reissue", "restart"],
                     default="reissue",
                     help="reissue = RS-style drill-down reissue; restart = "
                          "fresh HD-UNBIASED-SIZE every epoch (baseline)")
    trk.add_argument("--rounds", type=int, default=32,
                     help="round pool size (reissue) / rounds per epoch (restart)")
    trk.add_argument("--reissue", type=int, default=None,
                     help="rounds reissued per epoch (reissue policy only; "
                          "default: rounds // 4)")
    trk.add_argument("--epoch-budget", type=int, default=None,
                     help="per-epoch query cap (reissue policy only; shrinks "
                          "the reissue subset using past epochs' costs)")
    trk.add_argument("--seed", type=int, default=0)
    trk.add_argument("--churn-seed", type=int, default=0,
                     help="separate seed pinning the database evolution")
    trk.add_argument("--workers", type=int, default=1,
                     help="per-epoch round fan-out (output is worker-count "
                          "independent)")
    trk.add_argument("--executor", choices=["thread", "process"],
                     default="thread",
                     help="worker pool kind (results are executor-"
                          "independent)")
    trk.add_argument("--json", action="store_true", help="emit JSON")

    serve = sub.add_parser(
        "serve",
        help="estimation service: line-delimited JSON on stdin/stdout, or "
             "a TCP (+ optional HTTP) listener with --tcp HOST:PORT",
    )
    serve.add_argument("--workers", type=int, default=2,
                       help="jobs in flight at once (reports are "
                            "byte-identical at every worker count)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="result-cache capacity (0 disables caching)")
    serve.add_argument("--tenant-budget", type=float, default=None,
                       help="per-tenant query-budget ceiling in cost units "
                            "(default: unlimited)")
    serve.add_argument("--tcp", metavar="HOST:PORT", default=None,
                       help="listen on a TCP socket instead of stdio "
                            "(PORT 0 = ephemeral; the bound address is "
                            "announced as a 'listening' JSON line)")
    serve.add_argument("--http", action="store_true",
                       help="also answer HTTP/1.1 on the same TCP port "
                            "(POST /submit, GET /result/<job>, ...; "
                            "requires --tcp)")
    serve.add_argument("--journal", metavar="PATH", default=None,
                       help="append-only journal for durable warm state; "
                            "an existing file is replayed (terminal jobs "
                            "re-reportable, fresh-epoch cache entries "
                            "seeded) and compacted on startup")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="submissions are refused ('overloaded') while "
                            "this many jobs are queued or running "
                            "(TCP/HTTP backpressure)")
    serve.add_argument("--idle-timeout", type=float, default=300.0,
                       help="seconds a TCP connection may idle between "
                            "requests before the server closes it "
                            "(0 = never)")

    spec_cmd = sub.add_parser(
        "run-spec",
        help="execute a serialized EstimationSpec (JSON file; '-' = stdin)",
    )
    spec_cmd.add_argument("spec", help="path to a spec JSON file ('-' = stdin)")
    spec_cmd.add_argument("--stream", action="store_true",
                          help="print one progress line per report snapshot "
                               "while the session runs")
    spec_cmd.add_argument("--json", action="store_true",
                          help="emit the full AggregateReport as JSON")

    tune = sub.add_parser(
        "tune", help="suggest (r, D_UB) for a budget (Section 5.1 pilots)"
    )
    tune.add_argument("--dataset", choices=["iid", "mixed", "yahoo"], default="yahoo")
    tune.add_argument("--m", type=int, default=20_000)
    tune.add_argument("--k", type=int, default=100)
    tune.add_argument("--budget", type=int, default=1_000)
    tune.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_list() -> int:
    for figure_id in FIGURE_RUNNERS:
        print(figure_id)
    return 0


def _cmd_run(args) -> int:
    scale = "paper" if args.full else (args.scale or default_scale_name())
    ids = list(FIGURE_RUNNERS) if args.figure == "all" else [args.figure]
    unknown = [i for i in ids if i not in FIGURE_RUNNERS]
    if unknown:
        print(f"unknown figure(s): {unknown}; try 'list'", file=sys.stderr)
        return 2
    for figure_id in ids:
        result = FIGURE_RUNNERS[figure_id](scale=scale, seed=args.seed)
        if args.json:
            print(json.dumps(result.to_dict()))
        else:
            print(result.format_table())
            print()
    return 0


# -- argparse -> EstimationSpec translators ---------------------------------


def _estimate_spec(args) -> EstimationSpec:
    return EstimationSpec(
        target=TargetSpec(
            dataset=DatasetSpec(name=args.dataset, m=args.m, seed=args.seed),
            k=args.k,
        ),
        regime=RegimeSpec(
            rounds=args.rounds,
            query_budget=args.query_budget,
            target_precision=args.target_precision,
            seed=args.seed,
            workers=args.workers,
            executor=args.executor,
        ),
        method=MethodSpec(r=args.r, dub=args.dub),
    )


def _federate_spec(args) -> EstimationSpec:
    return EstimationSpec(
        target=TargetSpec(
            federation=FederationSpec(
                sources=args.sources,
                base_m=args.m,
                overlap=args.overlap,
                seed=args.seed,
            ),
            k=args.k,
        ),
        regime=RegimeSpec(
            query_budget=args.budget,
            seed=args.seed,
            workers=args.workers,
            executor=args.executor,
        ),
        method=MethodSpec(policy=args.policy, pilot_rounds=args.pilot_rounds),
    )


def _track_spec(args) -> EstimationSpec:
    return EstimationSpec(
        target=TargetSpec(
            dataset=DatasetSpec(name=args.dataset, m=args.m, seed=args.seed),
            k=args.k,
            churn=ChurnSpec(
                epochs=args.epochs, rate=args.churn, seed=args.churn_seed
            ),
        ),
        regime=RegimeSpec(
            rounds=args.rounds,
            seed=args.seed,
            workers=args.workers,
            executor=args.executor,
        ),
        method=MethodSpec(
            policy=args.policy,
            reissue_per_epoch=args.reissue,  # None = library default
            epoch_query_budget=args.epoch_budget,
        ),
    )


# -- subcommands ------------------------------------------------------------


def _cmd_estimate(args) -> int:
    # The spec layer re-validates all of this; these pre-checks exist only
    # to phrase the errors in terms of the flags the user actually typed.
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.query_budget is not None and args.query_budget < 1:
        print(f"--query-budget must be >= 1, got {args.query_budget}",
              file=sys.stderr)
        return 2
    if args.target_precision is not None:
        if args.target_precision <= 0:
            print(f"--target-precision must be positive, got "
                  f"{args.target_precision}", file=sys.stderr)
            return 2
        if args.workers > 1:
            print("--target-precision is an adaptive sequential stop; it "
                  "does not compose with --workers (drop one of the two)",
                  file=sys.stderr)
            return 2
    try:
        estimation = Estimation(_estimate_spec(args))
        report = estimation.run()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
        return 0
    table = estimation.table
    print(f"dataset={args.dataset} m={table.num_tuples} k={args.k} "
          f"workers={args.workers}")
    print(f"estimate={report.estimate:,.1f}  ci95=({report.ci95[0]:,.1f}, "
          f"{report.ci95[1]:,.1f})  queries={report.total_queries}  "
          f"rounds={report.rounds}  stop={report.stop_reason}")
    return 0


def _cmd_federate(args) -> int:
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        estimation = Estimation(_federate_spec(args))
        report = estimation.run()
    except ValueError as exc:
        # Parameter validation (e.g. a budget the pilots exhaust, a
        # 1-source federation, an undrawable fixture).
        print(str(exc), file=sys.stderr)
        return 2
    target = estimation.federation
    truth = target.true_total_size()
    if args.json:
        from repro.api.report import legacy_federate_payload

        print(json.dumps(legacy_federate_payload(report, truth)))
        return 0
    print(f"federation={target.name} sources={args.sources} "
          f"policy={report.policy} budget={args.budget} "
          f"workers={args.workers}")
    for source_estimate in report.per_source:
        granted = report.allocations[source_estimate["name"]]
        print(f"  {source_estimate['name']:<12} estimate "
              f"{source_estimate['mean']:>12,.1f}  se "
              f"{source_estimate['std_error']:>10,.1f}  rounds "
              f"{source_estimate['rounds']:>4}  queries "
              f"{source_estimate['queries']:>6}  granted {granted:>6}  "
              f"stop {source_estimate['stop_reason']}")
    rel = abs(report.estimate - truth) / truth if truth else float("nan")
    print(f"total={report.estimate:,.1f}  ci95=({report.ci95[0]:,.1f}, "
          f"{report.ci95[1]:,.1f})  truth={truth:,}  err={100 * rel:.1f}%  "
          f"spent={report.cost_units:,.0f}/{args.budget} units "
          f"({report.total_queries} queries)")
    return 0


def _cmd_track(args) -> int:
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.epochs < 1:
        print(f"--epochs must be >= 1, got {args.epochs}", file=sys.stderr)
        return 2
    if args.policy == "restart" and (
        args.reissue is not None or args.epoch_budget is not None
    ):
        print("--reissue/--epoch-budget only apply to --policy reissue "
              "(the restart baseline pays its full round count each epoch)",
              file=sys.stderr)
        return 2
    try:
        report = Estimation(_track_spec(args)).run()
    except ValueError as exc:
        # Parameter validation from the spec or the estimators/churn
        # generator (e.g. --rounds 1, --reissue 0, --churn -0.1).
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        from repro.api.report import legacy_track_payload

        print(json.dumps(legacy_track_payload(report)))
        return 0
    print(f"dataset={args.dataset} m0={args.m} k={args.k} churn={args.churn} "
          f"policy={args.policy} workers={args.workers}")
    for e in report.per_epoch:
        if e["truth"]:
            rel = f"{100 * abs(e['estimate'] - e['truth']) / abs(e['truth']):5.1f}%"
        else:
            rel = "   n/a"
        print(f"epoch {e['epoch']:>3}  version {e['version']:>3}  "
              f"estimate {e['estimate']:>12,.1f}  truth {e['truth']:>10,.0f}  "
              f"err {rel}  queries {e['cost']:>6}  reissued {e['reissued']}")
    print(f"total queries: {report.total_queries}")
    return 0


def _parse_endpoint(text: str):
    """``HOST:PORT`` (or ``:PORT`` = loopback) -> ``(host, port)``."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not port_text.isdigit():
        raise ValueError(
            f"--tcp expects HOST:PORT (PORT 0 = ephemeral), got {text!r}"
        )
    return host or "127.0.0.1", int(port_text)


def _cmd_serve(args) -> int:
    """Run the estimation service — stdio by default, TCP with ``--tcp``.

    Both front ends dispatch through one shared
    :class:`~repro.server.ops.ServiceProtocol` table, so op semantics,
    response shapes and journaling are transport-independent; only the
    framing differs (stdio defers each response until its job resolves
    to keep strict input order, TCP acks and pushes completion events).
    """
    from repro.server import (
        EstimationServer,
        Journal,
        ServerConfig,
        ServiceProtocol,
    )
    from repro.service import EstimationService

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.cache_size < 0:
        print(f"--cache-size must be >= 0, got {args.cache_size}",
              file=sys.stderr)
        return 2
    if args.max_pending < 1:
        print(f"--max-pending must be >= 1, got {args.max_pending}",
              file=sys.stderr)
        return 2
    if args.http and not args.tcp:
        print("--http requires --tcp (it shares the TCP port)",
              file=sys.stderr)
        return 2
    if args.tcp:
        try:
            host, port = _parse_endpoint(args.tcp)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    journal = state = None
    if args.journal:
        journal, state = Journal.open(args.journal)
    service = EstimationService(
        workers=args.workers,
        cache_size=args.cache_size,
        default_tenant_budget=args.tenant_budget,
    )
    protocol = ServiceProtocol(service, journal=journal)
    replay = protocol.restore(state) if state is not None else None

    if args.tcp:
        server = EstimationServer(
            service,
            config=ServerConfig(
                host=host,
                port=port,
                http=args.http,
                max_pending=args.max_pending,
                idle_timeout=args.idle_timeout or None,
            ),
            journal=journal,
            protocol=protocol,
        )
        server.replay_stats = replay
        return server.run()
    try:
        return _serve_stdio(protocol)
    finally:
        service.close()
        if journal is not None:
            journal.close()


def _serve_stdio(protocol) -> int:
    """The line-delimited JSON loop on stdin/stdout.

    Responses are emitted strictly in input order (execution is
    concurrent; ordering is the protocol's determinism guarantee), one
    JSON object per line.  Emission is **completion-driven**: a writer
    thread blocks on the oldest outstanding job and prints its response
    the moment it resolves, so a request/response client that waits for
    each reply before sending the next line never deadlocks.
    """
    import queue
    import threading

    from repro.server.ops import job_payload

    def resolve(job, base):
        if job is None:
            return base
        job.wait()
        return {**base, **job_payload(job)}

    outbox: "queue.SimpleQueue" = queue.SimpleQueue()
    _done = object()
    write_failed = threading.Event()

    def writer() -> None:
        while True:
            item = outbox.get()
            if item is _done:
                return
            if write_failed.is_set():
                continue  # drain without writing; the reader is gone
            try:
                text = json.dumps(
                    resolve(*item), sort_keys=True, allow_nan=False
                )
            except Exception as exc:
                # A response that cannot be serialized is itself an error
                # response — never a reason to drop the whole stream.
                _, base = item
                text = json.dumps({
                    "id": base.get("id") if isinstance(base, dict) else None,
                    "status": "error",
                    "error": f"unserializable response: {exc}",
                })
            try:
                print(text)
                sys.stdout.flush()
            except OSError:  # e.g. BrokenPipeError: client disconnected
                write_failed.set()

    writer_thread = threading.Thread(
        target=writer, name="repro-serve-writer", daemon=True
    )
    writer_thread.start()
    inflight = []  # jobs not yet known terminal, for barrier ops
    for line_no, line in enumerate(sys.stdin, 1):
        line = line.strip()
        if not line:
            continue
        request_id = line_no
        try:
            payload = json.loads(line)
            # Only op envelopes carry an "id" (a bare spec is passed
            # to the strict spec parser whole, where an extra key
            # would be rejected as an unknown section).
            if (
                isinstance(payload, Mapping)
                and "op" in payload
                and "id" in payload
            ):
                request_id = payload["id"]
            if isinstance(payload, Mapping) and payload.get("op") in (
                "cache", "metrics", "update",
            ):
                # Barrier semantics: a synchronous op observes (or
                # mutates) service state only after every earlier
                # request has fully resolved — the protocol stays
                # deterministic under any worker count.
                for job in inflight:
                    job.wait()
                inflight.clear()
            outcome = protocol.dispatch(payload, request_id)
            if outcome.job is not None:
                inflight.append(outcome.job)
            outbox.put((outcome.job, outcome.response))
        except Exception as exc:
            outbox.put(
                (None, {
                    "id": request_id, "status": "error", "error": str(exc),
                })
            )
        inflight = [job for job in inflight if not job.done]
        if write_failed.is_set():
            break  # nobody is reading: stop burning queries
    outbox.put(_done)
    writer_thread.join()
    return 1 if write_failed.is_set() else 0


def _cmd_run_spec(args) -> int:
    try:
        if args.spec == "-":
            text = sys.stdin.read()
        else:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        spec = EstimationSpec.from_json(text)
        estimation = Estimation(spec)
        if args.stream:
            stream = estimation.stream()
            for snapshot in stream:
                print(f"  [{spec.mode}] rounds={snapshot.rounds} "
                      f"estimate={snapshot.estimate:,.1f} "
                      f"queries={snapshot.total_queries}",
                      file=sys.stderr)
            report = stream.result
        else:
            report = estimation.run()
    except OSError as exc:
        print(f"cannot read spec: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
        return 0
    print(f"mode={report.mode} estimate={report.estimate:,.1f} "
          f"ci95=({report.ci95[0]:,.1f}, {report.ci95[1]:,.1f}) "
          f"queries={report.total_queries} rounds={report.rounds} "
          f"stop={report.stop_reason}")
    return 0


def _cmd_tune(args) -> int:
    from repro.core import suggest_parameters
    from repro.datasets import bool_iid, bool_mixed, yahoo_auto
    from repro.hidden_db.counters import HiddenDBClient
    from repro.hidden_db.interface import TopKInterface

    makers = {"iid": bool_iid, "mixed": bool_mixed, "yahoo": yahoo_auto}
    table = makers[args.dataset](m=args.m, seed=args.seed)
    client = HiddenDBClient(TopKInterface(table, args.k))
    suggestion = suggest_parameters(client, query_budget=args.budget, seed=args.seed)
    print(f"dataset={args.dataset} m={table.num_tuples} k={args.k} "
          f"budget={args.budget}")
    print(f"suggested r={suggestion.r} DUB={suggestion.dub} "
          f"(pilot cost {suggestion.pilot_cost}, "
          f"~{suggestion.expected_rounds} rounds left in budget)")
    for pilot in suggestion.pilots:
        print(f"  DUB={pilot.dub:<6} variance={pilot.variance:.3e} "
              f"cost/round={pilot.cost_per_round:.0f} rounds={pilot.rounds}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``hiddendb-repro`` console script).

    ``REPRO_PROFILE=1`` wraps the dispatched subcommand in cProfile and
    prints the hottest functions to stderr on exit (stdout payloads such
    as ``--json`` reports stay clean).
    """
    from repro.utils.profiling import maybe_profile

    args = build_parser().parse_args(argv)
    with maybe_profile(f"cli:{args.command}"):
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "federate":
            return _cmd_federate(args)
        if args.command == "track":
            return _cmd_track(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "run-spec":
            return _cmd_run_spec(args)
        if args.command == "tune":
            return _cmd_tune(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
