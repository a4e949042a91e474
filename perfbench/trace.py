"""Spans around the calls into each layer of ``src/repro``, installed from
outside the program.

:func:`install` wraps the public functions the benchmark's workloads reach
(class attributes and module globals, patched in place) so that every call
records a span: name, start, end, parent and request id.  Spans live in
memory, one list per thread, and are written out or folded into per-layer
metrics when the run ends.  A layer's self time is its spans' durations
minus the parts covered by their child spans on the same thread.

Worker processes of a process pool inherit the wrappers but record
nothing: their time stays inside the engine's wait span of the parent.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

#: Every per-layer metric, in print order.  ``BENCHMARK.json`` lists the
#: same names; a layer a workload never reaches reads 0.
PER_LAYER_METRICS = (
    "datasets.build_s",
    "datasets.churn_s",
    "hidden_db.table.update_s",
    "hidden_db.table.rows_changed",
    "hidden_db.backend.self_s",
    "hidden_db.backend.calls",
    "hidden_db.backend.probes",
    "hidden_db.backend.cached_prefixes",
    "hidden_db.interface.self_s",
    "hidden_db.interface.pages_materialized",
    "hidden_db.interface.tuples_materialized",
    "hidden_db.client.self_s",
    "hidden_db.client.lookups",
    "hidden_db.client.hits",
    "hidden_db.client.charged",
    "hidden_db.sharing.export_s",
    "core.walker.self_s",
    "core.cohort.self_s",
    "core.cohort.rounds",
    "core.engine.pool_start_s",
    "core.engine.wait_s",
    "core.engine.waves",
    "core.dynamic.step_s",
    "core.dynamic.truth_s",
    "api.compile_s",
    "api.report_s",
    "api.report_bytes",
    "cli.self_s",
    "service.queue_wait_s",
    "service.cache.self_s",
    "service.cache.lookups",
    "service.cache.hits",
    "server.dispatch_s.submit",
    "server.dispatch_s.update",
    "server.dispatch_s.metrics",
    "server.journal_s",
    "server.journal_bytes",
    "server.bytes_out",
    "server.events_out",
    "unattributed_s",
    "tracing_overhead_s",
)

#: Self-time metrics: metric name -> span name.
SELF_TIME = {
    "datasets.build_s": "datasets.build",
    "datasets.churn_s": "datasets.churn",
    "hidden_db.table.update_s": "hidden_db.table.update",
    "hidden_db.backend.self_s": "hidden_db.backend",
    "hidden_db.interface.self_s": "hidden_db.interface",
    "hidden_db.client.self_s": "hidden_db.client",
    "hidden_db.sharing.export_s": "hidden_db.sharing.export",
    "core.walker.self_s": "core.walker",
    "core.cohort.self_s": "core.cohort",
    "core.engine.pool_start_s": "core.engine.pool_start",
    "core.engine.wait_s": "core.engine.wait",
    "core.dynamic.step_s": "core.dynamic.step",
    "core.dynamic.truth_s": "core.dynamic.truth",
    "api.compile_s": "api.compile",
    "api.report_s": "api.report",
    "cli.self_s": "cli",
    "service.cache.self_s": "service.cache",
    "server.dispatch_s.submit": "server.dispatch.submit",
    "server.dispatch_s.update": "server.dispatch.update",
    "server.dispatch_s.metrics": "server.dispatch.metrics",
    "server.journal_s": "server.journal",
}


class Tracer:
    """In-memory span and count recorder for one process.

    A finished span is the tuple ``(name, start, end, seq, parent,
    request)``: *seq* numbers the spans of one thread in opening order and
    *parent* is the enclosing span's *seq* (or -1).  Tuples of plain
    values are not tracked by the garbage collector, so a long trace does
    not slow the collections of the program it measures.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one (thread key, spans, counts) per thread
        self.backends = set()  # strong: servers drop their tables before the dump
        self.request = None  # request id of spans outside any job thread
        self._submitted = {}  # job id -> creation time

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # spans, open-span stack, [request id, next seq], counts
            state = ([], [], [None, 0], defaultdict(float))
            with self._lock:
                # Thread names can repeat; the registration number cannot.
                key = f"{threading.current_thread().name}#{len(self._threads)}"
                self._threads.append((key, state[0], state[3]))
            self._local.state = state
        return state

    def active(self) -> bool:
        return self.enabled and os.getpid() == self.pid

    def depth_in(self, name: str) -> bool:
        """True when a span named *name* is open on this thread."""
        return any(frame[0] == name for frame in self._state()[1])

    def set_request(self, request) -> None:
        self._state()[2][0] = request

    def open(self, name: str) -> None:
        _, stack, meta, _ = self._state()
        parent = stack[-1][2] if stack else -1
        request = meta[0] if meta[0] is not None else self.request
        stack.append((name, time.perf_counter(), meta[1], parent, request))
        meta[1] += 1

    def close(self) -> None:
        end = time.perf_counter()
        spans, stack = self._state()[:2]
        name, start, seq, parent, request = stack.pop()
        spans.append((name, start, end, seq, parent, request))

    def count(self, name: str, amount: float = 1) -> None:
        self._state()[3][name] += amount

    def counts(self) -> dict:
        """Counts summed over every thread."""
        total = defaultdict(float)
        with self._lock:
            threads = list(self._threads)
        for _, _, counts in threads:
            for name, value in list(counts.items()):
                total[name] += value
        total["hidden_db.backend.cached_prefixes"] = sum(
            len(b._selection_cache) for b in list(self.backends)
        )
        return dict(total)

    # -- output ------------------------------------------------------------

    def spans(self):
        """Every finished span as ``(thread, seq, name, start, end,
        parent, request)``."""
        with self._lock:
            threads = list(self._threads)
        return [
            (thread, seq, name, start, end, parent, request)
            for thread, spans, _ in threads
            for name, start, end, seq, parent, request in list(spans)
        ]

    def dump(self, path: str) -> None:
        """Write spans and counts as JSON (the traced server's hand-off)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans(), "counts": self.counts()}, fh)


def layer_metrics(spans, counts, start: float, end: float) -> dict:
    """Per-layer metrics from spans that start inside ``[start, end]``.

    Self time of a span is its duration minus its children's durations
    (children run on the same thread and nest inside it).  The window's
    wall time not covered by any top-level span is ``unattributed_s``.
    """
    inside = [s for s in spans if start <= s[3] <= end]
    child_time = defaultdict(float)
    for thread, seq, name, s0, s1, parent, _ in inside:
        if parent >= 0:
            child_time[(thread, parent)] += s1 - s0
    self_time = defaultdict(float)
    top = []
    for thread, seq, name, s0, s1, parent, _ in inside:
        self_time[name] += (s1 - s0) - child_time[(thread, seq)]
        if parent < 0:
            top.append((s0, min(s1, end)))
    covered = 0.0
    reach = start
    for s0, s1 in sorted(top):
        if s1 > reach:
            covered += s1 - max(s0, reach)
            reach = s1
    metrics = {name: 0.0 for name in PER_LAYER_METRICS}
    for metric, span_name in SELF_TIME.items():
        metrics[metric] = self_time.get(span_name, 0.0)
    for name, value in counts.items():
        if name in metrics:
            metrics[name] += value
    metrics["unattributed_s"] = max(0.0, (end - start) - covered)
    return metrics


# -- wrappers -------------------------------------------------------------


def spanned(tracer: Tracer, name: str, fn, count=None, before=None):
    """*fn* wrapped in a span called *name*.

    After the call, ``count(tracer, result, args, snapshot)`` records
    counts, where *snapshot* is ``before(args)`` taken before the call.
    With *before* given, counting happens only at the outermost call of
    the layer, so a layer calling itself is not counted twice.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active():
            return fn(*args, **kwargs)
        outer = count is not None and not tracer.depth_in(name)
        snapshot = before(args) if outer and before is not None else None
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if outer:
            count(tracer, result, args, snapshot)
        return result

    return wrapper


def _patch(cls, attr: str, wrap) -> None:
    """Replace ``cls.attr`` by ``wrap(original)`` (classmethods kept)."""
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(wrap(original.__func__)))
    else:
        setattr(cls, attr, wrap(original))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach.  Idempotence is
    not needed: each benchmark process installs once, before any work."""
    import repro.api.compiler as compiler
    import repro.api.session as session
    import repro.core.cohort as cohort
    import repro.core.dynamic as dynamic
    import repro.core.engine as engine
    import repro.hidden_db.sharing as sharing
    from repro.api.report import AggregateReport
    from repro.api.spec import EstimationSpec
    from repro.core.estimators import _DrillDownEstimator
    from repro.datasets.churn import ChurnGenerator
    from repro.hidden_db.backends.naive import NaiveScanBackend
    from repro.hidden_db.counters import HiddenDBClient
    from repro.hidden_db.interface import QueryResult, TopKInterface
    from repro.hidden_db.table import HiddenTable
    from repro.server.journal import Journal
    from repro.server.ops import ServiceProtocol
    from repro.service.cache import ResultCache
    from repro.service.core import EstimationService
    from repro.service.jobs import Job

    def span(name, **kw):
        return lambda fn: spanned(tracer, name, fn, **kw)

    # datasets
    build = span("datasets.build")(compiler.DATASET_MAKERS["yahoo"])
    compiler.DATASET_MAKERS["yahoo"] = build
    _patch(ChurnGenerator, "__init__", span("datasets.churn"))
    _patch(ChurnGenerator, "epoch", span("datasets.churn"))

    # hidden_db: table, backend, interface, client, sharing
    def rows_changed(tracer, delta, args, snapshot):
        tracer.count(
            "hidden_db.table.rows_changed",
            delta.num_inserted + delta.num_deleted + int(delta.modified_ids.size),
        )

    _patch(HiddenTable, "apply_updates",
           span("hidden_db.table.update", count=rows_changed))

    def backend_probes(probes):
        def count(tracer, result, args, snapshot):
            tracer.backends.add(args[0])
            tracer.count("hidden_db.backend.calls")
            tracer.count("hidden_db.backend.probes", probes(args))
        return count

    for attr, probes in (
        ("selection_ids", lambda a: 1),
        ("selection_count", lambda a: 1),
        ("selection_counts_many", lambda a: len(a[1])),
    ):
        _patch(NaiveScanBackend, attr,
               span("hidden_db.backend", count=backend_probes(probes)))

    for attr in ("query", "query_many", "classify_many"):
        _patch(TopKInterface, attr, span("hidden_db.interface"))
    tuples = QueryResult.tuples.fget

    def materialize(result):
        if result._tuples is not None or not tracer.active():
            return tuples(result)
        tracer.open("hidden_db.interface")
        try:
            page = tuples(result)
        finally:
            tracer.close()
        tracer.count("hidden_db.interface.pages_materialized")
        tracer.count("hidden_db.interface.tuples_materialized", len(page))
        return page

    QueryResult.tuples = property(materialize, doc=QueryResult.tuples.__doc__)

    def client_before(args):
        client = args[0]
        return client.cache_hits, client.cache_misses, client.cost

    def client_counts(tracer, result, args, snapshot):
        client = args[0]
        hits = client.cache_hits - snapshot[0]
        tracer.count("hidden_db.client.lookups", hits + client.cache_misses - snapshot[1])
        tracer.count("hidden_db.client.hits", hits)
        tracer.count("hidden_db.client.charged", client.cost - snapshot[2])

    for attr in ("query", "query_many"):
        _patch(HiddenDBClient, attr,
               span("hidden_db.client", count=client_counts, before=client_before))
    sharing.export_table = span("hidden_db.sharing.export")(sharing.export_table)

    # core: walker, cohort, engine, dynamic
    _patch(_DrillDownEstimator, "run_once", span("core.walker"))
    run_cohort = span(
        "core.cohort",
        count=lambda t, r, a, s: t.count("core.cohort.rounds", len(a[1])),
    )(cohort.run_cohort)
    cohort.run_cohort = run_cohort
    engine.run_cohort = run_cohort
    get_pool = engine.ParallelSession._get_pool

    def pool(self):
        if self._pool is not None or not tracer.active():
            return get_pool(self)
        tracer.open("core.engine.pool_start")
        try:
            return get_pool(self)
        finally:
            tracer.close()

    engine.ParallelSession._get_pool = pool
    _patch(engine.ParallelSession, "run_rounds", span(
        "core.engine.wait",
        count=lambda t, r, a, s: t.count("core.engine.waves"),
    ))
    _patch(dynamic.RSReissueEstimator, "step", span("core.dynamic.step"))
    dynamic._ground_truth = span("core.dynamic.truth")(dynamic._ground_truth)

    # api
    _patch(EstimationSpec, "from_dict", span("api.compile"))
    session.build_estimator = span("api.compile")(compiler.build_estimator)

    def json_bytes(position):
        def count(tracer, result, args, snapshot):
            text = result if position is None else args[position]
            tracer.count("api.report_bytes", len(text))
        return count

    _patch(AggregateReport, "to_dict", span("api.report"))
    _patch(AggregateReport, "to_json", span("api.report", count=json_bytes(None)))
    _patch(AggregateReport, "from_json", span("api.report", count=json_bytes(1)))

    # service: queue wait (submit -> start) and the result cache
    job_init = Job.__init__

    def job_created(job, *args, **kwargs):
        job_init(job, *args, **kwargs)
        if tracer.active():
            tracer._submitted[job.id] = time.perf_counter()

    Job.__init__ = job_created
    start_job = Job._start

    def job_start(job):
        started = start_job(job)
        if tracer.active():
            t0 = tracer._submitted.pop(job.id, None)
            if t0 is not None:
                tracer.count("service.queue_wait_s", time.perf_counter() - t0)
        return started

    Job._start = job_start
    run_job = EstimationService._run_job

    def run_job_with_request(self, job):
        if tracer.active():
            tracer.set_request(job.id)
        return run_job(self, job)

    EstimationService._run_job = run_job_with_request

    def cache_hit(tracer, result, args, snapshot):
        tracer.count("service.cache.lookups")
        tracer.count("service.cache.hits", result is not None)

    _patch(ResultCache, "lookup", span("service.cache", count=cache_hit))
    _patch(ResultCache, "store", span("service.cache"))

    # server: per-op dispatch and the journal
    dispatch = ServiceProtocol.dispatch

    def dispatch_op(self, payload, request_id):
        if not tracer.active():
            return dispatch(self, payload, request_id)
        op = payload.get("op") if isinstance(payload, dict) else None
        tracer.open(f"server.dispatch.{op or 'submit'}")
        try:
            return dispatch(self, payload, request_id)
        finally:
            tracer.close()

    ServiceProtocol.dispatch = dispatch_op
    for attr in ("record_submit", "record_terminal", "record_cache"):
        _patch(Journal, attr, span("server.journal"))

