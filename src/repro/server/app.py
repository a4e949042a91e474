"""The asyncio network front door: TCP line-JSON + a minimal HTTP bridge.

:class:`EstimationServer` listens on one TCP socket and speaks two
protocols over it:

* **line-delimited JSON** — the same request payloads the stdio ``serve``
  loop accepts, dispatched through the shared
  :class:`~repro.server.ops.ServiceProtocol` table.  Network-native
  semantics: a ``submit`` is acked immediately (``status: queued`` with
  the job id), snapshots of streaming jobs arrive as ``event: snapshot``
  lines, and the terminal response arrives as an ``event: done`` line —
  so hundreds of sessions multiplex without a slow job blocking the
  connection.  ``"wait": true`` restores the one-line request/response
  shape for simple clients.
* **HTTP/1.1** (enabled with ``http=True``) — the first bytes of each
  connection are sniffed: a request line such as ``POST /submit`` routes
  through the same op table, so ``curl`` can submit and poll without a
  custom client.  One request per connection, ``Connection: close``.

Backpressure & overload
-----------------------
Admission is bounded twice: the per-tenant
:class:`~repro.service.admission.TenantBudgets` ledger refuses tenants
over their ceiling (a structured ``admission_refused`` response, HTTP
429) and the server refuses new submissions while ``max_pending`` jobs
admitted through it are still queued or running (``overloaded``, HTTP
503) — an overloaded server keeps reading and answering, it never leaves
a socket hanging.  Connections idle past ``idle_timeout`` are told so
and closed; writes go through per-connection outboxes with
``drain()``-based flow control.

Shutdown
--------
``run()`` installs SIGTERM/SIGINT handlers: the listener closes first
(no new connections), in-flight jobs drain through
``EstimationService.close(wait=True)``, queued terminal events flush to
their connections, and only then do sockets and the journal close — a
killed server loses at most the journal line being written, which the
tolerant replay parser skips.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.server.journal import Journal
from repro.server.ops import OpError, OpOutcome, ServiceProtocol, job_payload
from repro.service.admission import AdmissionRefused
from repro.service.core import EstimationService

__all__ = ["ServerConfig", "EstimationServer", "BackgroundServer"]

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"DELETE ", b"HEAD ", b"OPTIONS ")

#: The answer to a line over ``max_line_bytes``, after which the
#: connection closes: a framed stream cannot resync past such a line.
_LINE_TOO_LONG = {"status": "error", "error": "line exceeds max_line_bytes"}

_HTTP_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    429: "Too Many Requests", 503: "Service Unavailable",
}


@dataclass
class ServerConfig:
    """Tunables for one :class:`EstimationServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is on ``address``)
    #: Sniff HTTP request lines and serve the submit+poll bridge.
    http: bool = False
    #: Submissions are refused (``overloaded``) while this many jobs
    #: admitted through the server are still queued or running.
    max_pending: int = 64
    #: Seconds a connection may sit idle between requests (None = never).
    idle_timeout: Optional[float] = 300.0
    #: Hard per-line / per-HTTP-header byte ceiling.
    max_line_bytes: int = 1 << 20
    #: Seconds to wait for queued responses to flush at shutdown.
    flush_timeout: float = 5.0


class EstimationServer:
    """One asyncio front door over one :class:`EstimationService`.

    Parameters
    ----------
    service:
        The backing service (owned by the caller unless :meth:`run` is
        used, which closes it on exit).
    config:
        Network tunables (:class:`ServerConfig`).
    journal:
        Optional :class:`~repro.server.journal.Journal` for durable warm
        state; pair with a protocol whose cache was seeded via
        :meth:`~repro.server.ops.ServiceProtocol.restore`.
    protocol:
        A pre-built dispatch table (the CLI builds one so stdio and TCP
        can share it); by default one is created over *service*.
    """

    def __init__(
        self,
        service: EstimationService,
        config: Optional[ServerConfig] = None,
        journal: Optional[Journal] = None,
        protocol: Optional[ServiceProtocol] = None,
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.protocol = protocol or ServiceProtocol(service, journal=journal)
        self.journal = journal if journal is not None else self.protocol.journal
        self.replay_stats: Optional[Dict[str, int]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: Dict[int, Tuple[asyncio.Queue, asyncio.StreamWriter]] = {}
        self._session_ids = 0
        self._conn_tasks: set = set()
        self._counters = {
            "connections_total": 0,
            "http_requests": 0,
            "overloaded": 0,
            "admission_refused": 0,
            "protocol_errors": 0,
            "idle_closed": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting (the bound address is ``address``)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral port 0."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def aclose(self, drain: bool = True) -> None:
        """Stop accepting, drain in-flight jobs, flush, close sockets."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        # service.close blocks on worker threads; keep the loop alive so
        # terminal events still bridge into their session outboxes.
        await loop.run_in_executor(None, self.service.close, drain)
        if drain:
            for outbox, _ in list(self._sessions.values()):
                try:
                    await asyncio.wait_for(
                        outbox.join(), self.config.flush_timeout
                    )
                except asyncio.TimeoutError:  # pragma: no cover - slow peer
                    pass
        for _, writer in list(self._sessions.values()):
            writer.close()
        # Let the per-connection tasks observe EOF and exit before the
        # loop tears down (a cancelled handler logs noisily on 3.11).
        pending = [task for task in self._conn_tasks if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.config.flush_timeout)
        if self.journal is not None:
            self.journal.close()

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT, then drain cleanly (the CLI path).

        Prints one ``{"event": "listening", ...}`` line to stdout once
        bound, so scripts can discover an ephemeral port.
        """
        return asyncio.run(self._amain())

    async def _amain(self) -> int:  # pragma: no cover - signal/CLI shell,
        # exercised by the CI smoke job over a real process
        await self.start()
        host, port = self.address
        print(
            json.dumps(
                {"event": "listening", "host": host, "port": port,
                 "http": self.config.http},
                sort_keys=True,
            ),
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        await self.aclose(drain=True)
        return 0

    # -- metrics -----------------------------------------------------------

    def server_metrics(self) -> Dict[str, Any]:
        """The server-side block grafted onto the ``metrics`` op."""
        block: Dict[str, Any] = {
            **self._counters,
            "connections_open": len(self._sessions),
            "in_flight": self.protocol.in_flight,
            "max_pending": self.config.max_pending,
        }
        if self.journal is not None:
            block["journal"] = self.journal.report()
        if self.replay_stats is not None:
            block["replay"] = self.replay_stats
        return block

    def _dispatch(self, payload: Any, request_id: Any) -> OpOutcome:
        """Shared-table dispatch plus the server's metrics graft."""
        outcome = self.protocol.dispatch(payload, request_id)
        if isinstance(payload, Mapping) and payload.get("op") == "metrics":
            outcome.response["metrics"]["server"] = self.server_metrics()
        return outcome

    # -- connection handling ----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._counters["connections_total"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                first = await self._read_line(reader)
            except ValueError:
                # Over-long first lines, line-JSON or HTTP, get the answer
                # a later over-long line gets.
                answer = json.dumps(_LINE_TOO_LONG, sort_keys=True) + "\n"
                writer.write(answer.encode("utf-8"))
                await writer.drain()
                return
            if first is _IDLE or not first:
                return
            if self.config.http and first.startswith(_HTTP_METHODS):
                self._counters["http_requests"] += 1
                await self._http_request(first, reader, writer)
            else:
                await self._json_session(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-request: nothing left to tell it
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            pass  # abnormal shutdown: nothing useful left to do or log
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            except asyncio.CancelledError:  # pragma: no cover - teardown
                pass
            finally:
                # Deregister only after the socket teardown awaits are
                # done, so aclose() keeps waiting for this task.
                if task is not None:
                    self._conn_tasks.discard(task)

    async def _read_line(self, reader):
        """One line under the idle timeout (``_IDLE`` on expiry)."""
        return await self._idle_bounded(reader.readline())

    async def _idle_bounded(self, read):
        """Await the stream read *read* under the idle timeout.

        Returns ``_IDLE`` when the peer sent nothing more for
        ``idle_timeout`` seconds (``None`` waits forever).
        """
        try:
            return await asyncio.wait_for(read, self.config.idle_timeout)
        except asyncio.TimeoutError:
            return _IDLE

    # -- the line-JSON session --------------------------------------------

    async def _json_session(self, first, reader, writer) -> None:
        outbox: asyncio.Queue = asyncio.Queue()
        self._session_ids += 1
        session_id = self._session_ids
        self._sessions[session_id] = (outbox, writer)
        sender = asyncio.create_task(self._sender(writer, outbox))
        watchers: set = set()
        try:
            line = first
            while True:
                if line and line.strip():
                    await self._handle_line(line, outbox, watchers)
                try:
                    line = await self._read_line(reader)
                except ValueError:
                    outbox.put_nowait(_LINE_TOO_LONG)
                    break
                if line is _IDLE:
                    self._counters["idle_closed"] += 1
                    outbox.put_nowait({
                        "event": "closing", "reason": "idle_timeout",
                    })
                    break
                if not line:
                    break  # EOF: client is done
        finally:
            for task in watchers:
                task.cancel()
            outbox.put_nowait(_DONE)
            await sender
            self._sessions.pop(session_id, None)

    async def _handle_line(self, line, outbox, watchers) -> None:
        request_id = None
        try:
            payload = json.loads(line)
        except ValueError as exc:
            self._counters["protocol_errors"] += 1
            outbox.put_nowait({
                "id": None, "status": "error",
                "error": f"malformed JSON: {exc}",
            })
            return
        if isinstance(payload, Mapping) and "op" in payload:
            request_id = payload.get("id")
        op = payload.get("op") if isinstance(payload, Mapping) else None
        submit = op is None or op == "submit"
        if submit and self.protocol.in_flight >= self.config.max_pending:
            self._counters["overloaded"] += 1
            outbox.put_nowait({
                "id": request_id,
                "status": "overloaded",
                "error": (
                    f"{self.protocol.in_flight} jobs pending "
                    f"(max_pending={self.config.max_pending}); retry later"
                ),
            })
            return
        loop = asyncio.get_running_loop()
        try:
            # Dispatch off-loop: ``update`` mutates tables and ``submit``
            # may wait on the admission lock.
            outcome = await loop.run_in_executor(
                None, self._dispatch, payload, request_id
            )
        except AdmissionRefused as exc:
            self._counters["admission_refused"] += 1
            outbox.put_nowait({
                "id": request_id,
                "status": "admission_refused",
                "tenant": exc.tenant,
                "error": str(exc),
            })
            return
        except (OpError, ValueError, KeyError, TypeError) as exc:
            self._counters["protocol_errors"] += 1
            outbox.put_nowait({
                "id": request_id, "status": "error", "error": str(exc),
            })
            return
        if outcome.job is None:
            outbox.put_nowait(outcome.response)
            return
        wait = (
            op == "result"
            or (isinstance(payload, Mapping) and bool(payload.get("wait")))
        )
        if wait and not outcome.stream:
            watchers.add(asyncio.create_task(
                self._await_final(outcome, outbox)
            ))
            return
        outbox.put_nowait({
            **outcome.response, "status": "queued", "state": outcome.job.state,
        })
        watchers.add(asyncio.create_task(self._pump_job(outcome, outbox)))

    def _job_queue(self, job) -> asyncio.Queue:
        """Bridge the job's thread-side event push into an asyncio queue.

        The subscriber replays the recorded snapshot log first, so a
        subscription is never missing prefix events; ``None`` marks the
        terminal transition.  The bridge must never raise into the
        service's worker thread — a closed loop just drops the event.
        """
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def bridge(snapshot) -> None:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, snapshot)
            except RuntimeError:  # pragma: no cover - loop shut down
                pass

        job.subscribe(bridge)
        return queue

    async def _await_final(self, outcome: OpOutcome, outbox) -> None:
        """``wait: true`` / ``result``: one final line, no events."""
        queue = self._job_queue(outcome.job)
        while await queue.get() is not None:
            pass
        outbox.put_nowait({**outcome.response, **job_payload(outcome.job)})

    async def _pump_job(self, outcome: OpOutcome, outbox) -> None:
        """Network-native completion: snapshot events, then ``done``."""
        queue = self._job_queue(outcome.job)
        seq = 0
        base = outcome.response
        while True:
            snapshot = await queue.get()
            if snapshot is None:
                break
            if outcome.stream:
                seq += 1
                outbox.put_nowait({
                    "id": base.get("id"),
                    "job": outcome.job.id,
                    "event": "snapshot",
                    "seq": seq,
                    "snapshot": snapshot.to_dict(),
                })
        outbox.put_nowait({
            **base, "event": "done", "snapshots": seq,
            **job_payload(outcome.job),
        })

    async def _sender(self, writer, outbox) -> None:
        """The per-connection write pump (serializes interleaved events)."""
        alive = True
        while True:
            item = await outbox.get()
            try:
                if item is _DONE:
                    return
                if not alive:
                    continue  # drain silently; the peer is gone
                try:
                    text = json.dumps(item, sort_keys=True, allow_nan=False)
                except (TypeError, ValueError) as exc:
                    text = json.dumps({
                        "id": item.get("id") if isinstance(item, dict) else None,
                        "status": "error",
                        "error": f"unserializable response: {exc}",
                    })
                try:
                    writer.write(text.encode("utf-8") + b"\n")
                    await writer.drain()
                except (ConnectionError, OSError):
                    alive = False
            finally:
                outbox.task_done()

    # -- the HTTP/1.1 bridge ----------------------------------------------

    async def _http_request(self, first, reader, writer) -> None:
        """One sniffed HTTP exchange: route, respond, close."""
        try:
            method, target, _ = first.decode("latin-1").split(None, 2)
        except ValueError:
            await self._http_respond(writer, 400, {
                "status": "error", "error": "malformed request line",
            })
            return
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await self._read_line(reader)
            except ValueError:  # header line over max_line_bytes
                self._counters["protocol_errors"] += 1
                await self._http_respond(writer, 400, {
                    "status": "error",
                    "error": "header line exceeds max_line_bytes",
                })
                return
            if line is _IDLE:
                return
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        limit = self.config.max_line_bytes
        if not 0 <= length <= limit:
            self._counters["protocol_errors"] += 1
            await self._http_respond(writer, 400, {
                "status": "error",
                "error": f"bad Content-Length {raw_length!r}: expected an "
                         f"integer from 0 to max_line_bytes ({limit})",
            })
            return
        body = b""
        if length:
            body = await self._idle_bounded(reader.readexactly(length))
            if body is _IDLE:
                self._counters["idle_closed"] += 1
                await self._http_respond(writer, 408, {
                    "status": "error",
                    "error": f"request body shorter than its Content-Length "
                             f"({length}) after idle_timeout",
                })
                return
        status, payload = await self._http_route(method, target, body)
        await self._http_respond(writer, status, payload)

    async def _http_route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        wait = query.get("wait", ["0"])[0] not in ("0", "", "false")
        try:
            if method == "POST" and path == "/submit":
                return await self._http_submit(body, wait)
            if method == "GET" and path.startswith("/result/"):
                return await self._http_result(path[len("/result/"):], wait)
            if method == "POST" and path.startswith("/cancel/"):
                return self._http_op_sync({
                    "op": "cancel", "job": _int_ref(path[len("/cancel/"):]),
                })
            if method == "GET" and path == "/metrics":
                return self._http_op_sync({"op": "metrics"})
            if method == "GET" and path == "/cache":
                return self._http_op_sync({"op": "cache"})
            if method == "POST" and path == "/update":
                return self._http_op_sync(_loads_object(body))
            return 404, {
                "status": "error",
                "error": f"no route for {method} {path}",
                "routes": [
                    "POST /submit[?wait=1]", "GET /result/<job>[?wait=1]",
                    "POST /cancel/<job>", "GET /metrics", "GET /cache",
                    "POST /update",
                ],
            }
        except AdmissionRefused as exc:
            self._counters["admission_refused"] += 1
            return 429, {
                "status": "admission_refused",
                "tenant": exc.tenant,
                "error": str(exc),
            }
        except (OpError, ValueError, KeyError, TypeError) as exc:
            self._counters["protocol_errors"] += 1
            return 400, {"status": "error", "error": str(exc)}

    async def _http_submit(
        self, body: bytes, wait: bool
    ) -> Tuple[int, Dict[str, Any]]:
        if self.protocol.in_flight >= self.config.max_pending:
            self._counters["overloaded"] += 1
            return 503, {
                "status": "overloaded",
                "error": (
                    f"{self.protocol.in_flight} jobs pending "
                    f"(max_pending={self.config.max_pending}); retry later"
                ),
            }
        payload = _loads_object(body)
        if "op" not in payload:
            payload = {"op": "submit", "spec": payload}
        elif payload["op"] != "submit":
            raise OpError("POST /submit only accepts submit requests")
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(None, self._dispatch, payload, None)
        if wait and not outcome.stream:
            queue = self._job_queue(outcome.job)
            while await queue.get() is not None:
                pass
            return 200, {**outcome.response, **job_payload(outcome.job)}
        return 202, {
            **outcome.response, "status": "queued",
            "state": outcome.job.state,
            "poll": f"/result/{outcome.job.id}",
        }

    async def _http_result(
        self, ref: str, wait: bool
    ) -> Tuple[int, Dict[str, Any]]:
        outcome = self._dispatch({"op": "result", "job": _int_ref(ref)}, None)
        if outcome.job is None:
            return 200, outcome.response
        if not wait:
            return 202, {
                **outcome.response, "status": "pending",
                "state": outcome.job.state,
            }
        queue = self._job_queue(outcome.job)
        while await queue.get() is not None:
            pass
        return 200, {**outcome.response, **job_payload(outcome.job)}

    def _http_op_sync(self, payload: Mapping) -> Tuple[int, Dict[str, Any]]:
        return 200, self._dispatch(payload, None).response

    async def _http_respond(
        self, writer, status: int, payload: Dict[str, Any]
    ) -> None:
        try:
            data = json.dumps(payload, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as exc:  # pragma: no cover
            status, data = 500, json.dumps({
                "status": "error", "error": f"unserializable response: {exc}",
            })
        body = data.encode("utf-8") + b"\n"
        reason = _HTTP_REASONS.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer gone
            pass


#: Sentinels for the session machinery.
_DONE = object()
_IDLE = object()


def _loads_object(body: bytes) -> Dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise OpError(f"malformed JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise OpError("request body must be a JSON object")
    return payload


def _int_ref(ref: str) -> int:
    try:
        return int(ref)
    except ValueError:
        raise OpError(f"job reference must be an integer, got {ref!r}") from None


class BackgroundServer:
    """Run an :class:`EstimationServer` on a dedicated thread.

    The test-and-bench harness: the event loop lives on its own thread,
    ``__enter__`` blocks until the socket is bound (``address`` is then
    safe to read) and ``__exit__`` drains and joins.  Production servers
    use :meth:`EstimationServer.run` on the main thread instead.
    """

    def __init__(self, server: EstimationServer) -> None:
        self.server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="repro-server", daemon=True
        )
        self._startup_error: Optional[BaseException] = None

    def _main(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start()
        except BaseException as exc:  # pragma: no cover - bind failure
            self._startup_error = exc
            self._ready.set()
            raise
        self._ready.set()
        await self._stop.wait()
        await self.server.aclose(drain=True)

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:  # pragma: no cover
            raise self._startup_error
        if self._loop is None:  # pragma: no cover - startup hang
            raise RuntimeError("server thread failed to start")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already dead
                pass
        self._thread.join(timeout=30)
