"""The asyncio front door over a real socket: TCP line-JSON + HTTP.

Everything here runs against a :class:`BackgroundServer` on an ephemeral
loopback port — real connections, real framing, real backpressure — and
pins the server's central contract: what arrives over the wire is
byte-identical to what the in-process facade computes.
"""

import contextlib
import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.api import (
    DatasetSpec,
    Estimation,
    EstimationSpec,
    RegimeSpec,
    TargetSpec,
)
from repro.server import BackgroundServer, EstimationServer, ServerConfig
from repro.service import EstimationService


def make_spec(seed=0, rounds=4, m=400, k=24, dataset_seed=3, **regime):
    return EstimationSpec(
        target=TargetSpec(
            dataset=DatasetSpec(name="iid", m=m, seed=dataset_seed), k=k
        ),
        regime=RegimeSpec(rounds=rounds, seed=seed, **regime),
    )


@contextlib.contextmanager
def running_server(workers=2, tenant_budget=None, **config):
    service = EstimationService(
        workers=workers, default_tenant_budget=tenant_budget
    )
    server = EstimationServer(service, ServerConfig(**config))
    with BackgroundServer(server) as bg:
        yield bg


class LineClient:
    """A blocking line-JSON client (one request or event per line)."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.fh = self.sock.makefile("rw", encoding="utf-8")

    def send(self, payload) -> None:
        self.fh.write(json.dumps(payload) + "\n")
        self.fh.flush()

    def send_raw(self, text: str) -> None:
        self.fh.write(text)
        self.fh.flush()

    def recv(self):
        line = self.fh.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def recv_until(self, predicate):
        """Read events until one satisfies *predicate*; returns all."""
        seen = []
        while True:
            msg = self.recv()
            seen.append(msg)
            if predicate(msg):
                return seen

    def close(self) -> None:
        self.fh.close()
        self.sock.close()


@contextlib.contextmanager
def connected(bg):
    client = LineClient(bg.address)
    try:
        yield client
    finally:
        client.close()


def http_json(url, data=None, method=None):
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_wire_report_equals_in_process_run(self, workers):
        """The acceptance criterion: TCP responses are byte-identical to
        ``Estimation.run`` at every worker count."""
        spec = make_spec(seed=21)
        expected = Estimation(spec).run().to_json()
        with running_server(workers=workers) as bg, connected(bg) as client:
            client.send({
                "op": "submit", "id": "w", "spec": spec.to_dict(),
                "wait": True,
            })
            response = client.recv()
        assert response["status"] == "done"
        assert (
            json.dumps(response["report"], sort_keys=True) == expected
        )

    def test_streaming_sequence_matches_facade(self):
        spec = make_spec(seed=22, rounds=5)
        stream = Estimation(spec).stream()
        expected = [snapshot.to_dict() for snapshot in stream]
        with running_server() as bg, connected(bg) as client:
            client.send({
                "op": "submit", "id": "s", "spec": spec.to_dict(),
                "stream": True,
            })
            events = client.recv_until(lambda m: m.get("event") == "done")
        ack, *rest = events
        assert ack["status"] == "queued"
        snapshots = [e for e in rest if e.get("event") == "snapshot"]
        assert [e["snapshot"] for e in snapshots] == expected
        assert [e["seq"] for e in snapshots] == list(
            range(1, len(expected) + 1)
        )
        done = rest[-1]
        assert done["status"] == "done" and done["snapshots"] == len(expected)
        assert done["report"] == stream.result.to_dict()


class TestProtocolFlow:
    def test_ack_then_done_event(self):
        with running_server() as bg, connected(bg) as client:
            client.send({
                "op": "submit", "id": "a", "spec": make_spec(seed=23).to_dict(),
            })
            ack = client.recv()
            assert ack["status"] == "queued" and ack["id"] == "a"
            done = client.recv()
            assert done["event"] == "done" and done["job"] == ack["job"]
            assert done["status"] == "done"

    def test_result_op_waits_for_the_job(self):
        with running_server() as bg, connected(bg) as client:
            client.send({
                "op": "submit", "id": "a", "spec": make_spec(seed=24).to_dict(),
            })
            ack = client.recv()
            client.send({"op": "result", "id": "r", "job": ack["job"]})
            events = client.recv_until(
                lambda m: m.get("id") == "r" and "status" in m
            )
            assert events[-1]["status"] == "done"
            assert events[-1]["report"]["estimate"] > 0

    def test_cancel_over_a_real_socket(self):
        """Acceptance: the CI smoke's cancel path, as a unit test."""
        slow = make_spec(seed=25, rounds=64, m=2000)
        with running_server(workers=1) as bg, connected(bg) as client:
            client.send({
                "op": "submit", "id": "s", "spec": slow.to_dict(),
                "stream": True,
            })
            ack = client.recv()
            client.send({"op": "cancel", "id": "c", "job": ack["job"]})
            events = client.recv_until(lambda m: m.get("event") == "done")
            cancel_ack = [e for e in events if e.get("id") == "c"]
            assert cancel_ack and cancel_ack[0]["cancel_requested"] is True
            assert events[-1]["status"] == "cancelled"

    def test_errors_keep_the_connection_usable(self):
        with running_server() as bg, connected(bg) as client:
            client.send_raw("this is not json\n")
            assert "malformed JSON" in client.recv()["error"]
            client.send([1, 2, 3])
            assert "JSON object" in client.recv()["error"]
            client.send({"op": "frobnicate", "id": 9})
            response = client.recv()
            assert response["id"] == 9
            assert "unknown request op" in response["error"]
            # The session survives all three refusals.
            client.send({
                "op": "submit", "id": "ok",
                "spec": make_spec(seed=26).to_dict(), "wait": True,
            })
            assert client.recv()["status"] == "done"

    def test_metrics_carries_the_server_block(self):
        with running_server() as bg, connected(bg) as client:
            client.send({"op": "metrics", "id": "m"})
            response = client.recv()
            block = response["metrics"]["server"]
            assert block["connections_open"] == 1
            assert block["in_flight"] == 0
            assert block["max_pending"] == 64
            assert "counters" in response["metrics"]


class TestBackpressure:
    def test_overloaded_when_pending_exceeds_cap(self):
        slow = make_spec(seed=27, rounds=64, m=2000)
        with running_server(workers=1, max_pending=1) as bg:
            with connected(bg) as client:
                client.send({
                    "op": "submit", "id": 1, "spec": slow.to_dict(),
                    "stream": True,
                })
                assert client.recv()["status"] == "queued"
                client.send({
                    "op": "submit", "id": 2, "spec": make_spec().to_dict(),
                })
                refused = client.recv()
                assert refused["status"] == "overloaded"
                assert refused["id"] == 2
                assert "max_pending=1" in refused["error"]
                # Non-submit ops still answer while overloaded.
                client.send({"op": "metrics", "id": 3})
                assert client.recv()["metrics"]["server"]["overloaded"] == 1
                client.send({"op": "cancel", "id": 4, "job": 1})

    def test_admission_refused_is_structured(self):
        with running_server(workers=1, tenant_budget=1) as bg:
            with connected(bg) as client:
                client.send({
                    "op": "submit", "id": 1,
                    "spec": make_spec(seed=28).to_dict(), "wait": True,
                })
                assert client.recv()["status"] == "done"
                client.send({
                    "op": "submit", "id": 2,
                    "spec": make_spec(seed=29).to_dict(),
                })
                refused = client.recv()
                assert refused["status"] == "admission_refused"
                assert refused["tenant"] == "default"
                assert "exhausted" in refused["error"]

    def test_idle_timeout_closes_politely(self):
        with running_server(idle_timeout=0.3) as bg, connected(bg) as client:
            client.send({"op": "metrics", "id": 1})
            assert client.recv()["status"] == "ok"
            deadline = time.time() + 10
            closing = client.recv()  # idle between requests: told, then EOF
            assert closing == {"event": "closing", "reason": "idle_timeout"}
            assert time.time() < deadline
            assert client.fh.readline() == ""  # EOF follows

    def test_silent_connections_are_reaped(self):
        with running_server(idle_timeout=0.2) as bg, connected(bg) as client:
            # Never sending a line: the server just closes (nothing to say
            # to a peer that has not spoken the protocol yet).
            assert client.fh.readline() == ""


class TestHttpBridge:
    def test_submit_poll_and_metrics(self):
        spec = make_spec(seed=30)
        expected = Estimation(spec).run().to_json()
        with running_server(http=True) as bg:
            host, port = bg.address
            base = f"http://{host}:{port}"
            body = json.dumps(spec.to_dict()).encode()
            status, ack = http_json(f"{base}/submit", data=body)
            assert status == 202 and ack["status"] == "queued"
            deadline = time.time() + 30
            while True:
                status, polled = http_json(f"{base}{ack['poll']}")
                if status == 200:
                    break
                assert status == 202 and polled["status"] == "pending"
                assert time.time() < deadline
                time.sleep(0.05)
            assert polled["status"] == "done"
            assert json.dumps(polled["report"], sort_keys=True) == expected
            status, metrics = http_json(f"{base}/metrics")
            assert status == 200
            assert metrics["metrics"]["server"]["http_requests"] >= 2
            status, cache = http_json(f"{base}/cache")
            assert status == 200 and cache["cache"]["entries"] == 1

    def test_submit_wait_blocks_for_the_report(self):
        spec = make_spec(seed=31)
        with running_server(http=True) as bg:
            host, port = bg.address
            status, response = http_json(
                f"http://{host}:{port}/submit?wait=1",
                data=json.dumps(spec.to_dict()).encode(),
            )
            assert status == 200 and response["status"] == "done"

    def test_error_statuses(self):
        with running_server(http=True) as bg:
            host, port = bg.address
            base = f"http://{host}:{port}"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(f"{base}/nope")
            assert excinfo.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(f"{base}/submit", data=b"{not json")
            assert excinfo.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                http_json(f"{base}/result/abc")
            assert excinfo.value.code == 400

    @staticmethod
    def raw_exchange(address, request: bytes, timeout=10.0):
        """Send raw HTTP bytes, keep the socket open, read to EOF.

        Returns ``(status, payload)`` of the one response the server
        must send before closing; a hang fails on the socket timeout.
        """
        with socket.create_connection(address, timeout=timeout) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head, "connection closed without a response"
        status = int(head.split(None, 2)[1])
        return status, json.loads(body)

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_is_a_400(self, length):
        with running_server(http=True) as bg:
            status, payload = self.raw_exchange(
                bg.address,
                b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}",
            )
        assert status == 400
        assert payload["status"] == "error"
        assert "Content-Length" in payload["error"]

    def test_content_length_over_max_line_bytes_is_a_400(self):
        with running_server(http=True, max_line_bytes=4096) as bg:
            status, payload = self.raw_exchange(
                bg.address,
                b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 5000\r\n\r\n{}",
            )
        assert status == 400
        assert "max_line_bytes" in payload["error"]

    def test_header_line_over_max_line_bytes_is_a_400(self):
        with running_server(http=True, max_line_bytes=4096) as bg:
            status, payload = self.raw_exchange(
                bg.address,
                b"GET /metrics HTTP/1.1\r\nX-Pad: " + b"a" * 5000
                + b"\r\n\r\n",
            )
        assert status == 400
        assert "max_line_bytes" in payload["error"]

    @pytest.mark.parametrize("first_line", [
        b'{"op": "metrics", "pad": "' + b"a" * 5000 + b'"}\n',
        b"GET /metrics?pad=" + b"a" * 5000 + b" HTTP/1.1\r\n\r\n",
    ], ids=["line_json", "http_request_line"])
    def test_first_line_over_max_line_bytes_is_answered(self, first_line):
        """An over-long *first* line gets the structured error a later
        over-long line gets (not an empty reply), and the server keeps
        serving the next connection."""
        with running_server(http=True, max_line_bytes=4096) as bg:
            with socket.create_connection(bg.address, timeout=10) as sock:
                sock.sendall(first_line)
                reply = sock.makefile("rb").read()  # to EOF: it closes
            assert json.loads(reply) == {
                "status": "error", "error": "line exceeds max_line_bytes",
            }
            with connected(bg) as client:
                client.send({"op": "metrics", "id": "next"})
                assert client.recv()["id"] == "next"

    def test_short_body_times_out_with_a_408(self):
        with running_server(http=True, idle_timeout=0.5) as bg:
            started = time.time()
            status, payload = self.raw_exchange(
                bg.address,
                b"POST /submit HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{\"target\":",
            )
            elapsed = time.time() - started
        assert status == 408
        assert payload["status"] == "error"
        assert "Content-Length" in payload["error"]
        assert elapsed < 5

    def test_http_disabled_by_default(self):
        with running_server() as bg, connected(bg) as client:
            # Without http=True a request line is just a malformed JSON
            # line — answered structurally, not as HTTP.
            client.send_raw("GET /metrics HTTP/1.1\r\n")
            assert client.recv()["status"] == "error"


class TestLifecycle:
    def test_address_resolves_ephemeral_port(self):
        with running_server() as bg:
            host, port = bg.address
            assert host == "127.0.0.1" and port > 0

    def test_shutdown_drains_in_flight_jobs(self):
        service = EstimationService(workers=1)
        server = EstimationServer(service, ServerConfig())
        bg = BackgroundServer(server)
        with bg:
            client = LineClient(bg.address)
            client.send({
                "op": "submit", "id": "d", "spec": make_spec(seed=32).to_dict(),
            })
            assert client.recv()["status"] == "queued"
        # __exit__ drained: the done event was flushed before close.
        done = client.recv()
        assert done["event"] == "done" and done["status"] == "done"
        client.close()
