"""Service-layer tests: streaming, backpressure, deadlines, disconnects.

Real sockets on ephemeral ports (and a unix socket) — the same plumbing
``repro serve`` runs — plus direct ``stream_request`` calls where a test
needs to fail the write path deterministically.
"""

import contextlib
import http.client
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import ConfigurationError
from repro.experiments import sweep as sweep_mod
from repro.experiments.parallel import CellSpec, cell_key
from repro.experiments.sweep import SweepEngine
from repro.model.predict import predict_cell
from repro.scenario.spec import MAX_CORES, ScenarioSpec
from repro.service import client as client_module
from repro.service.client import ServiceError, SweepServiceClient
from repro.service.protocol import (
    encode_frame,
    end_frame,
    parse_sweep_request,
)
from repro.service import server as server_module
from repro.service.server import MAX_BODY_BYTES, serve, stream_request
from repro.sim.export import result_to_dict

BATCHES = 2


def scenario(workload="SHA-1", policy="cilk", seeds=(11,)):
    return {
        "schema": 3,
        "workload": workload,
        "policy": policy,
        "seeds": list(seeds),
        "batches": BATCHES,
    }


def cell(policy="cilk", seed=11, benchmark="SHA-1"):
    return CellSpec(benchmark=benchmark, policy=policy, seed=seed, batches=BATCHES)


@pytest.fixture()
def server(tmp_path):
    srv = serve(port=0, cache_dir=tmp_path / "cache")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    assert srv.wait_until_serving()
    yield srv
    srv.drain_and_close()
    thread.join(timeout=10)


@pytest.fixture()
def fast_backoff(monkeypatch):
    """Retry sleeps of tens of milliseconds instead of seconds."""
    monkeypatch.setattr(client_module, "BACKOFF_BASE", 0.01)
    monkeypatch.setattr(client_module, "BACKOFF_CAP", 0.05)


@pytest.fixture()
def client(server, fast_backoff):
    return SweepServiceClient(f"http://127.0.0.1:{server.server_port}")


class TestGoldenBitIdentity:
    def test_eight_cell_grid_matches_local_run_exactly(self, server, client, tmp_path):
        # The acceptance grid: 2 benchmarks x 2 policies x 2 seeds through
        # HTTP must equal a local SweepEngine.run_grid bit for bit. Floats
        # survive a json round-trip exactly, so dict equality is the
        # bit-identity check.
        grid = [
            scenario(workload=w, policy=p, seeds=(11, 23))
            for w in ("SHA-1", "MD5")
            for p in ("cilk", "eewa")
        ]
        cells, end = client.run(grid)
        assert end["cells"] == 8
        assert end["streamed"] == 8
        assert len(cells) == 8

        with SweepEngine(cache_dir=tmp_path / "local-cache") as engine:
            specs = [ScenarioSpec.from_dict(s) for s in grid]
            local = {
                (o.spec.benchmark, o.spec.policy, o.spec.seed): o.result
                for group in engine.run_grid_detailed(specs)
                for o in group
            }
        for frame in cells:
            expected = result_to_dict(
                local[(frame["benchmark"], frame["policy"], frame["seed"])]
            )
            assert frame["result"] == json.loads(json.dumps(expected))

    def test_cells_arrive_with_stable_request_indices(self, server, client):
        cells, _ = client.run([scenario(seeds=(11, 23, 37))])
        assert sorted(f["index"] for f in cells) == [0, 1, 2]
        assert {f["scenario"] for f in cells} == {0}


class TestCrossClientDedup:
    def test_two_concurrent_clients_share_one_simulation_per_cell(self, tmp_path):
        # A repeated cell resolves via in-flight coalescing (submitted
        # while the twin is queued) or via the cache/memo (submitted after
        # it completed) — both are cross-client sharing, and their sum is
        # deterministic regardless of thread interleaving.
        srv = serve(port=0, cache_dir=tmp_path / "shared-cache")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        try:
            grid = [scenario(seeds=(11, 23, 37, 41))]
            results = [None, None]

            def hit(slot):
                c = SweepServiceClient(f"http://127.0.0.1:{srv.server_port}")
                results[slot] = c.run(grid)

            workers = [
                threading.Thread(target=hit, args=(slot,)) for slot in (0, 1)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
            assert all(r is not None for r in results)
            for cells, end in results:
                assert end["cells"] == 4 and end["streamed"] == 4

            stats = SweepServiceClient(
                f"http://127.0.0.1:{srv.server_port}"
            ).stats()
            engine = stats["engine"]
            assert engine["cells"] == 8
            assert engine["executed"] == 4
            assert engine["deduplicated"] + engine["cache_hits"] == 4
            assert stats["cache"]["entries"] == 4
            assert stats["server"]["requests"] == 2

            # Warm: the same grid again is served from the cache, and
            # nothing simulates.
            for slot in (0, 1):
                hit(slot)
            for cells, end in results:
                assert end["streamed"] == 4
                assert all(frame["from_cache"] for frame in cells)
            engine = SweepServiceClient(
                f"http://127.0.0.1:{srv.server_port}"
            ).stats()["engine"]
            assert engine["cells"] == 16
            assert engine["executed"] == 4
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)


class TestDeadline:
    def test_expiry_streams_resolved_cells_then_deadline_error(self, server, client):
        # Warm one cell, then ask for it plus a cold one with a zero
        # deadline: the warm cell streams (already resolved at submit),
        # the cold one is cancelled and the stream ends with a terminal
        # ``deadline`` error frame.
        client.run([scenario(seeds=(11,))])
        frames = list(client.stream(
            [scenario(seeds=(11, 23))], deadline_s=0
        ))
        kinds = [f["frame"] for f in frames]
        assert kinds == ["cell", "error"]
        assert frames[0]["seed"] == 11
        assert frames[0]["from_cache"]
        assert frames[1]["code"] == "deadline"
        assert "1 cells unresolved" in frames[1]["detail"]
        # The server survives; the cold cell runs fine on a fresh request.
        cells, end = client.run([scenario(seeds=(23,))])
        assert end["streamed"] == 1

    def test_run_raises_on_deadline_error_frame(self, server, client):
        with pytest.raises(ServiceError) as excinfo:
            client.run([scenario(seeds=(61,))], deadline_s=0)
        assert excinfo.value.code == "deadline"


class TestDisconnect:
    def test_disconnect_cancels_only_that_clients_queued_tickets(self, tmp_path):
        with SweepEngine(cache_dir=None) as engine:
            # Another client's tickets for the same cells, already queued.
            other = [engine.submit(cell(seed=s)) for s in (11, 23, 37)]
            request = parse_sweep_request(
                {"scenarios": [scenario(seeds=(11, 23, 37))]}
            )
            wrote = []

            def failing_write(frame: bytes) -> None:
                wrote.append(frame)
                raise OSError("client went away")

            summary = stream_request(engine, request, failing_write)
            assert summary["ended"] == "disconnect"
            assert len(wrote) == 1  # died on the first frame
            # The disconnected request's remaining tickets are withdrawn...
            assert engine.stats.cancelled >= 1
            # ...but the coalesced survivor still resolves every cell.
            for ticket in other:
                assert ticket.result().result.tasks_executed > 0

    def test_a_client_gone_before_the_end_frame_is_a_disconnect(self):
        # The end frame's write failure used to escape stream_request and
        # kill the handler thread with a traceback.
        request = parse_sweep_request({"scenarios": [scenario()]})
        wrote = []

        def write(frame: bytes) -> None:
            if json.loads(frame)["frame"] == "end":
                raise BrokenPipeError("client went away")
            wrote.append(frame)

        with SweepEngine(cache_dir=None) as engine:
            summary = stream_request(engine, request, write)
        assert summary["ended"] == "disconnect"
        assert summary["streamed"] == len(wrote) == 1

    def test_server_keeps_serving_after_a_client_is_killed_mid_stream(
        self, server, client
    ):
        # Open a raw connection, read the headers plus a partial body,
        # then slam the socket shut while cells are still queued.
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_port, timeout=30
        )
        body = json.dumps(
            {"scenarios": [scenario(seeds=(101, 102, 103, 104))]}
        )
        conn.request("POST", "/sweep", body=body,
                     headers={"Content-Type": "application/json"})
        sock = conn.sock  # grab before getresponse hands it to the reader
        resp = conn.getresponse()
        assert resp.status == 200
        resp.fp.readline()  # one frame, then vanish
        with contextlib.suppress(OSError):
            sock.shutdown(socket.SHUT_RDWR)
        resp.close()
        # The other client's sweep is untouched.
        cells, end = client.run([scenario(seeds=(11, 23))])
        assert end["streamed"] == 2
        deadline = time.monotonic() + 30
        while server.active_streams and time.monotonic() < deadline:
            time.sleep(0.05)
        assert server.active_streams == 0


class TestStreamSetUp:
    @staticmethod
    def _closed(*args, **kwargs):
        raise RuntimeError("engine is closed")

    def test_a_failing_submit_ends_the_stream_with_an_engine_frame(self, monkeypatch):
        # The handler has sent its 200 before stream_request runs, so a
        # failure while the cells are submitted must still reach the
        # client as a frame, not kill the handler thread.
        with SweepEngine(cache_dir=None) as engine:
            monkeypatch.setattr(engine, "submit_many", self._closed)
            request = parse_sweep_request({"scenarios": [scenario(seeds=(11, 23))]})
            wrote = []
            summary = stream_request(engine, request, wrote.append)
        assert summary["ended"] == "engine"
        assert summary["cells"] == summary["streamed"] == 0
        frames = [json.loads(frame) for frame in wrote]
        assert [(f["frame"], f["code"]) for f in frames] == [("error", "engine")]
        assert "RuntimeError: engine is closed" in frames[0]["detail"]

    def test_a_client_gone_before_the_engine_frame_is_not_an_error(self, monkeypatch):
        def gone(frame: bytes) -> None:
            raise OSError("client went away")

        with SweepEngine(cache_dir=None) as engine:
            monkeypatch.setattr(engine, "submit_many", self._closed)
            request = parse_sweep_request({"scenarios": [scenario()]})
            assert stream_request(engine, request, gone)["ended"] == "engine"

    def test_the_modal_cell_coalesces_onto_the_requests_eewa_cell(self):
        # wats needs core levels, read off EEWA's seed-11 run; the request
        # queues that same EEWA cell first, so on an engine without a
        # cache it simulates once, not again for the levels.
        request = parse_sweep_request({"scenarios": [
            dict(scenario(policy=policy), batches=4) for policy in ("eewa", "wats")
        ]})
        with SweepEngine(cache_dir=None) as engine:
            wrote = []
            summary = stream_request(engine, request, wrote.append)
            assert summary["ended"] == "end" and summary["streamed"] == 2
            assert engine.stats.executed == 2
            assert engine.stats.deduplicated == 1
        frames = [json.loads(frame) for frame in wrote]
        assert sorted((f["scenario"], f["policy"]) for f in frames[:-1]) == [
            (0, "eewa"), (1, "wats"),
        ]

    def test_a_failing_resolution_cancels_the_cells_already_queued(
        self, monkeypatch
    ):
        with SweepEngine(cache_dir=None) as engine:
            monkeypatch.setattr(engine, "modal_eewa_levels", self._closed)
            request = parse_sweep_request({"scenarios": [
                scenario(policy="cilk"), scenario(policy="wats"),
            ]})
            wrote = []
            assert stream_request(engine, request, wrote.append)["ended"] == "engine"
            assert engine.queue_depth == 0
            assert engine.stats.cancelled == 1 and engine.stats.executed == 0


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after(self, tmp_path, monkeypatch):
        srv = serve(port=0, cache_dir=None, max_pending=2)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        try:
            engine = srv.engine
            parked = [engine.submit(cell(seed=s)) for s in (201, 202, 203)]
            conn = http.client.HTTPConnection(
                "127.0.0.1", srv.server_port, timeout=30
            )
            conn.request(
                "POST", "/sweep",
                body=json.dumps({"scenarios": [scenario(seeds=(11,))]}),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 429
            assert int(resp.headers["Retry-After"]) >= 1
            payload = json.loads(resp.read())
            assert payload["code"] == "backpressure"
            conn.close()

            # 429 then retry: drain the backlog in the background while a
            # retrying client waits its backoff out, then succeeds.
            def drain():
                time.sleep(0.05)
                for ticket in parked:
                    ticket.result()

            drainer = threading.Thread(target=drain)
            drainer.start()
            monkeypatch.setattr(client_module, "BACKOFF_BASE", 0.05)
            monkeypatch.setattr(client_module, "BACKOFF_CAP", 0.2)
            client = SweepServiceClient(
                f"http://127.0.0.1:{srv.server_port}", retries=8
            )
            cells, end = client.run([scenario(seeds=(11,))])
            drainer.join(timeout=60)
            assert end["streamed"] == 1
            assert client.backoff_log  # at least one 429 was waited out
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)

    def test_retry_budget_exhaustion_raises(self, tmp_path, fast_backoff):
        srv = serve(port=0, cache_dir=None, max_pending=1)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        try:
            parked = [
                srv.engine.submit(cell(seed=s)) for s in (301, 302)
            ]
            client = SweepServiceClient(
                f"http://127.0.0.1:{srv.server_port}", retries=1
            )
            with pytest.raises(ServiceError, match="retries exhausted"):
                client.run([scenario(seeds=(11,))])
            for ticket in parked:
                ticket.result()
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)


class TestHttpSurface:
    def test_healthz(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port)
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read()) == {"status": "ok"}
        conn.close()

    def test_unknown_route_404(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port)
        conn.request("GET", "/nope")
        assert conn.getresponse().status == 404
        conn.close()

    def test_invalid_body_400_not_retried(self, server, client):
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port)
        conn.request("POST", "/sweep", body="{not json")
        resp = conn.getresponse()
        assert resp.status == 400
        assert json.loads(resp.read())["code"] == "bad-request"
        conn.close()
        with pytest.raises(ServiceError) as excinfo:
            client.run([dict(scenario(), turbo=True)])
        assert excinfo.value.code == "bad-request"
        assert not client.backoff_log  # validation errors never retry

    def test_draining_server_answers_503(self, server, client):
        server.draining = True
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.server_port)
            conn.request(
                "POST", "/sweep",
                body=json.dumps({"scenarios": [scenario()]}),
            )
            resp = conn.getresponse()
            assert resp.status == 503
            assert json.loads(resp.read())["code"] == "shutdown"
            conn.close()
        finally:
            server.draining = False

    def test_stats_shape(self, server, client):
        client.run([scenario(seeds=(11,))])
        stats = client.stats()
        assert set(stats) == {"engine", "server", "cache"}
        assert set(stats["engine"]) == {
            "cells", "executed", "cache_hits", "memo_hits", "deduplicated",
            "cancelled", "chunks", "model_cells", "cache_write_errors",
            "queue_depth", "ema_cell_seconds", "fidelity",
        }
        assert stats["engine"]["executed"] >= 1
        assert stats["engine"]["fidelity"] == "sim"
        assert stats["server"]["draining"] is False
        assert stats["cache"]["entries"] >= 1


def _raw_post(port, headers):
    """POST /sweep with raw header lines and no body; the whole reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(
            b"POST /sweep HTTP/1.1\r\nHost: localhost\r\n" + headers + b"\r\n"
        )
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


class TestHostileRequests:
    @pytest.mark.parametrize("length, status", [
        (b"-1", 400),
        (b"ten", 400),
        (str(MAX_BODY_BYTES + 1).encode(), 413),
    ])
    def test_bad_content_length_is_refused_before_the_body(
        self, server, client, length, status
    ):
        # A negative length used to read until EOF (no reply at all), and
        # any size was read into memory whole.
        reply = _raw_post(server.server_port, b"Content-Length: " + length + b"\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert json.loads(body)["code"] == "bad-request"
        cells, _ = client.run([scenario()])  # the server serves on
        assert len(cells) == 1

    @pytest.mark.parametrize("field, value, detail", [
        ("workload", {"name": "w", "classes": [{"name": "a", "count": 2}]},
         "exactly one of mean_ms / mean_s"),
        ("seeds", ["a"], "invalid scenario seeds"),
        # Non-finite class parameters used to be answered 200, then the
        # handler died inside generation and the client read an empty
        # stream.
        ("workload", {"name": "w", "classes": [
            {"name": "a", "count": 2, "mean_s": float("nan")}]},
         "mean_seconds must be finite"),
        ("workload", {"name": "w", "classes": [
            {"name": "a", "count": 2, "mean_ms": 1.0, "jitter_sigma": float("nan")}]},
         "jitter_sigma must be finite"),
        # A machine this large used to be queued and simulated, at a cost
        # that grows with its core count.
        ("machine", {"num_cores": MAX_CORES + 1},
         f"num_cores must lie between 1 and {MAX_CORES}"),
        ("machine", {"preset": "big-little-test",
                     "core_types": [["big", MAX_CORES], ["little", 1]]},
         f"the limit is {MAX_CORES}"),
    ])
    def test_malformed_scenario_field_answers_400(
        self, server, field, value, detail
    ):
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
        try:
            conn.request("POST", "/sweep", body=json.dumps(
                {"scenarios": [dict(scenario(), **{field: value})]}
            ))
            resp = conn.getresponse()
            assert resp.status == 400
            frame = json.loads(resp.read())
        finally:
            conn.close()
        assert frame["frame"] == "error" and frame["code"] == "bad-request"
        assert detail in frame["detail"]
        assert server.engine.stats.cells == 0

    def test_nan_deadline_answers_400_before_any_cell(self, server):
        # Python's json reads the NaN literal; a NaN wait never expires.
        conn = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
        try:
            conn.request("POST", "/sweep", body=json.dumps(
                {"scenarios": [scenario()], "deadline_s": float("nan")}
            ))
            resp = conn.getresponse()
            assert resp.status == 400
            frame = json.loads(resp.read())
        finally:
            conn.close()
        assert frame["frame"] == "error" and frame["code"] == "bad-request"
        assert "deadline_s" in frame["detail"]
        assert server.engine.stats.cells == 0

    def test_request_larger_than_max_pending_answers_413(self, fast_backoff):
        # It could never be admitted: a 429 would have the client retry
        # against an idle server until its retries ran out.
        srv = serve(port=0, cache_dir=None, max_pending=2)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        try:
            client = SweepServiceClient(f"http://127.0.0.1:{srv.server_port}")
            with pytest.raises(ServiceError, match="2-cell admission limit") as excinfo:
                client.run([scenario(seeds=(11, 23, 37))])
            assert excinfo.value.code == "bad-request"
            assert "HTTP 413" in str(excinfo.value)
            assert not client.backoff_log  # final, never retried
            assert srv.engine.stats.cells == 0  # nothing submitted
            cells, _ = client.run([scenario(seeds=(11, 23))])  # at the limit
            assert len(cells) == 2
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)

    @pytest.mark.parametrize("max_pending", [0, -5])
    def test_max_pending_below_one_is_refused(self, max_pending):
        with pytest.raises(ConfigurationError, match="max_pending"):
            serve(port=0, max_pending=max_pending)

    @pytest.fixture()
    def quick_timeout(self, monkeypatch):
        monkeypatch.setattr(server_module, "HANDLER_TIMEOUT_S", 0.3)

    def test_idle_connection_is_closed(self, quick_timeout, server):
        with socket.create_connection(("127.0.0.1", server.server_port), timeout=5) as sock:
            assert sock.recv(1) == b""  # closed by the server, not timed out here

    def test_short_body_is_closed(self, quick_timeout, server):
        with socket.create_connection(("127.0.0.1", server.server_port), timeout=5) as sock:
            sock.sendall(
                b"POST /sweep HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: 100\r\n\r\n{\"scenarios\": "
            )
            assert sock.recv(65536) == b""

    def test_drain_returns_while_silent_clients_are_open(self, quick_timeout):
        srv = serve(port=0, cache_dir=None)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        address = ("127.0.0.1", srv.server_port)
        with socket.create_connection(address, timeout=5) as idle, \
                socket.create_connection(address, timeout=5) as half:
            half.sendall(b"POST /sweep HTTP/1.1\r\nContent-Length: 100\r\n\r\n{")
            # Connections are accepted in order: once a later one is
            # answered, both silent ones have their handler threads.
            conn = http.client.HTTPConnection(*address, timeout=5)
            try:
                conn.request("GET", "/healthz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
            drain = threading.Thread(target=srv.drain_and_close)
            drain.start()
            drain.join(timeout=5)
            drained = not drain.is_alive()
        drain.join(timeout=10)  # the clients are gone; it returns now
        thread.join(timeout=10)
        assert drained

    def test_reply_to_a_departed_client_is_dropped(self, server):
        # The peer of a unix socket pair is gone before the 404 is written,
        # so the write fails with EPIPE; the handler must swallow it.
        ours, theirs = socket.socketpair()
        theirs.sendall(b"GET /nope HTTP/1.1\r\nHost: localhost\r\n\r\n")
        theirs.close()
        try:
            server.RequestHandlerClass(ours, ("unix", 0), server)
        finally:
            ours.close()


def _small(workload, policy, seeds, batches):
    return {
        "workload": workload, "policy": policy, "seeds": list(seeds),
        "batches": batches, "machine": {"preset": "small-test"},
    }


class TestStalledReader:
    """A client that stops reading mid-stream: its frames fill the socket
    buffers, the server's frame write times out after
    ``HANDLER_TIMEOUT_S``, and its still-queued cells are cancelled, while
    a client streaming beside it gets what it gets alone."""

    #: Cached cells whose frames total about 1.3 MB (24 x 55 KB), far
    #: beyond what a unix socket buffers (212,992 bytes by default).
    WARM = _small("periodic", "eewa", range(1, 25), 400)
    #: Cells the stalled request leaves queued behind its warm ones.
    COLD = _small("SHA-1", "cilk", range(100, 164), 1)
    #: The other client's request. It asks for priority -1: a queued cell
    #: runs inside whichever stream waits for results, and the stalled
    #: stream waits for none, so this keeps the stalled request's cells
    #: queued long enough to be cancelled.
    OTHER = [_small("MD5", "cilk", (7, 8, 9, 10), 1)]

    @staticmethod
    def _serve(path, cache_dir):
        srv = serve(unix_socket=str(path), cache_dir=cache_dir)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        return srv, thread

    def _other(self, path):
        frames, end = SweepServiceClient(f"unix:{path}").run(self.OTHER, priority=-1)
        return {frame["index"]: frame for frame in frames}, end

    def test_write_times_out_and_cancels_only_that_clients_cells(
        self, tmp_path, monkeypatch
    ):
        srv, thread = self._serve(tmp_path / "alone.sock", None)
        try:
            alone = self._other(tmp_path / "alone.sock")
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)

        cache = tmp_path / "cache"
        with SweepEngine(cache_dir=cache) as engine:
            engine.run(ScenarioSpec.from_dict(self.WARM))
        monkeypatch.setattr(server_module, "HANDLER_TIMEOUT_S", 1.0)
        summaries, write_errors = [], []
        real_stream = server_module.stream_request

        def recording_stream(engine, request, write):
            def recording_write(frame):
                try:
                    write(frame)
                except OSError as exc:
                    write_errors.append(exc)
                    raise
            summaries.append(real_stream(engine, request, recording_write))
            return summaries[-1]

        monkeypatch.setattr(server_module, "stream_request", recording_stream)
        path = tmp_path / "serve.sock"
        srv, thread = self._serve(path, cache)
        stalled = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            stalled.connect(str(path))
            body = json.dumps({"scenarios": [self.WARM, self.COLD]}).encode()
            stalled.sendall(
                b"POST /sweep HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            engine = srv.engine
            deadline = time.monotonic() + 10
            while engine.stats.cells < 24 + 64 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert engine.stats.cells == 24 + 64  # stalled request submitted
            assert not summaries  # and its stream still blocked
            beside = self._other(path)
            while len(summaries) < 2 and time.monotonic() < deadline + 10:
                time.sleep(0.05)
        finally:
            stalled.close()
            srv.drain_and_close()
            thread.join(timeout=10)
        (stalled_summary, other_summary) = sorted(
            summaries, key=lambda summary: summary["cells"], reverse=True
        )
        assert stalled_summary["ended"] == "disconnect"
        assert stalled_summary["streamed"] < 24
        assert isinstance(write_errors[0], TimeoutError)
        assert other_summary["ended"] == "end"
        # Every stalled cold cell was either run (inside the other stream,
        # in one of its chunks) or cancelled; at least some were queued.
        stats = engine.stats
        assert stats.cancelled > 0
        assert stats.cancelled + stats.executed == 64 + 4
        assert beside == alone


class TestUnixSocket:
    def test_round_trip_over_unix_socket(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        srv = serve(unix_socket=path, cache_dir=None)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        try:
            client = SweepServiceClient(f"unix:{path}")
            cells, end = client.run([scenario(seeds=(11,))])
            assert end["streamed"] == 1
            assert client.stats()["server"]["requests"] == 1
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)
        assert not (tmp_path / "serve.sock").exists()


class TestModelFidelity:
    def test_auto_requests_stream_model_cells(self, tmp_path):
        # A predicted cell carries its machine and an empty trace, so it
        # encodes like a simulated one instead of failing mid-stream.
        path = str(tmp_path / "serve.sock")
        srv = serve(unix_socket=path, cache_dir=None)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        try:
            client = SweepServiceClient(f"unix:{path}")
            for request in (
                scenario(workload="MD5", policy="cilk-d"),
                scenario(workload="SHA-1", policy="eewa"),
            ):
                cells, end = client.run([request], fidelity="auto")
                assert end["frame"] == "end"
                assert end["sources"] == {"model": 1}
                assert end["from_cache"] == 0
                (frame,) = cells
                assert frame["source"] == "model"
                assert frame["from_cache"] is False
                cell = CellSpec.from_scenario(ScenarioSpec.from_dict(request), 11)
                # A model cell frame carries its cell's own key.
                assert frame["key"] == cell_key(cell, fast_forward=True)
                predicted = predict_cell(cell, cell.build_program())
                expected = json.loads(json.dumps(result_to_dict(predicted)))
                assert frame["result"] == expected
                assert expected["batches"] == []
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_forced_model_request_answers_400(self, server, client):
        with pytest.raises(ServiceError, match="fidelity") as excinfo:
            client.run([scenario()], fidelity="model")
        assert excinfo.value.code == "bad-request"
        assert not client.backoff_log
        assert server.engine.stats.cells == 0


class _FlakyHandler(BaseHTTPRequestHandler):
    """First attempt dies after one cell frame; the replay completes."""

    protocol_version = "HTTP/1.1"
    attempts = 0

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        type(self).attempts += 1
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        self.wfile.write(encode_frame({"frame": "cell", "index": 0}))
        if type(self).attempts == 1:
            return  # EOF with no terminal frame: mid-stream death
        self.wfile.write(encode_frame({"frame": "cell", "index": 1}))
        self.wfile.write(encode_frame(end_frame(
            cells=2, streamed=2, from_cache=0, sources={"sim": 2},
        )))


class TestClientRetrySemantics:
    def test_mid_stream_eof_retries_and_dedups_by_index(self, tmp_path, fast_backoff):
        _FlakyHandler.attempts = 0
        srv = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = SweepServiceClient(
                f"http://127.0.0.1:{srv.server_port}", retries=2
            )
            frames = list(client.stream([scenario(seeds=(11,))]))
            assert _FlakyHandler.attempts == 2
            assert [f["frame"] for f in frames] == ["cell", "cell", "end"]
            # Index 0 was streamed on both attempts but surfaces once.
            assert [f["index"] for f in frames[:2]] == [0, 1]
            assert len(client.backoff_log) == 1
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)

    def test_backoff_is_deterministic_for_a_seed(self):
        # Same seed, same jitter stream: two clients with the same policy
        # reproduce their own retry timing exactly.
        a = SweepServiceClient("http://localhost:1", jitter_seed=7)
        b = SweepServiceClient("http://localhost:1", jitter_seed=7)
        assert [a._rng.uniform(0, 1) for _ in range(5)] == [
            b._rng.uniform(0, 1) for _ in range(5)
        ]

    def test_connection_refused_exhausts_retries(self, tmp_path, fast_backoff):
        # Bind-then-close guarantees the port is unoccupied.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = SweepServiceClient(
            f"http://127.0.0.1:{port}",
            retries=1, timeout=1,
        )
        with pytest.raises(ServiceError, match="retries exhausted"):
            list(client.stream([scenario(seeds=(11,))]))
        assert len(client.backoff_log) == 1


class TestShutdownLog:
    def test_drain_surfaces_wedged_dispatcher_warning(self, tmp_path, monkeypatch):
        srv = serve(port=0, cache_dir=None)
        release = threading.Event()
        wedged = threading.Thread(target=release.wait, name="wedged-dispatcher")
        wedged.start()
        srv.engine._dispatcher = wedged
        monkeypatch.setattr(sweep_mod, "DISPATCHER_JOIN_SECONDS", 0.05)
        try:
            lines = srv.drain_and_close(call_shutdown=False)
        finally:
            release.set()
            wedged.join()
        assert any("failed to join" in line for line in lines)
        assert lines[0] == "drained in-flight streams"
        assert lines[-1] == "engine closed"

    def test_clean_drain_reports_no_warnings(self, tmp_path):
        srv = serve(port=0, cache_dir=None)
        lines = srv.drain_and_close(call_shutdown=False)
        assert lines == ["drained in-flight streams", "engine closed"]
