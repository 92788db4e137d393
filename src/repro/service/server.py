"""``repro serve`` — the sweep engine behind an HTTP/unix-socket front-end.

The server holds one :class:`~repro.experiments.sweep.SweepEngine`, shared
by every client: identical cells submitted by different clients coalesce
onto one in-flight simulation, and every result lands in the shared
content-addressed cache. The server adds the service-level behaviours the
engine cannot see from inside:

* **admission control** — a request whose cells would push the queue past
  the engine's backpressure bound (``max_pending``) is refused up front
  with HTTP 429 and a ``Retry-After`` estimate derived from the engine's
  observed per-cell cost, instead of blocking the client inside
  ``submit``; a request with more cells than the bound could ever admit
  gets a final 413;
* **per-request deadlines** — ``deadline_s`` bounds the whole stream;
  expiry cancels the request's still-queued tickets (coalesced tickets
  cancel independently, so other clients' cells are untouched) and
  terminates the stream with a ``deadline`` error frame;
* **disconnect cleanup** — a client that drops mid-stream gets its queued
  tickets cancelled the moment a frame write fails; nothing it shared
  with other clients is disturbed;
* **silent clients** — every read and write of a connection times out
  after :data:`HANDLER_TIMEOUT_S`: a client that sends nothing, sends
  less body than it announced, or stops reading its stream is closed
  (a stream's queued tickets are cancelled as on a disconnect);
* **graceful drain** — :meth:`SweepServer.drain_and_close` stops
  accepting, lets every in-flight stream finish, then closes the engine,
  surfacing any ``RuntimeWarning`` (e.g. a wedged dispatcher) in the
  shutdown log instead of swallowing it. Silent clients hold it up for at
  most :data:`HANDLER_TIMEOUT_S`.

The wire format lives in :mod:`repro.service.protocol`; the matching
client in :mod:`repro.service.client`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import socket
import socketserver
import sys
import threading
import time
import warnings
from concurrent.futures import CancelledError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional, Sequence

from repro.errors import ReproError
from repro.experiments.parallel import CellSpec
from repro.experiments.sweep import MAX_PENDING, SweepEngine, SweepTicket
from repro.scenario.registry import POLICIES
from repro.scenario.spec import PolicySpec, ScenarioSpec
from repro.service.protocol import (
    SweepRequest,
    cell_frame,
    encode_frame,
    end_frame,
    error_frame,
    parse_sweep_request,
)

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8377

#: Largest ``POST /sweep`` body the server reads, in bytes; a longer
#: ``Content-Length`` is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a handler waits for any one read or write on its connection:
#: the request line and headers, the body, each frame of a stream. A
#: connection silent for longer is closed, so an idle client cannot hold
#: :meth:`SweepServer.drain_and_close` (which joins handler threads) for
#: longer than this either.
HANDLER_TIMEOUT_S = 10.0


def _lacks_core_levels(scenario: ScenarioSpec) -> bool:
    """Whether the scenario's policy needs core levels and carries none."""
    return (
        scenario.policy.core_levels is None
        and POLICIES.get(scenario.policy.name).needs_core_levels
    )


def resolve_scenario(engine: SweepEngine, scenario: ScenarioSpec) -> ScenarioSpec:
    """Fill fixed core levels for a policy that needs them.

    A policy that *needs* core levels but carries none runs on EEWA's
    modal configuration for the scenario's workload — derived on
    ``engine``, so the derivation cell is deduplicated and cached across
    clients like any other cell. This is the one implementation of
    the rule: :func:`submit_scenarios` applies it to every request and
    every CLI run without ``--core-levels``. A scenario with nothing to
    fill is returned as is (the same object).
    """
    if not _lacks_core_levels(scenario):
        return scenario
    levels = tuple(engine.modal_eewa_levels(scenario))
    return scenario.with_policy(
        PolicySpec(scenario.policy.name, core_levels=levels)
    )


def submit_scenarios(
    engine: SweepEngine,
    scenarios: Sequence[ScenarioSpec],
    *,
    priority: int = 0,
    fidelity: Optional[str] = None,
) -> tuple[list[ScenarioSpec], list[list[SweepTicket]]]:
    """Resolve and submit every (scenario × seed) cell of a request.

    Returns the resolved scenarios and, per scenario, one ticket per
    seed. The cells of scenarios with nothing to resolve are submitted
    first; only then does :func:`resolve_scenario` fill in the others, so
    the EEWA cell a modal configuration is read from coalesces onto the
    request's own queued EEWA cell instead of simulating twice (an engine
    without a cache keeps no finished cell). A scenario object given
    several times (``repro sweep --repeat``) is resolved once. If
    resolving fails, the cells already submitted are cancelled.
    """
    lacking = [_lacks_core_levels(s) for s in scenarios]
    waves = (
        [i for i, lacks in enumerate(lacking) if not lacks],
        [i for i, lacks in enumerate(lacking) if lacks],
    )
    resolved = list(scenarios)
    tickets: list[list[SweepTicket]] = [[] for _ in scenarios]
    by_id: dict[int, ScenarioSpec] = {}
    try:
        for wave in waves:
            if not wave:
                continue
            cells = []
            for i in wave:
                if lacking[i]:
                    scenario = scenarios[i]
                    if id(scenario) not in by_id:
                        by_id[id(scenario)] = resolve_scenario(engine, scenario)
                    resolved[i] = by_id[id(scenario)]
                cells.append(CellSpec.from_scenario_seeds(resolved[i]))
            submitted = iter(engine.submit_many(
                [cell for seeds in cells for cell in seeds],
                priority=priority, fidelity=fidelity,
            ))
            for i, seeds in zip(wave, cells):
                tickets[i] = [next(submitted) for _ in seeds]
    except BaseException:
        for ticket in itertools.chain.from_iterable(tickets):
            ticket.cancel()
        raise
    return resolved, tickets


class _ClientGone(Exception):
    """A frame write failed or timed out: the client left or stopped reading."""


def stream_request(
    engine: SweepEngine,
    request: SweepRequest,
    write: Callable[[bytes], None],
) -> dict[str, Any]:
    """Submit one request's cells and stream frames through ``write``.

    The streaming core of the service, factored out of the HTTP handler
    so its contract is testable without sockets. ``write`` receives one
    encoded frame at a time; if it raises ``OSError`` (client gone, or a
    write timed out because the client stopped reading), the request's
    still-queued tickets are cancelled and the summary records the
    disconnect. Returns a summary dict (``ended`` is one of ``"end"``,
    ``"deadline"``, ``"engine"``, ``"disconnect"``). A failure while the
    cells are submitted (resolving a scenario, building its cells, or
    submitting them to an engine that is closing; see
    :func:`submit_scenarios`) ends the stream with an ``engine`` error
    frame: the handler has already sent its ``200``.
    """
    sources: dict[str, int] = {}
    summary = {
        "cells": 0,
        "streamed": 0,
        "from_cache": 0,
        "sources": sources,
        "ended": "end",
    }
    try:
        _, per_scenario = submit_scenarios(
            engine, request.scenarios,
            priority=request.priority, fidelity=request.fidelity,
        )
    except Exception as exc:
        summary["ended"] = "engine"
        with contextlib.suppress(OSError):
            write(encode_frame(error_frame("engine", f"{type(exc).__name__}: {exc}")))
        return summary
    tickets = [t for scenario_tickets in per_scenario for t in scenario_tickets]
    scenario_of = [i for i, ts in enumerate(per_scenario) for _ in ts]
    order = {id(t): i for i, t in enumerate(tickets)}
    streamed = 0
    from_cache = 0
    summary["cells"] = len(tickets)

    def _cancel_rest() -> int:
        return sum(1 for t in tickets if t.cancel())

    def _send(frame: dict[str, Any]) -> None:
        # A write that times out raises TimeoutError, as an expired
        # deadline does; tell the two apart here.
        try:
            write(encode_frame(frame))
        except OSError as exc:
            raise _ClientGone from exc

    try:
        for ticket in engine.as_completed(tickets, timeout=request.deadline_s):
            if ticket.future.cancelled():
                continue
            try:
                outcome = ticket.result(timeout=0)
            except CancelledError:
                continue
            except Exception as exc:  # engine-side failure for this cell
                _cancel_rest()
                summary["ended"] = "engine"
                _send(error_frame("engine", f"{type(exc).__name__}: {exc}"))
                return summary
            index = order[id(ticket)]
            _send(cell_frame(index, scenario_of[index], outcome))
            streamed += 1
            from_cache += int(outcome.from_cache)
            sources[outcome.source] = sources.get(outcome.source, 0) + 1
            summary["streamed"] = streamed
            summary["from_cache"] = from_cache
        _send(end_frame(
            cells=len(tickets), streamed=streamed, from_cache=from_cache,
            sources=sources,
        ))
    except TimeoutError:
        cancelled = _cancel_rest()
        summary["ended"] = "deadline"
        with contextlib.suppress(OSError):
            write(encode_frame(error_frame(
                "deadline",
                f"deadline of {request.deadline_s} s expired with "
                f"{len(tickets) - streamed} cells unresolved "
                f"({cancelled} cancelled)",
            )))
        return summary
    except _ClientGone:
        # The client went away or stopped reading (before its end frame,
        # at the latest): withdraw its queued cells and leave everything
        # other clients share with it untouched.
        _cancel_rest()
        summary["ended"] = "disconnect"
    return summary


class _Handler(BaseHTTPRequestHandler):
    """Routes: ``POST /sweep`` (stream), ``GET /stats``, ``GET /healthz``."""

    protocol_version = "HTTP/1.1"
    server: "SweepServer"

    # -- plumbing --------------------------------------------------------

    @property
    def timeout(self) -> float:
        """The socket timeout ``StreamRequestHandler.setup`` applies. A read
        that times out closes the connection (``handle_one_request``); a
        frame write that does is a disconnect to :func:`stream_request`."""
        return HANDLER_TIMEOUT_S

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        self.server.log(f"{self.address_string()} {format % args}")

    def _send_json(
        self, status: int, payload: dict[str, Any], *, headers: Sequence[tuple[str, str]] = ()
    ) -> None:
        """Send one JSON reply and close the connection.

        Closing keeps a request body the handler never read from being
        parsed as the next request. A client that already left gets no
        reply, as in the stream path.
        """
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            self.server.log(f"{self.address_string()} left before its {status} reply")

    # -- GET -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
            return
        if self.path == "/stats":
            self._send_json(200, self.server.stats_payload())
            return
        self._send_json(404, error_frame("bad-request", f"no route {self.path}"))

    # -- POST ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/sweep":
            self._send_json(404, error_frame("bad-request", f"no route {self.path}"))
            return
        if self.server.draining:
            self._send_json(503, error_frame("shutdown", "server is draining"))
            return
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(400, error_frame(
                "bad-request", f"invalid Content-Length {raw_length!r}"
            ))
            return
        if length > MAX_BODY_BYTES:
            self._send_json(413, error_frame(
                "bad-request",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            ))
            return
        try:
            raw = self.rfile.read(length)
            request = parse_sweep_request(json.loads(raw.decode("utf-8")))
        except ReproError as exc:
            self._send_json(400, error_frame("bad-request", str(exc)))
            return
        except (ValueError, UnicodeDecodeError) as exc:
            self._send_json(400, error_frame("bad-request", f"invalid JSON body: {exc}"))
            return

        n_cells = sum(len(s.seeds) for s in request.scenarios)
        engine = self.server.engine
        if n_cells > engine.max_pending:
            self._send_json(413, error_frame(
                "bad-request",
                f"request of {n_cells} cells exceeds the server's "
                f"{engine.max_pending}-cell admission limit",
            ))
            return
        retry_after = self.server.admission_delay(n_cells)
        if retry_after is not None:
            self._send_json(
                429,
                error_frame(
                    "backpressure",
                    f"queue full ({engine.queue_depth} pending); "
                    f"retry after {retry_after} s",
                ),
                headers=[("Retry-After", str(retry_after))],
            )
            return

        self.close_connection = True
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Connection", "close")
            self.end_headers()
        except OSError:
            return  # the client left before the stream began

        def _write(frame: bytes) -> None:
            self.wfile.write(frame)
            self.wfile.flush()

        self.server.request_started()
        try:
            summary = stream_request(engine, request, _write)
        finally:
            self.server.request_finished()
        self.server.log(
            f"{self.address_string()} sweep: {summary['streamed']}/"
            f"{summary['cells']} cells streamed ({summary['ended']})"
        )


class SweepServer(ThreadingHTTPServer):
    """Threading HTTP server sharing one :class:`SweepEngine` across clients.

    Handler threads are non-daemon and joined on ``server_close()``, so
    :meth:`drain_and_close` cannot close the engine under a live stream.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        engine: SweepEngine,
        *,
        verbose: bool = False,
    ) -> None:
        #: The shared engine. Its ``max_pending`` is the admission bound,
        #: so an admitted request never blocks in ``submit``.
        self.engine = engine
        self.verbose = verbose
        self.draining = False
        self.started_at = time.monotonic()
        self._active = 0
        self._requests = 0
        self._active_lock = threading.Lock()
        self._serving = threading.Event()
        super().__init__(address, _Handler)

    # -- bookkeeping -----------------------------------------------------

    def log(self, message: str) -> None:
        if self.verbose:
            print(f"[repro serve] {message}", file=sys.stderr, flush=True)

    def request_started(self) -> None:
        with self._active_lock:
            self._active += 1
            self._requests += 1

    def request_finished(self) -> None:
        with self._active_lock:
            self._active -= 1

    @property
    def active_streams(self) -> int:
        with self._active_lock:
            return self._active

    def admission_delay(self, new_cells: int) -> Optional[int]:
        """``None`` to admit, else the ``Retry-After`` seconds for a 429.

        The estimate is how long the engine needs to drain the current
        backlog at its observed per-cell cost (bounded to [1, 60] s).
        """
        engine = self.engine
        depth = engine.queue_depth
        if depth + new_cells <= engine.max_pending:
            return None
        per_cell = engine.ema_cell_seconds or 0.1
        return max(1, min(60, int(depth * per_cell) + 1))

    def stats_payload(self) -> dict[str, Any]:
        """The ``GET /stats`` body: engine + cache + server observability."""
        engine = self.engine
        payload: dict[str, Any] = {
            "engine": {
                **dataclasses.asdict(engine.stats),
                "queue_depth": engine.queue_depth,
                "ema_cell_seconds": engine.ema_cell_seconds,
                "fidelity": engine.fidelity,
            },
            "server": {
                "active_streams": self.active_streams,
                "requests": self._requests,
                "uptime_s": time.monotonic() - self.started_at,
                "max_pending": engine.max_pending,
                "draining": self.draining,
            },
        }
        if engine.cache is not None:
            from repro.experiments.cachectl import cache_stats

            payload["cache"] = dataclasses.asdict(
                cache_stats(engine.cache.root)
            )
        else:
            payload["cache"] = None
        return payload

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving.set()
        try:
            super().serve_forever(poll_interval)
        finally:
            self._serving.clear()

    def wait_until_serving(self, timeout: float = 5.0) -> bool:
        """Block until ``serve_forever`` is accepting (for test harnesses)."""
        return self._serving.wait(timeout)

    def drain_and_close(self, *, call_shutdown: bool = True) -> list[str]:
        """Graceful shutdown: refuse new work, drain streams, close engine.

        Returns the shutdown log lines (including any ``RuntimeWarning``
        the engine raised while closing, e.g. a dispatcher that failed to
        join) so callers can surface them.
        """
        self.draining = True
        if call_shutdown and self._serving.is_set():
            self.shutdown()  # stop accepting; serve_forever returns
        self.server_close()  # joins handler threads: streams drain here
        messages = ["drained in-flight streams"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.engine.close()
        for entry in caught:
            if issubclass(entry.category, RuntimeWarning):
                messages.append(f"warning: {entry.message}")
        messages.append("engine closed")
        for message in messages:
            self.log(message)
        return messages


class UnixSweepServer(SweepServer):
    """The same service bound to a unix domain socket path."""

    address_family = socket.AF_UNIX

    def __init__(self, socket_path: str, engine: SweepEngine, **kwargs: Any) -> None:
        self.socket_path = socket_path
        with contextlib.suppress(OSError):
            os.unlink(socket_path)  # stale socket from a crashed server
        super().__init__(socket_path, engine, **kwargs)  # type: ignore[arg-type]

    def server_bind(self) -> None:
        # HTTPServer.server_bind assumes a (host, port) address and calls
        # getfqdn on it; a unix path needs the raw TCPServer bind.
        socketserver.TCPServer.server_bind(self)
        self.server_name = self.socket_path
        self.server_port = 0

    def finish_request(self, request: Any, client_address: Any) -> None:
        # accept() on AF_UNIX yields '' as the peer address; hand the
        # handler a (host, port)-shaped tuple so logging works unchanged.
        self.RequestHandlerClass(request, ("unix", 0), self)

    def server_close(self) -> None:
        super().server_close()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    unix_socket: Optional[str] = None,
    workers: Optional[int] = 0,
    cache_dir: str | os.PathLike[str] | None = None,
    fast_forward: bool = True,
    fidelity: str = "sim",
    max_pending: int = MAX_PENDING,
    verbose: bool = False,
) -> SweepServer:
    """Build a ready-to-run server (TCP by default, unix socket if given).

    Builds the shared :class:`SweepEngine` from the engine settings; the
    caller runs ``serve_forever()`` and ``drain_and_close()``, which closes
    the engine. ``port=0`` binds an ephemeral port (see ``server_port``
    after construction).
    """
    engine = SweepEngine(
        workers=workers, cache_dir=cache_dir, fast_forward=fast_forward,
        max_pending=max_pending, fidelity=fidelity,
    )
    if unix_socket is not None:
        return UnixSweepServer(unix_socket, engine, verbose=verbose)
    return SweepServer((host, port), engine, verbose=verbose)


__all__ = [
    "DEFAULT_PORT",
    "HANDLER_TIMEOUT_S",
    "MAX_BODY_BYTES",
    "SweepServer",
    "UnixSweepServer",
    "resolve_scenario",
    "serve",
    "stream_request",
    "submit_scenarios",
]
