"""Streaming client for the sweep service (``repro sweep --remote``).

Stdlib-only (:mod:`http.client`), speaking the JSON-lines protocol of
:mod:`repro.service.protocol` over TCP (``http://host:port``) or a unix
domain socket (``unix:/path/to.sock``).

Retry contract
--------------
Transient failures — connection refused/reset, HTTP 429 (queue-full
backpressure), HTTP 5xx, and a stream that ends without a terminal frame
— are retried up to ``retries`` times with bounded exponential backoff
and *seeded* jitter (deterministic for a given client, so test runs and
load harnesses reproduce their own timing). A 429's ``Retry-After`` is
honoured as the floor of the computed delay.

Retrying a sweep is idempotent by construction: submissions are
content-addressed cell keys, so a replayed request re-serves finished
cells from the engine's cache and coalesces unfinished ones onto the jobs
already in flight — nothing simulates twice. The client additionally
deduplicates frames across attempts by cell ``index``, so a consumer of
:meth:`SweepServiceClient.stream` sees each cell exactly once even when a
dropped connection forces a mid-stream replay.

Validation failures (HTTP 400) and protocol violations are *not* retried;
they raise :class:`ServiceError` immediately.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Iterator, Mapping, Optional, Sequence, Union

from repro.errors import ScenarioError
from repro.scenario.spec import ScenarioSpec
from repro.service.protocol import build_sweep_request, decode_frame

#: Default retry budget and jitter seed.
DEFAULT_RETRIES = 4
DEFAULT_JITTER_SEED = 0x5EED

#: Exponential backoff shape, in seconds: attempt *n* sleeps
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**n)`` plus jitter uniform in
#: ``[0, BACKOFF_BASE)``.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 4.0


class ServiceError(RuntimeError):
    """A request the service refused, or a retry budget that ran out."""

    def __init__(self, message: str, *, code: Optional[str] = None) -> None:
        super().__init__(message)
        self.code = code


class _Retryable(Exception):
    """Internal: a transient failure worth another attempt."""

    def __init__(self, detail: str, *, retry_after: float = 0.0) -> None:
        super().__init__(detail)
        self.retry_after = retry_after


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over ``AF_UNIX`` (the ``unix:`` URL scheme)."""

    def __init__(self, path: str, timeout: Optional[float] = None) -> None:
        super().__init__("localhost")
        if timeout is not None:
            self.timeout = timeout
        self._unix_path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if isinstance(self.timeout, (int, float)):
            sock.settimeout(self.timeout)
        sock.connect(self._unix_path)
        self.sock = sock


def _parse_url(url: str) -> tuple[str, str]:
    """``(kind, address)`` where kind is ``"tcp"`` or ``"unix"``."""
    if url.startswith("unix:"):
        path = url[len("unix:"):]
        if path.startswith("//"):
            path = path[2:]
        if not path:
            raise ScenarioError(f"unix socket URL has no path: {url!r}")
        return "unix", path
    if url.startswith("http://"):
        return "tcp", url[len("http://"):].rstrip("/")
    if "://" in url:
        raise ScenarioError(
            f"unsupported URL scheme in {url!r} (use http:// or unix:)"
        )
    return "tcp", url.rstrip("/")


class SweepServiceClient:
    """One service endpoint plus a retry policy.

    Parameters
    ----------
    url:
        ``http://host:port``, bare ``host:port``, or ``unix:/path.sock``.
    retries:
        Transient-failure attempts *beyond* the first (0 disables retry).
        Attempt *n* sleeps per :data:`BACKOFF_BASE` and :data:`BACKOFF_CAP`.
    jitter_seed:
        Seed of the generator that draws each sleep's jitter.
    timeout:
        Socket timeout per connection (``None``: block indefinitely).
    """

    def __init__(
        self,
        url: str,
        *,
        retries: int = DEFAULT_RETRIES,
        jitter_seed: int = DEFAULT_JITTER_SEED,
        timeout: Optional[float] = None,
    ) -> None:
        self.url = url
        self._kind, self._address = _parse_url(url)
        self._retries = max(0, retries)
        self._rng = random.Random(jitter_seed)
        self._timeout = timeout
        #: Sleeps taken by the retry loop (observability/testing).
        self.backoff_log: list[float] = []

    # -- plumbing --------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._kind == "unix":
            return _UnixHTTPConnection(self._address, timeout=self._timeout)
        return http.client.HTTPConnection(self._address, timeout=self._timeout)

    def _sleep(self, attempt: int, retry_after: float) -> None:
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt))
        delay += self._rng.uniform(0.0, BACKOFF_BASE)
        delay = max(delay, retry_after)
        self.backoff_log.append(delay)
        time.sleep(delay)

    @staticmethod
    def _error_from_body(resp: http.client.HTTPResponse) -> ServiceError:
        detail = f"HTTP {resp.status}"
        code = None
        try:
            payload = json.loads(resp.read().decode("utf-8"))
            code = payload.get("code")
            detail = f"{detail}: {payload.get('detail', '')}"
        except (ValueError, UnicodeDecodeError):  # eewa: disable=EEWA006 - malformed error body: fall back to the bare HTTP status
            pass
        return ServiceError(detail, code=code)

    # -- API -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """``GET /stats`` — engine, cache, and server observability."""
        conn = self._connect()
        try:
            conn.request("GET", "/stats")
            resp = conn.getresponse()
            if resp.status != 200:
                raise self._error_from_body(resp)
            return json.loads(resp.read().decode("utf-8"))
        finally:
            conn.close()

    def stream(
        self,
        scenarios: Sequence[Union[ScenarioSpec, Mapping[str, Any]]],
        *,
        fidelity: Optional[str] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream one sweep: yields ``cell`` frames as they resolve, then
        the terminal ``end`` or ``error`` frame.

        Each cell is yielded exactly once (by ``index``) even across
        retried attempts. A terminal ``error`` frame is yielded, not
        raised — the cells streamed before it are valid; callers decide
        whether a partial sweep is acceptable.
        """
        body = json.dumps(build_sweep_request(
            [
                s.to_dict() if isinstance(s, ScenarioSpec) else dict(s)
                for s in scenarios
            ],
            fidelity=fidelity,
            priority=priority,
            deadline_s=deadline_s,
        )).encode("utf-8")
        seen: set[int] = set()
        attempt = 0
        while True:
            try:
                yield from self._stream_once(body, seen)
                return
            except _Retryable as exc:
                if attempt >= self._retries:
                    raise ServiceError(
                        f"retries exhausted after {attempt + 1} attempts: {exc}"
                    ) from exc
                self._sleep(attempt, exc.retry_after)
                attempt += 1

    def _stream_once(
        self, body: bytes, seen: set[int]
    ) -> Iterator[dict[str, Any]]:
        try:
            conn = self._connect()
            conn.request(
                "POST", "/sweep", body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
        except (ConnectionError, socket.timeout, OSError,
                http.client.HTTPException) as exc:
            raise _Retryable(f"connect failed: {exc}") from exc
        try:
            if resp.status == 429:
                retry_after = 0.0
                raw = resp.headers.get("Retry-After")
                if raw is not None:
                    try:
                        retry_after = float(raw)
                    except ValueError:
                        retry_after = 0.0
                resp.read()
                raise _Retryable("queue full (429)", retry_after=retry_after)
            if resp.status >= 500 or resp.status == 503:
                raise _Retryable(f"server error (HTTP {resp.status})")
            if resp.status != 200:
                raise self._error_from_body(resp)
            for line in resp:
                line = line.strip()
                if not line:
                    continue
                frame = decode_frame(line)
                if frame["frame"] == "cell":
                    index = frame["index"]
                    if index in seen:
                        continue  # replayed after a mid-stream retry
                    seen.add(index)
                    yield frame
                    continue
                yield frame  # terminal end/error frame
                return
            # EOF without a terminal frame: the connection died mid-stream.
            raise _Retryable("stream ended without a terminal frame")
        except (ConnectionError, socket.timeout, http.client.HTTPException) as exc:
            raise _Retryable(f"stream broke: {exc}") from exc
        finally:
            conn.close()

    def run(
        self,
        scenarios: Sequence[Union[ScenarioSpec, Mapping[str, Any]]],
        *,
        fidelity: Optional[str] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Collect a whole sweep: ``(cell frames, terminal frame)``.

        Raises :class:`ServiceError` if the stream terminated with an
        ``error`` frame — use :meth:`stream` to consume partial sweeps.
        """
        cells: list[dict[str, Any]] = []
        terminal: Optional[dict[str, Any]] = None
        for frame in self.stream(
            scenarios, fidelity=fidelity, priority=priority,
            deadline_s=deadline_s,
        ):
            if frame["frame"] == "cell":
                cells.append(frame)
            else:
                terminal = frame
        if terminal is None or terminal["frame"] == "error":
            detail = "stream ended without a terminal frame" if terminal is None \
                else terminal.get("detail", "")
            code = None if terminal is None else terminal.get("code")
            raise ServiceError(
                f"sweep failed after {len(cells)} cells: {detail}", code=code
            )
        return cells, terminal


__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_CAP",
    "DEFAULT_JITTER_SEED",
    "DEFAULT_RETRIES",
    "ServiceError",
    "SweepServiceClient",
]
