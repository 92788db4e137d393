"""Streaming sweep service — the ROADMAP's service front-end.

The execution layer (:class:`~repro.experiments.sweep.SweepEngine`) already
has the request/stream/backpressure shape of an inference-serving stack:
submit returns a ticket, tickets stream back in completion order, the
queue is bounded and deduplicated. This package puts a wire protocol in
front of it, stdlib-only:

* :mod:`repro.service.protocol` — the JSON-lines wire schema: a sweep
  request carries scenario-spec JSON (schema-v3, the exact validation
  path of ``repro run-spec``) plus fidelity/priority/deadline; responses
  are newline-delimited ``cell`` / ``error`` / ``end`` frames;
* :mod:`repro.service.server` — ``repro serve``: a
  ``ThreadingHTTPServer`` (TCP or unix socket) holding one
  :class:`~repro.experiments.sweep.SweepEngine` shared by all clients, so
  identical cells submitted by different clients coalesce in flight and
  share cache entries. A request that would overfill the engine's queue
  bound surfaces as HTTP 429 with ``Retry-After``; per-request deadlines
  end the stream with a terminal error frame; shutdown drains in-flight
  streams before the engine closes;
* :mod:`repro.service.client` — ``repro sweep --remote``: a streaming
  client with bounded exponential-backoff retries (seeded jitter).
  Retries are idempotent because submissions are content-addressed cell
  keys: a replayed request re-serves finished cells from the cache and
  coalesces unfinished ones onto the jobs already in flight.
"""

from repro.service.client import ServiceError, SweepServiceClient
from repro.service.protocol import (
    PROTOCOL_VERSION,
    SweepRequest,
    cell_frame,
    decode_frame,
    encode_frame,
    end_frame,
    error_frame,
    parse_sweep_request,
)
from repro.service.server import SweepServer, serve

__all__ = [
    "PROTOCOL_VERSION",
    "ServiceError",
    "SweepRequest",
    "SweepServer",
    "SweepServiceClient",
    "cell_frame",
    "decode_frame",
    "encode_frame",
    "end_frame",
    "error_frame",
    "parse_sweep_request",
    "serve",
]
