"""``repro serve`` with the benchmark's span wrappers installed.

The traced serve-mixed run starts this launcher instead of the CLI. It
calls :func:`repro.service.server.serve` with the same wrappers the
in-process workloads use, tags each request's spans with a request
number, serves until SIGINT, drains, and writes its spans to
``--trace-out``. Untraced runs use the real CLI.

    python benchmarks/e2e/serve_child.py --unix-socket PATH --cache-dir DIR \
        --trace-out FILE
"""

from __future__ import annotations

import argparse
import itertools

import trace as spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--unix-socket", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    recorder = spans.Recorder()
    spans.install(recorder)
    import repro.service.server as server_module

    traced_stream = server_module.stream_request
    requests = itertools.count()

    def tagged_stream(*call_args, **call_kwargs):
        recorder.set_cell(next(requests))
        return traced_stream(*call_args, **call_kwargs)

    server_module.stream_request = tagged_stream
    server = server_module.serve(
        unix_socket=args.unix_socket, workers=args.workers, cache_dir=args.cache_dir
    )
    recorder.active = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.drain_and_close(call_shutdown=False)
        recorder.active = False
        recorder.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
