"""Launch ``repro-serve`` (``repro.cli.serve_main``) for the HTTP workload.

Usage::

    python -m benchmarks.e2e.serve [--spans FILE] -- MODEL [repro-serve options]

Without ``--spans`` this is the plain ``repro-serve`` entry point.  With
it, the launcher first wraps the serving layers (see
:data:`benchmarks.e2e.trace.SERVER_TARGETS`) and ``ServerApp.handle_request``;
each request is traced when its ``X-Bench-Trace`` header is ``1`` and its
span carries the ``X-Bench-Request-Id`` header, so the client can join
server time to its own latency.  SIGINT stops the server; the spans are
then written to FILE.  The last stdout line is a JSON object with the
process's peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def _install_tracer(tracer) -> None:
    from repro.server.app import ServerApp

    from benchmarks.e2e.trace import SERVER_TARGETS

    tracer.install(SERVER_TARGETS)
    handle = ServerApp.handle_request

    def handle_request(self, method, path, body=b"", headers=None):
        headers = headers or {}
        lowered = {k.lower(): v for k, v in headers.items()}
        tracer.active = lowered.get("x-bench-trace") == "1"
        if not tracer.active:
            return handle(self, method, path, body, headers)
        index = tracer.begin(
            "server.handle", request_id=lowered.get("x-bench-request-id")
        )
        try:
            return handle(self, method, path, body, headers)
        finally:
            tracer.end(index)

    tracer.patch(ServerApp, "handle_request", handle_request)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, help="write server spans here")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro.cli import serve_main

    tracer = None
    if args.spans:
        from benchmarks.e2e.trace import Tracer

        tracer = Tracer()
        _install_tracer(tracer)
        tracer.active = True  # model load and session seal at start-up
    code = serve_main(serve_args)
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [span.to_list() for span in tracer.spans],
                    "missing": tracer.missing,
                },
                handle,
            )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
