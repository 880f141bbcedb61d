"""Traced ``wsnlink serve``: install span wrappers, then run the real CLI.

Run as ``python3 perfbench/serve_traced.py serve --port 0 ...`` with
``src/`` on ``PYTHONPATH``. The wrappers time the public functions of
each ``repro.serve`` / ``repro.telemetry`` layer a request passes
through; the program itself is unchanged. When the server shuts down
(SIGINT), one JSON line with the import time, the policy compile time
and every recorded span is written to standard output, after the
listening banner.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import END, NAME, START, Tracer

#: Request header carrying the benchmark's op id; the server ignores it.
OP_HEADER = "X-Bench-Op"


def _op_of_handler(args: tuple) -> object:
    value = args[0].headers.get(OP_HEADER)
    return int(value) if value is not None else None


def install(tracer: Tracer) -> None:
    """Wrap every serve-path layer boundary."""
    import repro.serve.client as client_module
    import repro.telemetry.ingest as ingest_module
    from repro.serve import Client, Oracle, OracleRequestHandler, OracleService
    from repro.telemetry import SnrEstimator, TelemetryIngestor

    def by_arg(position: int):
        return lambda args: tracer.op_for(args[position])

    def register_request(args: tuple, op: object):
        request = args[1]
        return tracer.register(
            (
                request,
                getattr(request, "link", None),
                getattr(request, "frames", None),
            ),
            op,
        )

    tracer.wrap(OracleRequestHandler, "do_POST", "serve.http.do_post",
                op_of=_op_of_handler)
    for method in ("recommend", "recommend_fleet", "telemetry"):
        tracer.wrap(Client, method, "serve.client")
    for function in ("parse_recommend", "parse_fleet_recommend",
                     "parse_telemetry"):
        tracer.wrap(client_module, function, "serve.protocol.parse")
    tracer.wrap(OracleService, "call", "serve.service.call",
                on_enter=register_request)
    tracer.wrap(Oracle, "policy_recommend", "serve.oracle.answer",
                op_of=by_arg(1))
    tracer.wrap(Oracle, "table_for", "serve.oracle.answer", op_of=by_arg(1))
    tracer.wrap(Oracle, "recommend_from_table", "serve.oracle.answer",
                op_of=by_arg(2))
    tracer.wrap(Oracle, "recommend_fleet", "serve.oracle.fleet",
                op_of=by_arg(1), opaque=True)
    tracer.wrap(TelemetryIngestor, "ingest", "telemetry.ingest",
                op_of=by_arg(1))
    tracer.wrap(ingest_module, "decode_uplink_batch", "telemetry.codec.decode")
    tracer.wrap(SnrEstimator, "apply", "telemetry.estimator.apply")
    tracer.wrap(Oracle, "precompute_policies", "setup.policy_compile")


def main(argv) -> int:
    started = time.perf_counter()
    import repro.cli
    import repro.fleet  # noqa: F401  (serve imports these lazily)
    import repro.serve  # noqa: F401
    import repro.telemetry  # noqa: F401

    import_ms = (time.perf_counter() - started) * 1e3
    tracer = Tracer()
    install(tracer)
    try:
        return repro.cli.main(argv)
    finally:
        tracer.unwrap_all()
        spans = tracer.spans()
        compile_s = sum(
            span[END] - span[START] for span in spans
            if span[NAME] == "setup.policy_compile"
        )
        print(json.dumps({
            "import_ms": import_ms,
            "policy_compile_ms": compile_s * 1e3,
            "spans": spans,
        }), flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
