"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics. Progress and a ``detail`` record (host, latency summary,
counter differences, set-up samples) go to standard output first; the
last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when a result was printed. ``--workload all`` runs the three
workloads one after another, each in its own process exactly as a
single-workload run measures it, then prints every workload's metrics
and ops in one table. See README.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from typing import Dict

from common import ROOT, TAIL_PERCENTILE, BenchError, host_record, import_program

WORKLOADS = ("serve-mix", "fleet-http", "control-loop")

#: End-to-end metrics, printed by every ``--trace 0`` run: name → unit.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_per_s": "1/s",
}

#: Per-layer metrics, printed by every ``--trace 1`` run: name → unit.
#: A layer a workload never reaches reads 0 on that workload.
PER_LAYER = {
    "serve.http.transport_ms": "ms",
    "serve.http.handler_self_ms": "ms",
    "serve.protocol.parse_ms": "ms",
    "serve.service.queue_wait_ms": "ms",
    "serve.oracle.answer_ms": "ms",
    "serve.oracle.fleet_ms": "ms",
    "serve.oracle.policy_share": "ratio",
    "serve.oracle.solver_solves": "count",
    "serve.oracle.lru_hit_rate": "ratio",
    "serve.client.to_dict_ms": "ms",
    "telemetry.codec.decode_ms": "ms",
    "telemetry.ingest.self_ms": "ms",
    "telemetry.estimator.apply_ms": "ms",
    "fleet.engine.fallback_solve_ms": "ms",
    "fleet.engine.current_planes_ms": "ms",
    "fleet.engine.step_self_ms": "ms",
    "fleet.engine.fallback_share": "ratio",
    "fleet.engine.bin_change_share": "ratio",
    "fleet.engine.reconfigured_share": "ratio",
    "routing.engine.edge_metrics_ms": "ms",
    "routing.congestion.relay_ms": "ms",
    "routing.compose.paths_ms": "ms",
    "routing.congestion.iterations": "count",
    "setup.import_ms": "ms",
    "setup.policy_compile_ms": "ms",
    "setup.routes_ms": "ms",
    "setup.cold_step_ms": "ms",
    "bench.generator_cpu_share": "ratio",
    "trace.latency_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_share": "ratio",
}


def _check_declaration() -> None:
    """Fail when BENCHMARK.json names other metrics than this code prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text())
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [entry["name"] for entry in declared.get(key, [])]
        if sorted(listed) != sorted(names):
            raise BenchError(f"BENCHMARK.json {key} does not match run.py")
    workloads = [entry["name"] for entry in declared.get("workloads", [])]
    if sorted(workloads) != sorted(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads do not match run.py")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through the finally blocks that stop the server processes.
    raise SystemExit(128 + signum)


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one table of all their metrics."""
    results = {}
    for workload in WORKLOADS:
        child = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            output, _ = child.communicate()
        finally:
            if child.poll() is None:
                child.terminate()
                child.wait()
        print(output, end="")
        if child.returncode != 0:
            print(f"perfbench: {workload} exited {child.returncode}",
                  file=sys.stderr)
            return 2
        results[workload] = json.loads(output.strip().splitlines()[-1])
    print("all workloads:")
    for workload, result in results.items():
        for name, entry in result["metrics"].items():
            print(f"  {workload:13s} {name:34s} {entry['value']:14.4f} "
                  f"{entry['unit']}")
        print(f"  {workload:13s} attempted {result['attempted']}  "
              f"failed {result['failed']}")
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{workload}.{name}": entry
            for workload, result in results.items()
            for name, entry in result["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return _run_all(args)
    try:
        _check_declaration()
        started = time.perf_counter()
        import_program()
        import repro.fleet  # noqa: F401  (timed: the in-process import cost)
        import repro.routing  # noqa: F401
        import repro.serve  # noqa: F401
        import repro.telemetry  # noqa: F401

        import_ms = (time.perf_counter() - started) * 1e3
        host_before = host_record()
        tail_q = TAIL_PERCENTILE[args.workload]
        trace = bool(args.trace)
        if args.workload == "control-loop":
            import control_loop

            values, attempted, failed, detail = control_loop.run(
                args.seed, args.seconds, trace, tail_q, import_ms
            )
        else:
            import serve_load

            values, attempted, failed, detail = serve_load.run(
                args.workload, args.seed, args.seconds, trace, tail_q
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units: Dict[str, str] = PER_LAYER if trace else END_TO_END
    unknown = sorted(set(values) - set(units))
    if unknown or attempted < 1:
        print(f"perfbench: bad result ({unknown}, {attempted} ops)", file=sys.stderr)
        return 2
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    detail["host_before"] = host_before
    detail["host_after"] = host_record()
    detail["workload"] = args.workload
    detail["seed"] = args.seed
    detail["tail_percentile"] = tail_q
    print(json.dumps({"detail": detail}, default=float))
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
    print(f"  attempted {attempted}  failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
