"""``control-loop``: the steady routed fleet control loop, in-process.

The loop is the one behind ``wsnlink fleet --routing mesh`` fed by
measured telemetry: a seeded 10,000-link ``grid_topology``, a mesh
routing table, ``TelemetryIngestor`` + ``SnrEstimator`` writing the
measured ``FleetState``, and a default ``RoutedFleetEngine``. One op is
one tick: ingest one pre-encoded simulator batch, then step the engine.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

N_LINKS = 10_000
#: Set-ups per run, before and after the timed phase; ``setup_s`` is
#: their median (spread over the run for the reason given in
#: ``serve_load``).
N_SETUPS_BEFORE = 3
N_SETUPS_AFTER = 2
WARMUP_TICKS = 20
#: Simulator batches encoded per refill; the clock stops while refilling.
BATCH_CHUNK = 128
#: Every CHECK_EVERY-th timed tick is re-stepped by a fresh engine.
CHECK_EVERY = 50


class _Loop:
    """One production control loop and the time each set-up stage took."""

    def __init__(self, topology, first_batch: bytes) -> None:
        from repro.fleet import FleetState
        from repro.routing import RoutedFleetEngine, routes_for_topology
        from repro.telemetry import SnrEstimator, TelemetryIngestor

        clock = time.perf_counter
        started = clock()
        self.routes = routes_for_topology(topology, strategy="mesh")
        routed = clock()
        self.state = FleetState.from_topology(topology)
        self.ingestor = TelemetryIngestor(self.state, SnrEstimator())
        self.engine = RoutedFleetEngine(self.routes)
        built = clock()
        self.engine.engine.policy_table()
        compiled = clock()
        self.ingestor.ingest(first_batch)
        report = self.engine.step(self.state, step_index=0)
        finished = clock()
        self.cold_config_index = report.config_index.copy()
        self.setup_s = finished - started
        self.stages_ms = {
            "routes_ms": (routed - started) * 1e3,
            "policy_compile_ms": (compiled - built) * 1e3,
            "cold_step_ms": (finished - compiled) * 1e3,
        }
        self.n_ticks = 1


class _Batches:
    """Seeded simulator batches, encoded ahead of the ticks that use them."""

    def __init__(self, topology, seed: int) -> None:
        from repro.fleet import FleetState
        from repro.telemetry import DeviceFleetSimulator

        self._simulator = DeviceFleetSimulator(
            FleetState.from_topology(topology),
            mode="jittered",
            seed=seed,
            noise_db=0.5,
        )
        self._pending: List[bytes] = []
        self.first = self.next()

    def refill(self) -> None:
        self._pending.extend(
            self._simulator.tick() for _ in range(BATCH_CHUNK)
        )
        self._pending.reverse()

    def next(self) -> bytes:
        if not self._pending:
            self.refill()
        return self._pending.pop()

    def ready(self) -> bool:
        return bool(self._pending)


def _install_tracing(tracer) -> None:
    import numpy as np

    import repro.fleet.engine as fleet_engine
    import repro.routing.engine as routing_engine
    import repro.telemetry.ingest as ingest
    from repro.fleet import FleetEngine
    from repro.routing import RoutedFleetEngine
    from repro.telemetry import SnrEstimator, TelemetryIngestor

    tracer.wrap(TelemetryIngestor, "ingest", "telemetry.ingest")
    tracer.wrap(ingest, "decode_uplink_batch", "telemetry.codec.decode")
    tracer.wrap(SnrEstimator, "apply", "telemetry.estimator.apply")
    tracer.wrap(RoutedFleetEngine, "step", "routing.engine.step")
    tracer.wrap(FleetEngine, "step", "fleet.engine.step")
    tracer.wrap(
        fleet_engine,
        "evaluate_metric_planes",
        lambda args, kwargs: (
            "fleet.engine.fallback_solve"
            if np.ndim(kwargs["snr_db"]) == 2
            else "fleet.engine.current_planes"
        ),
    )
    tracer.wrap(
        routing_engine, "evaluate_metric_planes", "routing.engine.edge_metrics"
    )
    tracer.wrap(routing_engine, "iterate_relay_load", "routing.congestion.relay")
    tracer.wrap(routing_engine, "compose_paths", "routing.compose.paths")


def _layers(tracer, latency_s: Dict[int, float]) -> Dict[str, float]:
    """Mean ms per tick of every traced layer, plus what none covers."""
    from tracer import per_op

    table = per_op(tracer.spans(), latency_s)

    def mean_ms(fn) -> float:
        return statistics.fmean(fn(table[op]) for op in latency_s) * 1e3

    def total(name):
        return lambda entry: entry[name][0] if name in entry else 0.0

    def self_time(name):
        return lambda entry: entry[name][1] if name in entry else 0.0

    layers = {
        "telemetry.codec.decode_ms": mean_ms(total("telemetry.codec.decode")),
        "telemetry.ingest.self_ms": mean_ms(self_time("telemetry.ingest")),
        "telemetry.estimator.apply_ms": mean_ms(
            total("telemetry.estimator.apply")
        ),
        "fleet.engine.fallback_solve_ms": mean_ms(
            total("fleet.engine.fallback_solve")
        ),
        "fleet.engine.current_planes_ms": mean_ms(
            total("fleet.engine.current_planes")
        ),
        "fleet.engine.step_self_ms": mean_ms(self_time("fleet.engine.step")),
        "routing.engine.edge_metrics_ms": mean_ms(
            total("routing.engine.edge_metrics")
        ),
        "routing.congestion.relay_ms": mean_ms(
            total("routing.congestion.relay")
        ),
        "routing.compose.paths_ms": mean_ms(total("routing.compose.paths")),
    }
    latency_ms = statistics.fmean(latency_s.values()) * 1e3
    layers["trace.latency_ms"] = latency_ms
    layers["trace.unattributed_ms"] = latency_ms - sum(
        value for key, value in layers.items() if not key.startswith("trace.")
    )
    return layers


class ControlLoopRun:
    """One run of the workload: set-ups, warm-up, timed ticks, checks."""

    def __init__(self, seed: int) -> None:
        from repro.fleet import grid_topology

        self.topology = grid_topology(N_LINKS, seed=seed)
        self.batches = _Batches(self.topology, seed)
        self.checks: List[tuple] = []
        self.failures: List[str] = []

    # ------------------------------------------------------------ phases

    def setup(self, n_setups: int) -> List[_Loop]:
        loops = [
            _Loop(self.topology, self.batches.first) for _ in range(n_setups)
        ]
        self.loop = loops[-1]
        return loops

    def _tick(self, check: bool) -> float:
        """One op; returns its latency in seconds."""
        loop = self.loop
        payload = self.batches.next()
        clock = time.perf_counter
        started = clock()
        loop.ingestor.ingest(payload)
        if check:
            ingested = clock()
            before = loop.state.copy()
            resumed = clock()
            started += resumed - ingested
        report = loop.engine.step(loop.state, step_index=loop.n_ticks)
        elapsed = clock() - started
        if check:
            self.checks.append((loop.n_ticks, before, report.config_index))
        loop.n_ticks += 1
        self.last_report = report
        return elapsed

    def warmup(self) -> None:
        for _ in range(WARMUP_TICKS):
            self._tick(check=False)

    def timed(self, seconds: float, on_tick=None) -> Dict[str, object]:
        """Back-to-back ticks for ``seconds`` of loop time.

        The clock stops while the next chunk of simulator batches is
        encoded, so input generation never lands in the timed phase.
        """
        latencies: List[float] = []
        clock = time.perf_counter
        elapsed = 0.0
        cpu = 0.0
        while elapsed < seconds:
            if not self.batches.ready():
                self.batches.refill()
            started = clock()
            cpu_started = time.process_time()
            while self.batches.ready() and elapsed + (clock() - started) < seconds:
                check = (len(latencies) + 1) % CHECK_EVERY == 0
                latencies.append(self._tick(check))
                if on_tick is not None:
                    on_tick(len(latencies) - 1, latencies[-1])
            elapsed += clock() - started
            cpu += time.process_time() - cpu_started
        return {"latencies_s": latencies, "elapsed_s": elapsed, "cpu_s": cpu}

    def verify(self) -> int:
        """Re-step the cold tick and each checked tick with a fresh engine.

        The fresh engine solves every bin exactly (``use_policy=False``),
        so the policy gather is checked against the solver, not itself.
        A checked tick's state carries the configurations the loop holds,
        and hysteresis keeps those unless a candidate is clearly better,
        which can hide a wrong candidate; the cold tick holds none, so
        there every link's answer must match. Returns the number of
        ticks whose ``config_index`` the fresh engine does not reproduce.
        """
        import numpy as np

        from repro.fleet import FleetState
        from repro.routing import RoutedFleetEngine
        from repro.telemetry import SnrEstimator, TelemetryIngestor

        cold_state = FleetState.from_topology(self.topology)
        TelemetryIngestor(cold_state, SnrEstimator()).ingest(self.batches.first)
        self.checks.insert(0, (0, cold_state, self.loop.cold_config_index))
        fresh = RoutedFleetEngine(self.loop.routes, use_policy=False)
        failed = 0
        for tick, state, config_index in self.checks:
            expected = fresh.step(state, step_index=tick).config_index
            if not np.array_equal(expected, config_index):
                failed += 1
                self.failures.append(
                    f"tick {tick}: config_index differs on "
                    f"{int(np.count_nonzero(expected != config_index))} links"
                )
        return failed


def run(seed: int, seconds: float, trace: bool, tail_q: float, import_ms: float):
    """Returns ``(values, attempted, failed, detail)``."""
    from common import latency_summary

    bench = ControlLoopRun(seed)
    loops = bench.setup(1 if trace else N_SETUPS_BEFORE)
    bench.warmup()
    detail: Dict[str, object] = {"setup_stages_ms": loops[-1].stages_ms}
    if trace:
        values, attempted = _traced(bench, seconds, import_ms)
    else:
        phase = bench.timed(seconds)
        loops += [
            _Loop(bench.topology, bench.batches.first)
            for _ in range(N_SETUPS_AFTER)
        ]
        latencies_ms = [value * 1e3 for value in phase["latencies_s"]]
        summary = latency_summary(latencies_ms, tail_q)
        values = {
            "setup_s": statistics.median(loop.setup_s for loop in loops),
            "p50_ms": summary["p50_ms"],
            "tail_ms": summary["tail_ms"],
            "throughput_per_s": len(latencies_ms) / phase["elapsed_s"],
        }
        detail["latency"] = summary
        attempted = len(latencies_ms)
    detail["setup_s_each"] = [loop.setup_s for loop in loops]
    failed = bench.verify()
    detail["n_checked"] = len(bench.checks)
    detail["failures"] = bench.failures[:5]
    return values, attempted, failed, detail


def _traced(bench: ControlLoopRun, seconds: float, import_ms: float):
    """Untraced half, then a traced half; per-layer means per tick."""
    from common import percentile
    from tracer import Tracer

    untraced = bench.timed(seconds / 2)
    untraced_p50_ms = percentile(untraced["latencies_s"], 50.0) * 1e3

    tracer = Tracer()
    _install_tracing(tracer)
    engine = bench.loop.engine.engine
    counts = {"fallback": [], "reconfigured": [], "bin_change": [], "iters": []}
    previous_bins = engine.quantize_snr_db(bench.loop.state.snr_db)
    latency_s: Dict[int, float] = {}

    def on_tick(index: int, latency: float) -> None:
        nonlocal previous_bins
        report = bench.last_report
        bins = engine.quantize_snr_db(bench.loop.state.snr_db)
        counts["bin_change"].append(float((bins != previous_bins).mean()))
        previous_bins = bins
        counts["fallback"].append(report.n_fallback_links / report.n_links)
        counts["reconfigured"].append(report.n_reconfigured / report.n_links)
        counts["iters"].append(report.relay_iterations)
        latency_s[index] = latency
        tracer.current_op = index + 1

    tracer.current_op = 0
    try:
        traced = bench.timed(seconds / 2, on_tick=on_tick)
    finally:
        tracer.unwrap_all()
    traced_p50_ms = percentile(traced["latencies_s"], 50.0) * 1e3
    layers = _layers(tracer, latency_s)
    stages = bench.loop.stages_ms
    values = dict(layers)
    values.update(
        {
            "fleet.engine.fallback_share": statistics.fmean(counts["fallback"]),
            "fleet.engine.bin_change_share": statistics.fmean(
                counts["bin_change"]
            ),
            "fleet.engine.reconfigured_share": statistics.fmean(
                counts["reconfigured"]
            ),
            "routing.congestion.iterations": statistics.fmean(counts["iters"]),
            "setup.import_ms": import_ms,
            "setup.policy_compile_ms": stages["policy_compile_ms"],
            "setup.routes_ms": stages["routes_ms"],
            "setup.cold_step_ms": stages["cold_step_ms"],
            "bench.generator_cpu_share": untraced["cpu_s"]
            / untraced["elapsed_s"],
            "trace.untraced_p50_ms": untraced_p50_ms,
            "trace.traced_p50_ms": traced_p50_ms,
            "trace.overhead_share": traced_p50_ms / untraced_p50_ms - 1.0,
        }
    )
    attempted = len(untraced["latencies_s"]) + len(traced["latencies_s"])
    return values, attempted
