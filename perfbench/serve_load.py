"""``serve-mix`` and ``fleet-http``: ``wsnlink serve`` over real sockets.

The server runs as its own process with stock flags plus a 1,024-link
telemetry fleet. This process is the load generator: closed-loop
threads, each holding one keep-alive HTTP/1.1 connection and sending
its next request only after the previous response has arrived. Every
request is built before the clock starts; a request carries its op id
in an ``X-Bench-Op`` header, which the server ignores and the traced
launcher (``serve_traced.py``) uses to tie server spans to client
latencies.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import BenchError, ROOT, latency_summary, percentile, program_env
from serve_traced import OP_HEADER

HERE = Path(__file__).resolve().parent
SERVE_ARGV = ["serve", "--port", "0", "--telemetry-links", "1024"]
N_TELEMETRY_LINKS = 1024
#: Spawns per run, before and after the timed phase; ``setup_s`` is the
#: median spawn-to-banner time. The host's speed wanders over tens of
#: seconds, so spawns spread over the run sample it at more moments than
#: back-to-back spawns would.
N_SETUPS_BEFORE = 3
N_SETUPS_AFTER = 2
BANNER_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
#: serve-mix: op kinds per block of ten, and the block count.
MIX = (("default", 8), ("constrained", 1), ("telemetry", 1))
N_TEMPLATES = 1000
#: Sampled request templates whose answers are checked in-process.
N_SAMPLED = 64
#: Telemetry batches are encoded for this request rate; beyond it they
#: repeat, and the server counts the repeats as duplicates.
MAX_MIX_RATE_PER_S = 1200.0
#: Constraint sets of the constrained recommends, each feasible at every
#: Table I distance.
CONSTRAINTS = (
    [{"objective": "delay", "max": 30.0}],
    [{"objective": "loss", "max": 0.01}],
    [{"objective": "goodput", "max": -10.0}],
)
FLEET_LINKS = 2000
FLEET_BODIES = 32
FLEET_WARMUP = 4
FLEET_SAMPLED = 2
_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


# ---------------------------------------------------------------- server


class Server:
    """One ``wsnlink serve`` process; ``setup_s`` is spawn to banner."""

    def __init__(self, traced: bool = False) -> None:
        if traced:
            argv = [sys.executable, str(HERE / "serve_traced.py")]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv + SERVE_ARGV,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=program_env(),
            cwd=str(ROOT),
            text=True,
        )
        watchdog = threading.Timer(BANNER_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            banner = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - started
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise BenchError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))

    def stop(self) -> str:
        """SIGINT, wait for exit; returns what the server printed since."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            output, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            output, _ = self.process.communicate()
        return output or ""


def spawn_servers(n: int) -> Tuple[Server, List[float]]:
    """Spawn ``n`` servers one after another; keep the last one running."""
    times = []
    for index in range(n):
        server = Server()
        times.append(server.setup_s)
        if index < n - 1:
            server.stop()
    return server, times


# ---------------------------------------------------------------- client


class Connection:
    """A keep-alive HTTP/1.1 connection; each request is one ``sendall``."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def reopen(self) -> None:
        self.close()
        self._open()

    def exchange(self, request: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(request)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def get_json(self, path: str) -> Dict[str, object]:
        request = (
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        ).encode()
        status, body = self.exchange(request)
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)


def post(path: str, body: bytes, content_type: str) -> Tuple[bytes, bytes]:
    """A request split around its op id: ``head + op + tail``."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n{OP_HEADER}: "
    ).encode()
    return head, b"\r\n\r\n" + body


def closed_loop(connections: List[Connection], source, seconds: float):
    """One thread per connection, each sending back to back.

    Returns ``(records, elapsed_s, cpu_s)`` where a record is
    ``(op, latency_s, status, body)``; ``body`` is kept only when the
    source asks for it or the request failed.
    """
    records: List[list] = []
    deadline = time.perf_counter() + seconds

    def worker(connection: Connection) -> None:
        out = []
        clock = time.perf_counter
        while clock() < deadline:
            item = source.next()
            if item is None:
                break
            op, request, keep = item
            started = clock()
            try:
                status, body = connection.exchange(request)
            except (OSError, ValueError, IndexError) as exc:
                status, body = -1, repr(exc).encode()
            latency = clock() - started
            out.append(
                (op, latency, status, body if keep or status != 200 else None)
            )
            if status == -1:
                try:
                    connection.reopen()
                except OSError:
                    break
        records.extend(out)

    threads = [
        threading.Thread(target=worker, args=(connection,))
        for connection in connections
    ]
    started = time.perf_counter()
    cpu_started = time.process_time()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return records, elapsed, cpu


# ---------------------------------------------------------------- inputs


class MixInputs:
    """serve-mix: a fixed seeded sequence of single requests.

    Timed op ``i`` sends template ``i % N_TEMPLATES``; warm-up ops are
    numbered ``-len(warm_order) .. -1`` and send one template per
    off-axis SNR bin, per constrained template and two telemetry
    batches, so the server's table cache is full before timing.
    """

    def __init__(self, seed: int, seconds: float) -> None:
        import numpy as np

        from repro.config import TABLE_I_SPACE
        from repro.fleet import FleetState, grid_topology
        from repro.telemetry import DeviceFleetSimulator

        rng = np.random.default_rng(seed)
        reference_snr_db = FleetState.from_topology(
            grid_topology(10_000, seed=seed)
        ).base_snr_db
        kinds = [kind for kind, count in MIX for _ in range(count)]
        kinds = kinds * (N_TEMPLATES // len(kinds))
        rng.shuffle(kinds)
        self.templates: List[Tuple[str, Optional[dict], Tuple[bytes, bytes]]] = []
        for kind in kinds:
            if kind == "default":
                payload = {
                    "link": {"snr_db": float(rng.choice(reference_snr_db))},
                    "objective": "energy",
                }
            elif kind == "constrained":
                distance_m = float(rng.choice(TABLE_I_SPACE.distances_m))
                payload = {
                    "link": {"distance_m": distance_m},
                    "objective": "energy",
                    "constraints": CONSTRAINTS[rng.integers(len(CONSTRAINTS))],
                }
            else:
                self.templates.append((kind, None, (b"", b"")))
                continue
            body = json.dumps(payload).encode()
            self.templates.append(
                (kind, payload, post("/v1/recommend", body, "application/json"))
            )
        recommends = [
            index for index, template in enumerate(self.templates)
            if template[0] != "telemetry"
        ]
        self.sampled = {
            int(index) for index in rng.choice(recommends, N_SAMPLED, replace=False)
        }
        simulator = DeviceFleetSimulator(
            FleetState.from_base_snr(reference_snr_db[:N_TELEMETRY_LINKS]),
            mode="jittered",
            seed=seed,
            noise_db=0.5,
        )
        self.frame_bytes = simulator.codec.frame_bytes
        n_batches = math.ceil(MAX_MIX_RATE_PER_S * 0.1 * (seconds + 5.0))
        self.batches = [simulator.tick() for _ in range(n_batches)]
        self._next_batch = itertools.count()
        #: op → index of the telemetry batch it sent (current phase).
        self.telemetry_sent: Dict[int, int] = {}
        self.warm_order = self._warmup_templates()

    def _warmup_templates(self) -> List[int]:
        seen = set()
        chosen = []
        n_telemetry = 0
        for index, (kind, payload, _) in enumerate(self.templates):
            if kind == "default":
                snr_db = payload["link"]["snr_db"]
                key = ("bin", round(snr_db * 4)) if snr_db > 39.0 else ("axis",)
            elif kind == "constrained":
                key = (payload["link"]["distance_m"],
                       json.dumps(payload["constraints"]))
            else:
                n_telemetry += 1
                key = ("telemetry", min(n_telemetry, 2))
            if key not in seen:
                seen.add(key)
                chosen.append(index)
        return chosen

    def template_index(self, op: int) -> int:
        if op < 0:
            return self.warm_order[op + len(self.warm_order)]
        return op % len(self.templates)

    def source(self, warm: bool) -> "_MixSource":
        if warm:
            self.telemetry_sent.clear()
            return _MixSource(self, -len(self.warm_order), 0)
        return _MixSource(self, 0, None)


class _MixSource:
    def __init__(self, inputs: MixInputs, first_op: int, stop_op) -> None:
        self._inputs = inputs
        self._ops = itertools.count(first_op)
        self._stop_op = stop_op

    def next(self):
        op = next(self._ops)
        if self._stop_op is not None and op >= self._stop_op:
            return None
        inputs = self._inputs
        index = inputs.template_index(op)
        kind, _, (head, tail) = inputs.templates[index]
        if kind == "telemetry":
            batch = next(inputs._next_batch)
            inputs.telemetry_sent[op] = batch
            body = inputs.batches[batch % len(inputs.batches)]
            head, tail = post("/v1/telemetry", body, "application/octet-stream")
            keep = True
        else:
            keep = index in inputs.sampled
        return op, head + str(op).encode() + tail, keep


class FleetInputs:
    """fleet-http: successive estimated ticks of a 2,000-link deployment.

    Timed op ``i`` sends body ``i % FLEET_BODIES``; warm-up ops
    ``-FLEET_WARMUP .. -1`` send the first bodies once.
    """

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro.fleet import FleetState, grid_topology
        from repro.telemetry import (
            DeviceFleetSimulator,
            SnrEstimator,
            TelemetryIngestor,
        )

        truth = FleetState.from_topology(grid_topology(FLEET_LINKS, seed=seed))
        ingestor = TelemetryIngestor(truth.copy(), SnrEstimator())
        simulator = DeviceFleetSimulator(
            truth, mode="jittered", seed=seed, noise_db=0.5
        )
        self.payloads = []
        self.requests = []
        for _ in range(FLEET_BODIES):
            ingestor.ingest(simulator.tick())
            payload = {
                "links": [
                    {"snr_db": float(value)} for value in ingestor.state.snr_db
                ],
                "objective": "energy",
            }
            self.payloads.append(payload)
            self.requests.append(
                post("/v1/fleet/recommend", json.dumps(payload).encode(),
                     "application/json")
            )
        rng = np.random.default_rng(seed)
        #: Bodies whose first timed answer is checked link by link; all
        #: are sent within the first few timed ops.
        self.sampled = {
            int(index) for index in rng.choice(
                np.arange(FLEET_WARMUP, FLEET_WARMUP + 8), FLEET_SAMPLED,
                replace=False,
            )
        }
        self.kept = set()

    @staticmethod
    def body_index(op: int) -> int:
        return op + FLEET_WARMUP if op < 0 else op % FLEET_BODIES

    def source(self, warm: bool) -> "_FleetSource":
        self.kept.clear()
        return _FleetSource(self, -FLEET_WARMUP if warm else 0, warm)


class _FleetSource:
    def __init__(self, inputs: FleetInputs, first_op: int, warm: bool) -> None:
        self._inputs = inputs
        self._ops = itertools.count(first_op)
        self._warm = warm

    def next(self):
        op = next(self._ops)
        if self._warm and op >= 0:
            return None
        index = self._inputs.body_index(op)
        head, tail = self._inputs.requests[index]
        keep = index in self._inputs.sampled and index not in self._inputs.kept
        if keep:
            self._inputs.kept.add(index)
        return op, head + str(op).encode() + tail, keep


# ---------------------------------------------------------------- checks


def _same_answer(expected, got: Dict[str, object]) -> bool:
    """Same configuration and energy objective as the in-process answer."""
    return (
        got.get("config") == expected.config.as_dict()
        and got.get("u_eng_uj_per_bit") == expected.u_eng_uj_per_bit
    )


def check_mix(inputs: MixInputs, records, failures: List[str], oracle) -> int:
    """Failed ops among the records: status, telemetry accounting, answers."""
    from repro.serve.protocol import parse_recommend

    expected: Dict[int, object] = {}
    failed = 0
    for op, _, status, body in records:
        if status != 200:
            failed += 1
            failures.append(f"op {op}: status {status} {body[:120]!r}")
            continue
        if body is None:
            continue
        index = inputs.template_index(op)
        kind, payload, _ = inputs.templates[index]
        try:
            reply = json.loads(body)
            if kind == "telemetry":
                report = reply["report"]
                batch = inputs.batches[
                    inputs.telemetry_sent[op] % len(inputs.batches)
                ]
                sent = len(batch) // inputs.frame_bytes
                accounted = (
                    report["n_accepted"] + report["n_duplicate"]
                    + report["n_out_of_order"] + report["n_unknown_link"]
                )
                ok = report["n_uplinks"] == sent == accounted
            else:
                if index not in expected:
                    expected[index] = oracle.recommend(
                        parse_recommend(payload)
                    ).evaluation
                ok = _same_answer(expected[index], reply["recommendation"])
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed += 1
            failures.append(f"op {op}: {kind} answer differs")
    return failed


def check_fleet(inputs: FleetInputs, records, failures: List[str], oracle) -> int:
    """Failed ops: any non-200, or a sampled body answered differently
    from per-link single recommends of the same links."""
    from repro.errors import InfeasibleError
    from repro.serve.protocol import parse_recommend

    failed = 0
    for op, _, status, body in records:
        if status != 200:
            failed += 1
            failures.append(f"op {op}: status {status} {body[:120]!r}")
            continue
        if body is None:
            continue
        payload = inputs.payloads[inputs.body_index(op)]
        try:
            results = json.loads(body)["results"]
        except (ValueError, KeyError, TypeError):
            results = []
        ok = len(results) == len(payload["links"])
        for link, result in zip(payload["links"], results):
            request = parse_recommend({"link": link, "objective": "energy"})
            try:
                answer = oracle.recommend(request).evaluation
            except InfeasibleError:
                ok = ok and "error" in result
                continue
            ok = ok and _same_answer(answer, result.get("recommendation", {}))
        if not ok:
            failed += 1
            failures.append(f"op {op}: fleet answers differ from per-link")
    return failed


# ---------------------------------------------------------------- counters


def counter_diff(before: Dict[str, object], after: Dict[str, object]):
    """Counters that moved between two ``GET /metrics`` scrapes."""
    old = before["counters"]
    return {
        name: value - old.get(name, 0)
        for name, value in after["counters"].items()
        if value != old.get(name, 0)
    }


def oracle_counts(diff: Dict[str, float], n_ops: int) -> Dict[str, float]:
    """Policy share, solver solves per op and LRU hit rate from a diff."""
    tiers = {}
    for tier in ("policy", "precomputed", "lru", "miss"):
        tiers[tier] = diff.get(f"cache_{tier}_total", 0) + diff.get(
            f"fleet_cache_{tier}_total", 0
        )
    answers = sum(tiers.values())
    table = tiers["lru"] + tiers["miss"]
    return {
        "serve.oracle.policy_share": tiers["policy"] / answers if answers else 0.0,
        "serve.oracle.solver_solves": diff.get("policy_solver_solves_total", 0)
        / n_ops,
        "serve.oracle.lru_hit_rate": tiers["lru"] / table if table else 0.0,
    }


# ---------------------------------------------------------------- phases


class Workload:
    """Inputs, client threads and checks of one HTTP workload."""

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        if name == "serve-mix":
            self.inputs = MixInputs(seed, seconds)
            self.n_threads = 2
            self._check = check_mix
        else:
            self.inputs = FleetInputs(seed)
            self.n_threads = 1
            self._check = check_fleet
        self.failures: List[str] = []
        self._oracle = None

    def check(self, records) -> int:
        """Failed ops among ``records``, against an in-process oracle."""
        if self._oracle is None:
            from repro.serve import Oracle

            self._oracle = Oracle(policy=True)
        return self._check(self.inputs, records, self.failures, self._oracle)

    def phase(self, server: Server, seconds: float) -> Dict[str, object]:
        """Warm-up, ``/metrics`` scrape, timed closed loop, scrape, checks.

        Checks run after the clock stops; a failed check fails its op.
        """
        connections = [Connection(server.port) for _ in range(self.n_threads)]
        try:
            warm, _, _ = closed_loop(
                connections, self.inputs.source(warm=True), BANNER_TIMEOUT_S
            )
            scraper = Connection(server.port)
            before = scraper.get_json("/metrics")
            records, elapsed, cpu = closed_loop(
                connections, self.inputs.source(warm=False), seconds
            )
            after = scraper.get_json("/metrics")
            scraper.close()
        finally:
            for connection in connections:
                connection.close()
        failed = self.check(warm) + self.check(records)
        ok = {record[0]: record[1] for record in records if record[2] == 200}
        if not ok:
            raise BenchError("no timed request succeeded")
        return {
            "latency_s": ok,
            "attempted": len(warm) + len(records),
            "n_timed": len(records),
            "failed": failed,
            "elapsed_s": elapsed,
            "cpu_s": cpu,
            "counters": counter_diff(before, after),
        }


def run(name: str, seed: int, seconds: float, trace: bool, tail_q: float):
    """Returns ``(values, attempted, failed, detail)``."""
    workload = Workload(name, seed, seconds)
    if trace:
        return _traced(workload, seconds)
    server, setup_times = spawn_servers(N_SETUPS_BEFORE)
    try:
        phase = workload.phase(server, seconds)
    finally:
        server.stop()
    server, later_times = spawn_servers(N_SETUPS_AFTER)
    server.stop()
    setup_times += later_times
    latencies_ms = [value * 1e3 for value in phase["latency_s"].values()]
    summary = latency_summary(latencies_ms, tail_q)
    values = {
        "setup_s": statistics.median(setup_times),
        "p50_ms": summary["p50_ms"],
        "tail_ms": summary["tail_ms"],
        "throughput_per_s": len(latencies_ms) / phase["elapsed_s"],
    }
    detail = {
        "setup_s_each": setup_times,
        "latency": summary,
        "generator_cpu_share": phase["cpu_s"] / phase["elapsed_s"],
        "counters": phase["counters"],
        "failures": workload.failures[:5],
    }
    return values, phase["attempted"], phase["failed"], detail


def _serve_layers(spans, latency_s: Dict[int, float]) -> Dict[str, float]:
    """Mean ms per op of every serve layer.

    ``transport`` (client latency minus ``do_POST``) and ``queue_wait``
    (``OracleService.call`` minus the worker's oracle and ingest spans)
    are differences, so for an op with server spans the layers add up to
    its latency; ops without them land in ``trace.unattributed_ms``.
    """
    from tracer import per_op

    table = per_op(spans, latency_s)
    sums = dict.fromkeys(
        (
            "serve.http.transport_ms",
            "serve.http.handler_self_ms",
            "serve.protocol.parse_ms",
            "serve.service.queue_wait_ms",
            "serve.oracle.answer_ms",
            "serve.oracle.fleet_ms",
            "serve.client.to_dict_ms",
            "telemetry.codec.decode_ms",
            "telemetry.ingest.self_ms",
            "telemetry.estimator.apply_ms",
        ),
        0.0,
    )
    unmatched = 0.0
    for op, latency in latency_s.items():
        entry = table[op]

        def total(name: str) -> float:
            return entry[name][0] if name in entry else 0.0

        handler = total("serve.http.do_post")
        if handler == 0.0:
            unmatched += latency
            continue
        client = total("serve.client")
        parse = total("serve.protocol.parse")
        call = total("serve.service.call")
        answer = total("serve.oracle.answer")
        fleet = total("serve.oracle.fleet")
        ingest = total("telemetry.ingest")
        decode = total("telemetry.codec.decode")
        apply = total("telemetry.estimator.apply")
        for name, value in (
            ("serve.http.transport_ms", latency - handler),
            ("serve.http.handler_self_ms", handler - client),
            ("serve.protocol.parse_ms", parse),
            ("serve.service.queue_wait_ms", call - answer - fleet - ingest),
            ("serve.oracle.answer_ms", answer),
            ("serve.oracle.fleet_ms", fleet),
            ("serve.client.to_dict_ms", client - parse - call),
            ("telemetry.codec.decode_ms", decode),
            ("telemetry.ingest.self_ms", ingest - decode - apply),
            ("telemetry.estimator.apply_ms", apply),
        ):
            sums[name] += value
    n_ops = len(latency_s)
    layers = {name: value * 1e3 / n_ops for name, value in sums.items()}
    layers["trace.latency_ms"] = statistics.fmean(latency_s.values()) * 1e3
    layers["trace.unattributed_ms"] = unmatched * 1e3 / n_ops
    return layers


def _traced(workload: Workload, seconds: float):
    """Untraced half for reference, then a traced server for the spans."""
    server = Server()
    try:
        untraced = workload.phase(server, seconds / 2)
    finally:
        server.stop()
    traced_server = Server(traced=True)
    try:
        traced = workload.phase(traced_server, seconds / 2)
    finally:
        dump = traced_server.stop()
    report = json.loads(dump.strip().splitlines()[-1])
    latency_s = traced["latency_s"]
    values = _serve_layers(report["spans"], latency_s)
    values.update(oracle_counts(traced["counters"], traced["n_timed"]))
    untraced_p50 = percentile(list(untraced["latency_s"].values()), 50.0) * 1e3
    traced_p50 = percentile(list(latency_s.values()), 50.0) * 1e3
    values.update(
        {
            "setup.import_ms": report["import_ms"],
            "setup.policy_compile_ms": report["policy_compile_ms"],
            "bench.generator_cpu_share": untraced["cpu_s"]
            / untraced["elapsed_s"],
            "trace.untraced_p50_ms": untraced_p50,
            "trace.traced_p50_ms": traced_p50,
            "trace.overhead_share": traced_p50 / untraced_p50 - 1.0,
        }
    )
    detail = {
        "counters": traced["counters"],
        "failures": workload.failures[:5],
        "n_spans": len(report["spans"]),
    }
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    return values, attempted, failed, detail
