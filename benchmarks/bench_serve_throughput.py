"""Serving throughput — req/s and latency with and without the cache.

Not a paper figure: this measures the `repro.serve` oracle service itself.
An in-process load generator drives the full parse → queue → batch → solve
path (everything but the socket) and reports requests/second plus p50/p99
latency for three regimes:

* **uncached** — every request pays a fresh grid evaluation (the naive
  per-request baseline the cache replaces);
* **warm cache** — all requests hit one sweep table, its SNR bin warmed
  by a single request before timing;
* **mixed** — a handful of cold SNR bins amid warm traffic (LRU misses).

The warm path must be >= 10x faster per request than the uncached
baseline; the run fails if the cache ever loses that margin.
"""

import pytest

from repro.core.optimization import TuningGrid
from repro.serve import Client, Oracle, OracleService, parse_recommend

#: Thinned payload axis: same shape as the serving default, ~4x fewer
#: configurations, so the uncached baseline stays benchmarkable.
GRID = TuningGrid(payload_values_bytes=tuple(range(2, 115, 8)))

WARM_LINK = {"distance_m": 10.0}
OBJECTIVES = ("energy", "goodput", "delay", "loss")
WARM_REQUESTS = 400

#: Cross-test scratch: the uncached per-request mean, filled by the
#: baseline bench and read by the warm bench for the speedup assertion.
_BASELINE = {}


@pytest.fixture(scope="module")
def serving():
    oracle = Oracle(grid=GRID, lru_capacity=32)
    service = OracleService(oracle, queue_capacity=512, workers=2)
    client = Client(service)
    client.recommend({"link": WARM_LINK, "objective": "energy"})
    yield oracle, service, client
    service.close()


def test_uncached_per_request_baseline(serving, benchmark, report):
    oracle, _, _ = serving
    request = parse_recommend({"link": WARM_LINK, "objective": "energy"})
    benchmark.pedantic(
        oracle.uncached_recommend, args=(request,), rounds=3, iterations=1
    )
    per_request_s = benchmark.stats.stats.mean
    _BASELINE["uncached_s"] = per_request_s
    report.header("Serve throughput: uncached per-request grid evaluation")
    report.emit(
        f"grid: {len(GRID)} configurations per request",
        f"per request : {per_request_s * 1e3:8.1f} ms",
        f"throughput  : {1.0 / per_request_s:8.2f} req/s",
    )


def test_warm_cache_throughput(serving, benchmark, report):
    _, service, client = serving
    payloads = [
        {"link": WARM_LINK, "objective": objective} for objective in OBJECTIVES
    ]

    def burst():
        for i in range(WARM_REQUESTS):
            client.recommend(payloads[i % len(payloads)])

    benchmark.pedantic(burst, rounds=3, iterations=1)
    per_request_s = benchmark.stats.stats.mean / WARM_REQUESTS
    histogram = service.metrics.histogram("request_total_s")
    p50_ms = histogram.percentile(0.5) * 1e3
    p99_ms = histogram.percentile(0.99) * 1e3
    report.header("Serve throughput: warm cache (one warmed SNR bin)")
    report.emit(
        f"requests    : {histogram.count} completed",
        f"per request : {per_request_s * 1e6:8.1f} us",
        f"throughput  : {1.0 / per_request_s:8.0f} req/s",
        f"latency     : p50 {p50_ms:.3f} ms, p99 {p99_ms:.3f} ms",
    )
    uncached_s = _BASELINE.get("uncached_s")
    if uncached_s is not None:
        speedup = uncached_s / per_request_s
        report.shape_check(
            f"warm-cache path >= 10x faster than uncached "
            f"({speedup:,.0f}x measured)",
            speedup >= 10.0,
        )
        assert speedup >= 10.0


def test_mixed_cold_and_warm_traffic(serving, benchmark, report):
    _, service, client = serving
    # Answers are keyed by SNR bin, so the cold links sit 4 dB apart: each
    # is its own bin and pays its own grid evaluation.
    cold_links = [{"snr_db": 3.0 + 4.0 * i} for i in range(3)]

    def mixed():
        for i in range(30):
            link = cold_links[i % 3] if i < 3 else WARM_LINK
            client.recommend({"link": link, "objective": "energy"})

    benchmark.pedantic(mixed, rounds=2, iterations=1)
    info = service.metrics
    report.header("Serve throughput: mixed cold/warm traffic (LRU misses)")
    report.emit(
        f"total batch count : {info.counter('batches_total')}",
        f"cache tiers hit   : lru={info.counter('cache_lru_total')}, "
        f"miss={info.counter('cache_miss_total')}",
        f"mean request      : "
        f"{benchmark.stats.stats.mean / 30 * 1e3:8.2f} ms (30 requests, "
        f"3 cold bins)",
    )
    assert info.counter("cache_miss_total") >= 3
