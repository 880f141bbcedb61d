"""Shared helpers: repository paths, host record, latency summaries.

Everything here runs in the benchmark's own process. The program under
test is imported from ``src/`` of the checkout the benchmark sits in, so
the benchmark never depends on an installed copy.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``tail_ms`` percentile per workload. Fixed here, never derived from a
#: run's sample count, so a faster change is judged at the same
#: percentile. Each leaves at least ten samples beyond it at the parent
#: commit's speed over a 25 s run (see README.md).
TAIL_PERCENTILE = {
    "serve-mix": 98.0,
    "fleet-http": 90.0,
    "control-loop": 95.0,
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken set-up)."""


def require_program() -> None:
    """Fail unless the checkout holds the program the benchmark drives."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program to benchmark: {SRC / 'repro'} is missing"
        )


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for child processes that run the program."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def reference_kernel_ms() -> float:
    """Mean time of a fixed numpy + interpreter kernel (host speed).

    The kernel never changes with the program, so a shift in it between
    two sets of runs is host drift, not a regression. The host switches
    between a fast and a slow speed within fractions of a second, so the
    mean over ~0.4 s of repetitions reads the share of time it is slow.
    """
    import numpy as np

    data = np.random.default_rng(12345).random(200_000)
    samples = []
    for _ in range(40):
        started = time.perf_counter()
        np.sort(data)
        total = 0
        for value in range(100_000):
            total += value & 7
        samples.append((time.perf_counter() - started) * 1e3)
    return statistics.fmean(samples)


def host_record() -> Dict[str, object]:
    """CPU count, interpreter, numpy, load and reference-kernel speed."""
    import numpy as np

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_usable": usable,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(value, 2) for value in os.getloadavg()],
        "ref_kernel_ms": reference_kernel_ms(),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def latency_summary(
    latencies_ms: List[float], tail_q: float
) -> Dict[str, float]:
    """p50, the fixed tail percentile, and how many samples lie beyond it."""
    tail = percentile(latencies_ms, tail_q)
    return {
        "n": len(latencies_ms),
        "p50_ms": percentile(latencies_ms, 50.0),
        "tail_q": tail_q,
        "tail_ms": tail,
        "n_beyond_tail": sum(1 for value in latencies_ms if value > tail),
        "mean_ms": statistics.fmean(latencies_ms),
    }
