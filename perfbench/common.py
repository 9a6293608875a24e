"""Shared pieces of the benchmark: op lists, statistics, probes, goldens.

Nothing here imports the program at module level, so the unit tests and
the entry point (``run.py``) can load it without ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden" / "measured.json"
WORK_DIR = ROOT / ".perfbench_work"

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Percentiles tried, highest first, for the tail-latency metric.
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)

#: Iterations of the interleaved host-speed probe (:func:`host_probe_s`).
PROBE_ITERATIONS = 200_000
#: The probe's nominal time on the reference host (a 2-vCPU x86 Xeon):
#: every reported time is rescaled to a host on which the probe takes
#: this long (:func:`at_reference_speed`).
PROBE_REF_S = 0.018

#: Design points one sweep-cold run measures per requested second, at the
#: program's speed on a 2-vCPU x86 host (~2 points/s).
SWEEP_POINTS_PER_S = 2
#: Warm table2 sweeps one table2-par run makes per requested second.
TABLE2_SWEEPS_PER_S = 1
#: /v1/idct requests one idct-serve run sends per requested second.
SERVE_REQUESTS_PER_S = 7
#: Requests per design × engine pair in one round of the request list.
SERVE_SIZES_PER_PAIR = 6

SERVE_DESIGNS = ("verilog-opt", "chisel-opt", "bsv-opt", "xls-s8")
SERVE_ENGINES = ("model", "batch", "sim")
SERVE_MAX_BLOCKS = 16
#: IEEE 1180 input range of the request blocks.
BLOCK_LOW, BLOCK_HIGH = -256, 255


def use_src() -> None:
    """Put the checkout's ``src`` on ``sys.path`` (fail if it is absent)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def child_env() -> dict:
    """Environment for program subprocesses: ``src`` importable."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# op lists
# ----------------------------------------------------------------------

def stable_key(name: str) -> str:
    """Seed-independent order used to pick a fixed subset of points."""
    return hashlib.sha256(name.encode()).hexdigest()


def sweep_point_names(union: list[str], count: int) -> list[str]:
    """The fixed set of ``count`` points a sweep-cold run measures."""
    return sorted(sorted(set(union), key=stable_key)[:count])


def seeded_order(items: list, seed: int) -> list:
    """``items`` in a seed-determined order (same seed, same order)."""
    out = list(items)
    random.Random(f"perfbench:{seed}").shuffle(out)
    return out


def serve_requests(seed: int, rounds: int) -> list[dict]:
    """A fixed request list in seeded order.

    Each round sends every design × engine pair a fixed set of
    :data:`SERVE_SIZES_PER_PAIR` block counts from 1–16, so the multiset
    of ``(design, engine, blocks)`` is the same for every seed and only
    the order and the block contents change.
    """
    rng = random.Random(f"perfbench-serve:{seed}")
    combos = [(d, e) for d in SERVE_DESIGNS for e in SERVE_ENGINES]
    shapes = [(design, engine, 1 + (c + 7 * j) % SERVE_MAX_BLOCKS)
              for c, (design, engine) in enumerate(combos)
              for j in range(SERVE_SIZES_PER_PAIR)]
    requests = []
    for design, engine, size in seeded_order(shapes * rounds, seed):
        blocks = [[[rng.randint(BLOCK_LOW, BLOCK_HIGH) for _ in range(8)]
                   for _ in range(8)] for _ in range(size)]
        requests.append({"design": design, "engine": engine,
                         "blocks": blocks})
    return requests


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def harrell_davis(values: list[float], q: float) -> float:
    """Harrell–Davis estimate of the ``q``-quantile (0 < q < 1).

    A weighted mean of all order statistics with Beta(q(n+1), (1-q)(n+1))
    weights, so one noisy sample near the rank moves it far less than it
    moves the nearest-rank value.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                        - log_norm)

    steps = 64  # trapezoid steps per order statistic
    grid = [pdf(k / (steps * n)) for k in range(steps * n + 1)]
    weights = [sum(grid[i * steps:(i + 1) * steps + 1]) - (grid[i * steps]
               + grid[(i + 1) * steps]) / 2 for i in range(n)]
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def percentile(values: list[float], q: float) -> float | None:
    """The ``q``-th percentile (Harrell–Davis), or ``None`` unless at
    least :data:`MIN_BEYOND` samples rank beyond its nearest rank."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return harrell_davis(values, q / 100.0)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of :data:`TAIL_PERCENTILES` that :func:`percentile`
    allows, with its value."""
    for q in TAIL_PERCENTILES:
        value = percentile(values, q)
        if value is not None:
            return q, value
    return None


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# ----------------------------------------------------------------------
# /metrics (Prometheus text) deltas
# ----------------------------------------------------------------------

def parse_prometheus(text: str) -> dict[str, float]:
    """``series -> value`` for every sample line of a text exposition."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            out[series] = float(value)
        except ValueError:
            continue
    return out


def metrics_delta(before: dict[str, float],
                  after: dict[str, float]) -> dict[str, float]:
    """Per-series ``after - before`` (a series new in ``after`` counts
    from zero)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------

def _spin(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc += i * i & 0xFF
    return acc


def host_calib_ms(iterations: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    _spin(iterations)
    return (time.perf_counter() - start) * 1000.0


def host_probe_s() -> float:
    """Thread CPU time of :data:`PROBE_ITERATIONS` of the calibration loop.

    CPU time rather than wall time, so a busy thread or process of the
    program cannot lengthen it: on a shared host a busy neighbour slows
    execution itself (CPU time tracks wall time), and that is the only
    thing this probe is meant to see.
    """
    start = time.thread_time()
    _spin(PROBE_ITERATIONS)
    return time.thread_time() - start


def at_reference_speed(durations: list[float],
                       probes: list[float]) -> list[float]:
    """``durations`` rescaled to the reference host speed.

    ``probes`` holds one :func:`host_probe_s` reading before the first
    duration and one after each, so ``durations[i]`` is scaled by
    :data:`PROBE_REF_S` over the mean of the two probes around it.
    """
    if len(probes) != len(durations) + 1:
        raise ValueError(f"{len(durations)} durations need "
                         f"{len(durations) + 1} probes, got {len(probes)}")
    return [d * scale for d, scale in zip(durations, reference_scales(probes))]


def reference_scales(probes: list[float]) -> list[float]:
    """The factor that rescales the interval between each two consecutive
    probes to the reference host speed."""
    return [2.0 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# goldens
# ----------------------------------------------------------------------

def load_golden() -> dict[str, str]:
    """``design name -> Measured.to_json()`` text at the reference commit."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["measured"]


def load_points() -> dict[str, list]:
    """``design name -> [source, key, index]`` for the Table II ∪
    ``fig1 --full`` union, in generation order."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["points"]


def check_measured(measured, golden: dict[str, str]) -> str | None:
    """``None`` when ``measured`` is bit-exact and byte-equal to its
    golden, else a short reason."""
    if measured is None:
        return "no measurement"
    if not measured.bit_exact:
        return f"{measured.name}: not bit_exact"
    expected = golden.get(measured.name)
    if expected is None:
        return f"{measured.name}: no golden"
    if measured.to_json() != expected:
        return f"{measured.name}: differs from golden"
    return None


def emit(payload: dict) -> None:
    """Print one JSON line (the child-to-parent protocol)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
