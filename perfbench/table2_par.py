"""Cold-then-warm parallel Table II sweeps in a fresh process (``table2-par``).

Usage::

    python perfbench/table2_par.py --seed N --sweeps K --setups S --workdir DIR [--trace]

Set-up is one cold ``Session(jobs=nproc, cache=fresh dir).table2()``,
which fills the artifact cache; it is made ``S`` times, each into a new
cache directory.  Each op is one warm parallel ``table2()`` in a fresh
Session over the last cache, with the in-process measure memo cleared, so
every point is a cache hit.  The seed orders the tool columns.  A
host-speed probe (``common.host_probe_s``) runs before and after each
set-up and op, outside the timed intervals.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def check_table(table, golden) -> list[str]:
    """Reasons for every cell that failed or differs from its golden."""
    problems = []
    for key, column in table.columns.items():
        for measured, error in ((column.initial, column.initial_error),
                                (column.optimized, column.optimized_error)):
            if error is not None:
                problems.append(f"{key}: FAILED({error.get('type')})")
                continue
            problem = common.check_measured(measured, golden)
            if problem:
                problems.append(problem)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweeps", type=int, required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    common.use_src()
    rec = None
    if args.trace:
        import layers

        rec = layers.Recorder()
        layers.install(rec)
    from repro.api import Session
    from repro.eval.experiments import PAIRS
    from repro.eval.measure import clear_measure_cache

    jobs = os.cpu_count() or 2
    golden = common.load_golden()
    tools = common.seeded_order(list(PAIRS), args.seed)
    points = 2 * len(tools)
    setup_times, setup_probes, failures, cache_stats = [], [], [], []
    cache_dir = None
    for _ in range(args.setups):
        if cache_dir is not None:
            shutil.rmtree(cache_dir)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.workdir)
        clear_measure_cache()
        probe = common.host_probe_s()
        start = time.perf_counter()
        session = Session(jobs=jobs, cache=cache_dir)
        table = session.table2(tools)
        setup_times.append(time.perf_counter() - start)
        setup_probes.append([probe, common.host_probe_s()])
        failures += check_table(table, golden)
        cache_stats.append(dict(session.cache.stats))
    latencies, op_failures = [], 0
    probes = [common.host_probe_s()]
    for _ in range(args.sweeps):
        clear_measure_cache()
        start = time.perf_counter()
        with (rec.span("bench.op") if rec else nullcontext()):
            session = Session(jobs=jobs, cache=cache_dir)
            table = session.table2(tools)
        latencies.append(time.perf_counter() - start)
        probes.append(common.host_probe_s())
        problems = check_table(table, golden)
        if session.cache.stats["misses"]:
            problems.append(f"{session.cache.stats['misses']} cache misses")
        op_failures += bool(problems)
        failures += problems
        cache_stats.append(dict(session.cache.stats))
    out = {"setup_times": setup_times, "setup_probes": setup_probes,
           "points": points, "latencies": latencies, "probes": probes,
           "failures": failures,
           "op_failures": op_failures, "cache": cache_stats,
           "peak_rss_mb": (common.peak_rss_mb()
                           + common.peak_rss_mb(children=True))}
    if rec is not None:
        out["layers"] = rec.export()
    common.emit(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
