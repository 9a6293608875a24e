"""One cold serial sweep pass in a fresh process (the ``sweep-cold`` body).

Usage::

    python perfbench/sweep_cold.py --seed N --points K [--trace] [--setup-only]

Set-up is what every ``table2``/``fig1 --full`` invocation pays before its
first point: importing the program and building the Table II pairs and the
Figure 1 design lists.  Each op then builds its point (deferred XLS and
Bambu points only) and measures it through ``SweepRunner.measure`` with no
artifact cache.  A host-speed probe (``common.host_probe_s``) runs before
and after set-up and between ops, outside every timed interval.  Prints
one JSON line with the set-up time, the per-op latencies, the probes,
the failures, the peak RSS and (with ``--trace``) the layer spans.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def union_points():
    """The sweep set-up: the built Table II pairs (``key -> pair``) and
    the ``fig1 --full`` design lists (``tool -> points``) that the op
    list's ``(source, key, index)`` entries index into."""
    from repro.eval.experiments import PAIRS, fig1_design_lists

    pairs = {key: factory() for key, factory in PAIRS.items()}
    lists = dict(fig1_design_lists())
    return pairs, lists


def resolve(pairs, lists, source, key, index, rec=None):
    """The design for one op; deferred Figure 1 points are built here."""
    if source == "table2":
        return pairs[key][index]
    item = lists[key][index]
    if not isinstance(item, tuple):
        return item
    if rec is None:
        return item[1]()
    with rec.span("frontends.build"):
        design = item[1]()
    rec.count("frontends.build.calls")
    return design


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--points", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    setup_probes = [common.host_probe_s()]
    start = time.perf_counter()
    common.use_src()
    rec = None
    if args.trace:
        import layers

        rec = layers.Recorder()
        layers.install(rec)
    pairs, lists = union_points()
    setup_s = time.perf_counter() - start
    setup_probes.append(common.host_probe_s())
    if args.setup_only:
        common.emit({"setup_s": setup_s, "setup_probes": setup_probes})
        return 0

    from repro.resilience.runner import SweepRunner

    golden = common.load_golden()
    index = common.load_points()
    names = common.seeded_order(
        common.sweep_point_names(list(index), args.points), args.seed)
    runner = SweepRunner()
    latencies, failures = [], []
    probes = [common.host_probe_s()]
    for name in names:
        start = time.perf_counter()
        with (rec.span("bench.op") if rec else nullcontext()):
            design = resolve(pairs, lists, *index[name], rec=rec)
            result = runner.measure(design)
        latencies.append(time.perf_counter() - start)
        probes.append(common.host_probe_s())
        problem = (result.reason if not result.ok
                   else common.check_measured(result.measured, golden))
        if design.name != name:
            problem = f"op {name} built {design.name}"
        if problem:
            failures.append(problem)
    out = {"setup_s": setup_s, "setup_probes": setup_probes,
           "latencies": latencies, "probes": probes, "failures": failures,
           "peak_rss_mb": common.peak_rss_mb()}
    if rec is not None:
        out["layers"] = rec.export()
    common.emit(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
