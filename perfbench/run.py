"""Benchmark entry point: run one workload, check every output, print metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``sweep-cold`` — one serial pass over a fixed set of Table II and
  ``fig1 --full`` design points in a fresh process, no artifact cache;
* ``table2-par`` — repeated warm parallel ``table2()`` sweeps over a
  cache filled in set-up;
* ``idct-serve`` — the ``serve`` CLI under two closed-loop keep-alive
  connections on a fixed ``/v1/idct`` request list.

Every run does a fixed amount of work sized from ``--seconds`` at the
nominal rates in :mod:`common`, so a faster program finishes sooner and
reports a higher throughput.  Every set-up and op (a segment of the
load on ``idct-serve``) lies between two host-speed probes, and its time
is rescaled to the reference host speed by them
(:func:`common.at_reference_speed`), so a shared host's drift does not
read as a change of the program.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced with
the layer wrappers of :mod:`layers`, and prints the per-layer metrics.
The last stdout line is the result object; the line before it carries
the host-speed probe (``host.calib_ms``) taken before and after the run
and the end-to-end times as measured, before rescaling (``raw``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402

#: Wall-clock cap for one program subprocess.
CHILD_TIMEOUT_S = 150
SWEEP_COLD_SETUPS = 3
TABLE2_SETUPS = 2
SERVE_SETUPS = 2

SERVE_KEYS = ("serve.requests", "serve.sim_invocations",
              "serve.blocks_per_invocation", "serve.request_ms_mean",
              "serve.client_wait_ms")
CACHE_KEYS = ("hits", "misses", "puts")


class Outcome:
    """What one workload run reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        #: The end-to-end times as measured, before rescaling to the
        #: reference host speed (printed on the diagnostics line).
        self.raw: dict[str, float] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def put_times(self, *, setups: list[dict], throughput: float,
                  latencies: list[float], raw_throughput: float,
                  raw_latencies: list[float]) -> None:
        """The three timed end-to-end metrics, from rescaled samples; the
        same figures from the raw samples go to :attr:`raw`.

        ``setups`` holds one ``{"setup_s", "setup_probes"}`` per set-up.
        """
        self.put("setup_s", common.median(
            [common.at_reference_speed([s["setup_s"]], s["setup_probes"])[0]
             for s in setups]), "s")
        self.put("throughput_per_s", throughput, "1/s")
        self.put("latency_tail_ms", tail_ms(latencies), "ms")
        self.raw = {"setup_s": common.median([s["setup_s"] for s in setups]),
                    "throughput_per_s": raw_throughput,
                    "latency_tail_ms": tail_ms(raw_latencies)}


def run_child(script: str, *args: str) -> dict:
    """Run a benchmark child script; return its last JSON line."""
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / script), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=str(common.ROOT), env=common.child_env())
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_ms(latencies: list[float]) -> float:
    tail = common.tail_percentile(latencies)
    if tail is None:
        raise RuntimeError(f"too few samples ({len(latencies)}) for any "
                           f"percentile with {common.MIN_BEYOND} beyond")
    return tail[1] * 1000.0


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(export: dict) -> dict[str, float]:
    """Per-layer self times and exact counts from one traced run."""
    st = layers.self_times(export["spans"])
    counts = export["counts"]

    def calls(span: str) -> float:
        return counts.get(span + ".calls", 0)

    return {
        "rtl.elaborate_s": st.get("rtl.elaborate", 0.0),
        "rtl.elaborate_calls": calls("rtl.elaborate"),
        "rtl.validate_s": st.get("rtl.validate", 0.0),
        "rtl.netlist_nodes": counts.get("rtl.netlist_nodes", 0),
        "sim.compile_s": st.get("sim.compile", 0.0),
        "sim.compile_calls": calls("sim.compile"),
        "sim.stream_s": st.get("sim.stream", 0.0),
        "sim.stream_cycles": counts.get("sim.stream_cycles", 0),
        "sim.batch_compile_s": st.get("sim.batch_compile", 0.0),
        "sim.batch_s": st.get("sim.batch", 0.0),
        "sim.batch_blocks": counts.get("sim.batch_blocks", 0),
        "synth.synthesize_s": st.get("synth.synthesize", 0.0),
        "synth.calls": calls("synth.synthesize"),
        "frontends.build_s": st.get("frontends.build", 0.0),
        "frontends.builds": calls("frontends.build"),
        "eval.measure_self_s": st.get("eval.measure", 0.0),
        "eval.verify_self_s": st.get("eval.verify", 0.0),
        "resilience.measure_self_s": (st.get("resilience.measure", 0.0)
                                      + st.get("resilience.attempt", 0.0)),
        "resilience.retries": (calls("resilience.attempt")
                               - calls("resilience.measure")),
        "cache.read_s": st.get("cache.read", 0.0),
        "cache.write_s": st.get("cache.write", 0.0),
        "exec.prefetch_s": st.get("exec.prefetch", 0.0),
        "exec.consume_s": st.get("exec.consume", 0.0),
        "exec.tasks": counts.get("exec.tasks", 0),
        "exec.worker_restarts": counts.get("exec.worker_restarts", 0),
        "bench.layer_coverage": layers.op_coverage(export["spans"]),
    }


def put_layers(out: Outcome, export: dict, *, untraced_tp: float,
               traced_tp: float, cache: dict | None = None,
               serve: dict | None = None) -> None:
    for name, value in layer_metrics(export).items():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name == "bench.layer_coverage" else "count")
        out.put(name, value, unit)
    cache = cache or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    for key in CACHE_KEYS:
        out.put(f"cache.{key}", cache.get(key, 0), "count")
    out.put("cache.hit_ratio", hits / (hits + misses) if hits + misses else 0.0,
            "ratio")
    serve = serve or {}
    for key in SERVE_KEYS:
        unit = ("ms" if key.endswith("_ms") or key.endswith("_ms_mean")
                else "count")
        out.put(key, serve.get(key, 0.0), unit)
    out.put("bench.untraced_throughput_per_s", untraced_tp, "1/s")
    out.put("bench.traced_throughput_per_s", traced_tp, "1/s")
    out.put("bench.trace_overhead_pct", (untraced_tp / traced_tp - 1) * 100.0,
            "%")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def sweep_cold(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    points = min(len(common.load_points()),
                 seconds * common.SWEEP_POINTS_PER_S)
    base = ["--seed", str(seed), "--points", str(points)]
    runs = []
    if not trace:
        setups = [run_child("sweep_cold.py", *base, "--setup-only")
                  for _ in range(SWEEP_COLD_SETUPS - 1)]
        runs.append(run_child("sweep_cold.py", *base))
        setups.append(runs[-1])
    else:
        runs.append(run_child("sweep_cold.py", *base))
        runs.append(run_child("sweep_cold.py", *base, "--trace"))
    for run in runs:
        out.attempted += len(run["latencies"])
        out.failed += len(run["failures"])
        out.problems += run["failures"]
    first = runs[0]
    scaled = [common.at_reference_speed(r["latencies"], r["probes"])
              for r in runs]
    throughput = [len(lat) / sum(lat) for lat in scaled]
    if not trace:
        out.put_times(setups=setups, throughput=throughput[0],
                      latencies=scaled[0],
                      raw_throughput=(len(first["latencies"])
                                      / sum(first["latencies"])),
                      raw_latencies=first["latencies"])
        out.put("peak_rss_mb", first["peak_rss_mb"], "MB")
    else:
        put_layers(out, runs[1]["layers"], untraced_tp=throughput[0],
                   traced_tp=throughput[1])
    return out


def table2_par(seed: int, seconds: int, trace: bool) -> Outcome:
    out = Outcome()
    sweeps = max(2 * common.MIN_BEYOND, seconds * common.TABLE2_SWEEPS_PER_S)
    common.WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="table2-", dir=common.WORK_DIR)
    try:
        base = ["--seed", str(seed), "--sweeps", str(sweeps),
                "--workdir", workdir]
        if not trace:
            runs = [run_child("table2_par.py", *base,
                              "--setups", str(TABLE2_SETUPS))]
        else:
            runs = [run_child("table2_par.py", *base, "--setups", "1"),
                    run_child("table2_par.py", *base, "--setups", "1",
                              "--trace")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for run in runs:
        out.attempted += len(run["latencies"])
        out.failed += run["op_failures"]
        out.problems += run["failures"]
    # Every op is the same sweep, so the median sweep is the robust rate.
    scaled = [common.at_reference_speed(r["latencies"], r["probes"])
              for r in runs]
    throughput = [r["points"] / common.median(lat)
                  for r, lat in zip(runs, scaled)]
    if not trace:
        first = runs[0]
        out.put_times(
            setups=[{"setup_s": t, "setup_probes": p} for t, p in
                    zip(first["setup_times"], first["setup_probes"])],
            throughput=throughput[0], latencies=scaled[0],
            raw_throughput=first["points"] / common.median(first["latencies"]),
            raw_latencies=first["latencies"])
        out.put("peak_rss_mb", first["peak_rss_mb"], "MB")
    else:
        cache = {key: sum(c[key] for c in runs[1]["cache"])
                 for key in CACHE_KEYS}
        put_layers(out, runs[1]["layers"], untraced_tp=throughput[0],
                   traced_tp=throughput[1], cache=cache)
    return out


def idct_serve(seed: int, seconds: int, trace: bool) -> Outcome:
    import idct_serve as serve

    out = Outcome()
    pairs = len(common.SERVE_DESIGNS) * len(common.SERVE_ENGINES)
    rounds = max(1, round(seconds * common.SERVE_REQUESTS_PER_S
                          / (pairs * common.SERVE_SIZES_PER_PAIR)))
    if not trace:
        loads = [serve.run_once(seed, rounds, SERVE_SETUPS)]
    else:
        common.WORK_DIR.mkdir(exist_ok=True)
        fd, trace_path = tempfile.mkstemp(prefix="serve-", suffix=".json",
                                          dir=common.WORK_DIR)
        os.close(fd)
        try:
            loads = [serve.run_once(seed, rounds, 1),
                     serve.run_once(seed, rounds, 1, trace_out=trace_path)]
            with open(trace_path, encoding="utf-8") as handle:
                export = json.load(handle)
        finally:
            os.unlink(trace_path)
    for load in loads:
        out.attempted += load["requests"]
        out.failed += load["op_failures"]
        out.problems += load["failures"]
    scaled = [serve.at_reference_speed(load) for load in loads]
    throughput = [load["blocks"] / wall
                  for load, (wall, _) in zip(loads, scaled)]
    if not trace:
        first = loads[0]
        out.put_times(
            setups=[{"setup_s": t, "setup_probes": p} for t, p in
                    zip(first["setup_times"], first["setup_probes"])],
            throughput=throughput[0], latencies=scaled[0][1],
            raw_throughput=first["blocks"] / sum(first["walls"]),
            raw_latencies=first["latencies"])
        out.put("peak_rss_mb", first["rss"], "MB")
    else:
        put_layers(out, export, untraced_tp=throughput[0],
                   traced_tp=throughput[1],
                   cache={"hits": loads[1]["delta"].get("repro_cache_hits", 0),
                          "misses": loads[1]["delta"].get("repro_cache_misses", 0)},
                   serve=serve.serve_layer_metrics(loads[1]))
    return out


WORKLOADS = {"sweep-cold": sweep_cold, "table2-par": table2_par,
             "idct-serve": idct_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.use_src()
    if not common.GOLDEN_PATH.is_file():
        raise SystemExit(f"perfbench: missing {common.GOLDEN_PATH}")
    calib = [common.host_calib_ms()]
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds,
                                       bool(args.trace))
    except Exception:  # noqa: BLE001 - report, print no result, exit 1
        traceback.print_exc()
        return 1
    calib.append(common.host_calib_ms())
    if args.trace:
        out.put("host.calib_ms", common.median(calib), "ms")
    for problem in out.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    common.emit({"diagnostics": {"host.calib_ms": calib, "raw": out.raw}})
    common.emit({
        "correct": not out.problems and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
