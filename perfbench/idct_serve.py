"""The ``idct-serve`` workload: ``python -m repro serve`` under a closed loop.

Set-up starts the server as a subprocess with ``--warm`` for the served
designs and sends one warm-up request per (design, engine), so lazy
simulator and batch compiles land in set-up.  The load is this process
with two keep-alive HTTP connections, each sending its next request only
after the previous reply arrived, over a fixed seeded request list sent
in segments with a host-speed probe between them.
Every returned block is checked against the scalar golden model
``repro.idct.reference.chen_wang_idct``.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time

import common

CONNECTIONS = 2
#: Requests sent between two host-speed probes.
SEGMENT_REQUESTS = 12
STOP_TIMEOUT_S = 60


class Server:
    """One ``serve`` subprocess on an ephemeral port."""

    def __init__(self, trace_out: str | None = None) -> None:
        warm = [arg for d in common.SERVE_DESIGNS for arg in ("--warm", d)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_traced.py"),
                   trace_out, "serve"]
        self.proc = subprocess.Popen(
            cmd + ["--port", "0"] + warm, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=common.child_env(),
            cwd=str(common.ROOT))
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.host, self.port = host, int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def metrics(self) -> dict[str, float]:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            return common.parse_prometheus(conn.getresponse().read().decode())
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM (drain) and wait; SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


def post_idct(conn, request: dict) -> tuple[int, list | None]:
    body = json.dumps(request)
    conn.request("POST", "/v1/idct", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = response.read()
    if response.status != 200:
        return response.status, None
    return 200, json.loads(payload)["outputs"]


def warm_up(server: Server) -> list[str]:
    """One single-block request per (design, engine); returns failures."""
    from repro.idct.reference import chen_wang_idct

    block = [[(r * 8 + c) % 61 - 30 for c in range(8)] for r in range(8)]
    expected = [chen_wang_idct(block)]
    failures = []
    conn = server.connect()
    try:
        for design in common.SERVE_DESIGNS:
            for engine in common.SERVE_ENGINES:
                status, blocks = post_idct(
                    conn, {"design": design, "engine": engine,
                           "blocks": [block]})
                if status != 200 or blocks != expected:
                    failures.append(f"warm-up {design}/{engine}: {status}")
    finally:
        conn.close()
    return failures


def start(trace_out: str | None = None) -> tuple[Server, float, list[str]]:
    """Start and warm one server; returns it, its set-up time, failures."""
    begin = time.perf_counter()
    server = Server(trace_out)
    try:
        failures = warm_up(server)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - begin, failures


def segments(count: int) -> list[range]:
    """``range(count)`` cut into runs of at most :data:`SEGMENT_REQUESTS`."""
    return [range(lo, min(lo + SEGMENT_REQUESTS, count))
            for lo in range(0, count, SEGMENT_REQUESTS)]


def run_load(server: Server, requests: list[dict],
             expected: list[list]) -> dict:
    """Send ``requests`` over :data:`CONNECTIONS` closed-loop connections.

    The list is sent in segments; between two segments both connections
    are idle while this process takes a host-speed probe.
    """
    latencies = [0.0] * len(requests)
    statuses = [0] * len(requests)
    outputs: list = [None] * len(requests)
    lock = threading.Lock()

    def client(conn, order) -> None:
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            begin = time.perf_counter()
            statuses[i], outputs[i] = post_idct(conn, requests[i])
            latencies[i] = time.perf_counter() - begin

    before = server.metrics()
    conns = [server.connect() for _ in range(CONNECTIONS)]
    walls, probes = [], [common.host_probe_s()]
    try:
        for segment in segments(len(requests)):
            # Each connection takes the next request of the segment when
            # its reply is in, so both stay busy whatever the mix.
            order = iter(segment)
            threads = [threading.Thread(target=client, args=(conn, order))
                       for conn in conns]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            walls.append(time.perf_counter() - begin)
            probes.append(common.host_probe_s())
    finally:
        for conn in conns:
            conn.close()
    delta = common.metrics_delta(before, server.metrics())
    failures = []
    for i, (status, output) in enumerate(zip(statuses, outputs)):
        if status != 200:
            failures.append(f"request {i}: HTTP {status}")
        elif output != expected[i]:
            failures.append(f"request {i}: blocks differ from golden")
    return {"walls": walls, "probes": probes, "latencies": latencies,
            "failures": failures,
            "op_failures": len(failures),
            "delta": delta, "rss": common.proc_peak_rss_mb(server.proc.pid),
            "blocks": sum(len(r["blocks"]) for r in requests)}


def at_reference_speed(load: dict) -> tuple[float, list[float]]:
    """The load time and per-request latencies of one load, each rescaled
    by the probes around its segment (:func:`common.at_reference_speed`)."""
    scales = common.reference_scales(load["probes"])
    if len(scales) != len(load["walls"]):
        raise ValueError("one probe per segment boundary expected")
    latencies = load["latencies"]
    scaled = [latencies[i] * scale
              for segment, scale in zip(segments(len(latencies)), scales)
              for i in segment]
    return sum(w * f for w, f in zip(load["walls"], scales)), scaled


def golden_outputs(requests: list[dict]) -> list[list]:
    from repro.idct.reference import chen_wang_idct

    return [[chen_wang_idct(block) for block in r["blocks"]]
            for r in requests]


def serve_layer_metrics(load: dict) -> dict[str, float]:
    """Per-layer serve numbers from the ``/metrics`` delta of one load."""
    delta = load["delta"]
    requests = delta.get("repro_serve_requests_total", 0.0)
    invocations = delta.get("repro_serve_sim_invocations", 0.0)
    blocks = delta.get("repro_serve_blocks_total", 0.0)
    server_ms = delta.get("repro_serve_request_us_sum", 0.0) / 1000.0
    client_ms = sum(load["latencies"]) * 1000.0
    # The delta also counts the first GET /metrics (recorded after it
    # rendered); its time in the request sum is negligible.
    requests -= 1
    return {
        "serve.requests": requests,
        "serve.sim_invocations": invocations,
        "serve.blocks_per_invocation": blocks / invocations if invocations else 0.0,
        "serve.request_ms_mean": server_ms / requests if requests else 0.0,
        "serve.client_wait_ms": ((client_ms - server_ms) / len(load["latencies"])
                                 if load["latencies"] else 0.0),
    }


def run_once(seed: int, rounds: int, setups: int,
             trace_out: str | None = None) -> dict:
    """Set up ``setups`` times, then load the last server; stop it."""
    requests = common.serve_requests(seed, rounds)
    expected = golden_outputs(requests)
    setup_times, setup_probes, failures = [], [], []
    server = None
    try:
        for i in range(setups):
            probe = common.host_probe_s()
            server, seconds, problems = start(
                trace_out if i == setups - 1 else None)
            setup_times.append(seconds)
            setup_probes.append([probe, common.host_probe_s()])
            failures += problems
            if i < setups - 1:
                code = server.stop()
                server = None
                if code != 0:
                    failures.append(f"server exit {code}")
        load = run_load(server, requests, expected)
    finally:
        if server is not None:
            code = server.stop()
            if code != 0:
                failures.append(f"server exit {code}")
    load["setup_times"] = setup_times
    load["setup_probes"] = setup_probes
    load["failures"] = failures + load["failures"]
    load["requests"] = len(requests)
    return load

