"""Outside-in layer tracing for the traced benchmark run.

The program is never edited: :func:`install` wraps each layer's public
entry points where they are bound (every loaded ``repro.*`` module that
holds a reference to the function, or the class for methods) and records
one span per call into a :class:`Recorder`.  Per-layer numbers are then
derived from the span list: a layer's *self time* is its spans' durations
minus the part of each interval its child spans cover.

Spans are kept in memory and exported as plain lists, so a forked sweep
worker can ship its spans back inside its task result.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["Recorder", "self_times", "op_coverage", "count_unique_nodes",
           "install",
           "LAYER_SPANS", "SHIP_KEY"]

#: Key under which a traced sweep worker ships its spans in a task result.
SHIP_KEY = "_perfbench_layers"

#: Span names that belong to a program layer (self times are reported and
#: summed for the coverage check); ``bench.*`` spans are the benchmark's
#: own work (the op itself, the node-count walk).
LAYER_SPANS = (
    "frontends.build", "resilience.measure", "resilience.attempt",
    "eval.measure", "eval.verify",
    "rtl.elaborate", "rtl.validate", "sim.compile", "sim.stream",
    "sim.batch_compile", "sim.batch", "synth.synthesize", "cache.read",
    "cache.write", "exec.prefetch", "exec.consume",
)


class Recorder:
    """Span list plus exact counters; thread-safe, one per process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            #: ``[id, parent_id, name, start, end]`` per closed span.
            self.spans: list[list] = []
            self.counts: Counter = Counter()
            self._next_id = 1
            self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append([span_id, parent, name, start, end])

    def count(self, name: str, value: int | float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def export(self) -> dict:
        with self._lock:
            return {"spans": [list(s) for s in self.spans],
                    "counts": dict(self.counts)}

    def ingest(self, shipped: dict) -> None:
        """Add another process's export, renumbering its span ids."""
        with self._lock:
            offset = self._next_id
            top = 0
            for span_id, parent, name, start, end in shipped["spans"]:
                self.spans.append([span_id + offset,
                                   None if parent is None else parent + offset,
                                   name, start, end])
                top = max(top, span_id)
            self._next_id = offset + top + 1
            self.counts.update(shipped["counts"])


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _span_self_times(spans: list[list]) -> dict[int, float]:
    """``span id -> duration minus the time its children cover``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _id, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {span_id: (end - start)
            - _covered(children.get(span_id, []), start, end)
            for span_id, _parent, _name, start, end in spans}


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name sum of span self times."""
    own = _span_self_times(spans)
    out: dict[str, float] = {}
    for span_id, _parent, name, _start, _end in spans:
        out[name] = out.get(name, 0.0) + own[span_id]
    return out


def op_coverage(spans: list[list], op: str = "bench.op") -> float:
    """Share of the ``op`` spans' wall time that layer self times cover.

    The benchmark's own node-count walks inside an op are taken out of
    the op time; ``0.0`` when the run recorded no ``op`` spans.
    """
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}

    def inside_op(span_id: int) -> bool:
        parent = parent_of.get(span_id)
        while parent is not None:
            if name_of.get(parent) == op:
                return True
            parent = parent_of.get(parent)
        return False

    own = _span_self_times(spans)
    op_time = layer_time = 0.0
    for span_id, _parent, name, start, end in spans:
        if name == op:
            op_time += end - start
        elif inside_op(span_id):
            if name == "bench.walk":
                op_time -= end - start
            elif name in LAYER_SPANS:
                layer_time += own[span_id]
    return layer_time / op_time if op_time > 0 else 0.0


def count_unique_nodes(netlist) -> int:
    """Unique ``Expr`` nodes reachable from a netlist (id-visited walk)."""
    from repro.rtl.ir import Expr

    roots = [expr for _sig, expr in netlist.assigns]
    for reg in netlist.registers:
        roots.append(reg.next)
        if reg.en is not None:
            roots.append(reg.en)
    for mem in netlist.memories:
        for write in mem.writes:
            roots.extend((write.en, write.addr, write.data))
    seen: set[int] = set()
    todo = [r for r in roots if isinstance(r, Expr)]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for value in vars(node).values():
            if isinstance(value, Expr):
                todo.append(value)
            elif isinstance(value, tuple):
                todo.extend(v for v in value if isinstance(v, Expr))
    return len(seen)


# ----------------------------------------------------------------------
# wrapper installation
# ----------------------------------------------------------------------

def _rebind(original, replacement) -> int:
    """Point every loaded ``repro.*`` module global bound to ``original``
    at ``replacement``; returns how many bindings changed."""
    changed = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _traced(rec: Recorder, span: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(span):
            result = fn(*args, **kwargs)
        rec.count(span + ".calls")
        if after is not None:
            after(rec, args, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _wrap_function(rec, module, attr, span, after=None) -> None:
    original = getattr(module, attr)
    if _rebind(original, _traced(rec, span, original, after)) == 0:
        raise RuntimeError(f"no binding of {module.__name__}.{attr} found")


def _wrap_method(rec, cls, attr, span, after=None) -> None:
    setattr(cls, attr, _traced(rec, span, getattr(cls, attr), after))


def _after_elaborate(rec, _args, netlist) -> None:
    with rec.span("bench.walk"):
        rec.count("rtl.netlist_nodes", count_unique_nodes(netlist))


def _after_stream(rec, _args, result) -> None:
    rec.count("sim.stream_cycles", result[1].total_cycles)


def _after_batch(rec, args, _result) -> None:
    rec.count("sim.batch_blocks", len(args[1]))


def _after_prefetch(rec, args, _result) -> None:
    runner = args[0]
    rec.count("exec.tasks", len(runner.tasks))
    rec.count("exec.worker_restarts", runner.stats.get("worker_restarts", 0))


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (idempotent per process)."""
    import repro.api  # noqa: F401  (loads the modules that bind the layers)
    import repro.cache.store as cache_store
    import repro.eval.experiments as experiments
    import repro.eval.measure as measure
    import repro.eval.verify as verify
    import repro.exec.parallel as parallel
    import repro.exec.worker as worker
    import repro.resilience.runner as runner
    import repro.serve.evaluator  # noqa: F401
    import repro.sim.batch as batch
    import repro.sim.compile as sim_compile
    import repro.sim.simulator  # noqa: F401
    import repro.synth.analyze as analyze
    from repro.axis.harness import StreamHarness
    from repro.rtl.elaborate import Netlist

    if getattr(measure.measure_design, "__perfbench_original__", None):
        return
    elaborate_mod = sys.modules["repro.rtl.elaborate"]
    _wrap_function(rec, elaborate_mod, "elaborate", "rtl.elaborate",
                   _after_elaborate)
    _wrap_method(rec, Netlist, "validate", "rtl.validate")
    _wrap_function(rec, sim_compile, "compile_netlist", "sim.compile")
    _wrap_method(rec, StreamHarness, "run_matrices", "sim.stream",
                 _after_stream)
    _wrap_method(rec, batch.BatchStreamRunner, "__init__", "sim.batch_compile")
    _wrap_method(rec, batch.BatchStreamRunner, "run_blocks", "sim.batch",
                 _after_batch)
    _wrap_function(rec, analyze, "synthesize", "synth.synthesize")
    _wrap_function(rec, measure, "measure_design", "eval.measure")
    _wrap_function(rec, verify, "verify_design", "eval.verify")
    _wrap_method(rec, runner.SweepRunner, "_measure_with_retries",
                 "resilience.measure")
    _wrap_method(rec, runner.SweepRunner, "_attempt", "resilience.attempt")
    for key, factory in list(experiments.PAIRS.items()):
        experiments.PAIRS[key] = _traced(rec, "frontends.build", factory)
    _wrap_function(rec, experiments, "fig1_design_lists", "frontends.build")
    _wrap_function(rec, experiments, "generate_table2", "exec.consume")
    _wrap_method(rec, parallel.ParallelSweepRunner, "prefetch",
                 "exec.prefetch", _after_prefetch)
    for attr in ("get_json", "get_pickle"):
        _wrap_method(rec, cache_store.ArtifactCache, attr, "cache.read")
    for attr in ("put_json", "put_pickle"):
        _wrap_method(rec, cache_store.ArtifactCache, attr, "cache.write")
    _install_worker_shipping(rec, worker, parallel)


def _install_worker_shipping(rec, worker, parallel) -> None:
    """Forked sweep workers inherit the wrappers; make each task result
    carry the worker's spans and fold them in on the parent's merge."""
    run_task = worker.run_task

    @functools.wraps(run_task)
    def shipping_run_task(payload):
        rec.reset()
        out = run_task(payload)
        out[SHIP_KEY] = rec.export()
        rec.reset()
        return out

    # Pickled by reference: the module attribute must be this function.
    _rebind(run_task, shipping_run_task)
    merge = parallel.ParallelSweepRunner._merge

    @functools.wraps(merge)
    def ingesting_merge(self, results, under=None):
        for res in results:
            if res is not None and SHIP_KEY in res:
                rec.ingest(res.pop(SHIP_KEY))
        return merge(self, results, under=under)

    parallel.ParallelSweepRunner._merge = ingesting_merge
