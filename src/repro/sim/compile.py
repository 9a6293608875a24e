"""Netlist-to-Python compilation for the fast simulator.

The compiled evaluator turns the levelized netlist into two plain Python
functions — ``settle`` (combinational propagation) and ``tick`` (register
and memory commit) — operating on a flat list of unsigned integers.

Expression trees built by frontends are frequently DAGs (the same node
object reused in many places).  Naive code emission would duplicate shared
subtrees once per path, so emission is single-pass SSA: a reference count
over the unique nodes of each function, then one bottom-up pass that
renders every node exactly once from its operands' code.  An operator
node referenced more than once becomes a local temporary, bound just
before its first use; every other node (and every constant or signal
read) is inlined where it is used.  Both passes cost one step per unique
node, however much sharing the DAG has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.bits import to_signed
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..rtl.elaborate import Netlist
from ..rtl.ir import Const, Expr, Ref, Signal, children, emit_node_py, iter_unique
from ..rtl.module import Memory

__all__ = ["CompiledNetlist", "compile_netlist"]


@dataclass(eq=False)
class CompiledNetlist:
    """The executable form of a netlist.

    ``settle(values, mems)`` propagates combinational logic in place;
    ``tick(values, mems)`` samples register/memory inputs and commits them
    (callers must settle first and settle again afterwards).
    """

    netlist: Netlist
    index_of: dict[Signal, int]
    mem_index_of: dict[Memory, int]
    settle: object  # callable(values: list[int], mems: list[list[int]])
    tick: object    # callable(values: list[int], mems: list[list[int]])
    source: str     # generated Python, kept for debugging and tests


def _render(roots: list[Expr], index_of: dict[Signal, int],
            mem_index_of: dict[Memory, int], lines: list[str]) -> Iterator[str]:
    """Yield the Python code of each root in turn, in one topological pass.

    The unique nodes are first listed children-first (each root contributes
    the nodes it reaches before any later root) and their references
    counted.  Rendering then walks that list once: each node's code is
    built from its operands' code, an operator node referenced more than
    once is bound to a temporary appended to ``lines``, and every other
    node is inlined where it is used.  A root's code is yielded right after
    its own temporaries, so the caller's statement for it lands before the
    next root's temporaries (settle order matters: those may read it).
    """
    def ref_of(sig: Signal) -> str:
        return f"v[{index_of[sig]}]"

    def mem_of(mem: Memory) -> str:
        return f"mems[{mem_index_of[mem]}]"

    refs: dict[int, int] = {}
    seen: set[int] = set()
    plan: list[list[tuple[Expr, tuple[Expr, ...]]]] = []
    for root in roots:
        refs[id(root)] = refs.get(id(root), 0) + 1
        nodes = []
        for node in iter_unique(root, seen):
            operands = children(node)
            for child in operands:
                refs[id(child)] = refs.get(id(child), 0) + 1
            nodes.append((node, operands))
        plan.append(nodes)

    code: dict[int, str] = {}

    def take(node: Expr) -> str:
        # a node used once gives its code up to that one user
        key = id(node)
        return code.pop(key) if refs[key] == 1 else code[key]

    n_temps = 0
    for root, nodes in zip(roots, plan):
        for node, operands in nodes:
            text = emit_node_py(node, [take(c) for c in operands], ref_of, mem_of)
            if refs[id(node)] > 1 and not isinstance(node, (Const, Ref)):
                temp = f"t{n_temps}"
                n_temps += 1
                lines.append(f"    {temp} = {text}")
                text = temp
            code[id(node)] = text
        yield take(root)


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile ``netlist`` into fast ``settle``/``tick`` functions."""
    with obs_trace.span("sim.compile", netlist=netlist.name) as span:
        return _compile_traced(netlist, span)


def _compile_traced(netlist: Netlist, span) -> CompiledNetlist:
    with obs_trace.span("sim.compile.codegen", netlist=netlist.name):
        signals, index_of, mem_index_of, source = _generate(netlist)
    with obs_trace.span("sim.compile.exec", netlist=netlist.name):
        namespace: dict[str, object] = {"_sx": to_signed}
        exec(compile(source, f"<netlist {netlist.name}>", "exec"), namespace)
    if obs_trace.enabled():
        n_lines = source.count("\n") + 1
        obs_metrics.inc("sim.compile.netlists")
        obs_metrics.observe("sim.compile.source_lines", n_lines)
        span.set(signals=len(signals), source_lines=n_lines)
    return CompiledNetlist(
        netlist=netlist,
        index_of=index_of,
        mem_index_of=mem_index_of,
        settle=namespace["settle"],
        tick=namespace["tick"],
        source=source,
    )


def _generate(netlist: Netlist):
    """``(signals, index_of, mem_index_of, source)`` for ``netlist``."""
    signals = netlist.signals()
    index_of = {sig: i for i, sig in enumerate(signals)}
    mem_index_of = {mem: i for i, mem in enumerate(netlist.memories)}
    ordered = netlist.comb_order()

    # -- settle --------------------------------------------------------
    settle_body: list[str] = []
    settle_codes = _render([expr for _sig, expr in ordered], index_of,
                           mem_index_of, settle_body)
    for (sig, _expr), code in zip(ordered, settle_codes):
        settle_body.append(f"    v[{index_of[sig]}] = {code}")

    # -- tick ----------------------------------------------------------
    roots: list[Expr] = []
    for reg in netlist.registers:
        roots.append(reg.next)
        if reg.en is not None:
            roots.append(reg.en)
    for mem in netlist.memories:
        for write in mem.writes:
            roots.extend((write.en, write.addr, write.data))
    tick_body: list[str] = []
    tick_codes = _render(roots, index_of, mem_index_of, tick_body)
    commit_lines: list[str] = []
    for i, reg in enumerate(netlist.registers):
        next_code = next(tick_codes)
        idx = index_of[reg.signal]
        if reg.en is None:
            tick_body.append(f"    n{i} = {next_code}")
        else:
            en_code = next(tick_codes)
            tick_body.append(f"    n{i} = ({next_code}) if ({en_code}) else v[{idx}]")
        commit_lines.append(f"    v[{idx}] = n{i}")
    for mi, mem in enumerate(netlist.memories):
        for wi, write in enumerate(mem.writes):
            en_code, addr_code, data_code = (next(tick_codes) for _ in range(3))
            tick_body.append(
                f"    w{mi}_{wi} = (({addr_code}) % {mem.depth}, "
                f"({data_code}) & {(1 << mem.width) - 1}) if ({en_code}) else None"
            )
            commit_lines.append(f"    if w{mi}_{wi} is not None:")
            commit_lines.append(
                f"        mems[{mi}][w{mi}_{wi}[0]] = w{mi}_{wi}[1]"
            )

    source = "\n".join(
        ["def settle(v, mems):"]
        + (settle_body or ["    pass"])
        + ["", "def tick(v, mems):"]
        + (tick_body + commit_lines or ["    pass"])
    )
    return signals, index_of, mem_index_of, source
