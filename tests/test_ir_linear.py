"""Every IR pass costs one step per *unique* node, however much sharing.

The fixture is a doubling chain ``x_{k+1} = x_k + x_k``: 48 levels over
one input, with a memory read and a mux inside the chain.  It has a few
dozen unique nodes but ~2^48 root-to-leaf paths, so any pass that walks
the DAG as a tree never finishes.  The assertions are counts, not times,
so they hold on any machine.
"""

import pytest

from repro.core.errors import DriverError
from repro.rtl import Module, Netlist, elaborate, optimize
from repro.rtl.ir import (
    BinOp,
    BinOpKind,
    Const,
    Expr,
    MemRead,
    Mux,
    Ref,
    Signal,
    Slice,
    expr_mem_reads,
    expr_signals,
    expr_size,
    iter_unique,
)
from repro.rtl.module import Memory
from repro.sim import Simulator
from repro.synth import synthesize

LEVELS = 48
WIDTH = 16
ROM = [(0x1357 * (i + 3)) & 0xFFFF for i in range(16)]
ROM_LEVEL = 40   # x <- rom[x + a]
MUX_LEVEL = 44   # x <- x[15] ? x : 0x0ff0


def doubling_chain(a: Signal, rom: Memory) -> tuple[Expr, int]:
    """The chain over input ``a``, and its number of unique nodes."""
    ref_a = x = Ref(a)
    unique = 1
    for level in range(LEVELS):
        x = BinOp(BinOpKind.ADD, x, x)
        unique += 1
        if level == ROM_LEVEL:
            x = MemRead(rom, BinOp(BinOpKind.ADD, x, ref_a))
            unique += 2
        if level == MUX_LEVEL:
            x = Mux(Slice(x, WIDTH - 1, WIDTH - 1), x, Const(0x0FF0, WIDTH))
            unique += 3
    return x, unique


def model(a: int) -> int:
    """What the chain computes, level by level."""
    x = a
    for level in range(LEVELS):
        x = (x + x) & 0xFFFF
        if level == ROM_LEVEL:
            x = ROM[((x + a) & 0xFFFF) % len(ROM)]
        if level == MUX_LEVEL:
            x = x if x >> (WIDTH - 1) else 0x0FF0
    return x


def chain_module() -> Module:
    m = Module("chain")
    a = m.input("a", WIDTH)
    y = m.output("y", WIDTH)
    rom = m.memory("rom", len(ROM), WIDTH, init=ROM)
    chain, _unique = doubling_chain(a, rom)
    m.assign(y, chain)
    q = m.output("q", WIDTH)
    r = m.reg("r", WIDTH, next=chain)
    m.assign(q, Ref(r))
    return m


class TestTraversalCounts:
    def test_iter_unique_yields_each_node_once(self):
        chain, unique = doubling_chain(Signal("a", WIDTH), Memory("rom", 16, WIDTH))
        nodes = list(iter_unique(chain))
        assert len(nodes) == unique
        assert len({id(node) for node in nodes}) == unique

    def test_iter_unique_is_children_first(self):
        chain, _unique = doubling_chain(Signal("a", WIDTH), Memory("rom", 16, WIDTH))
        position = {id(node): i for i, node in enumerate(iter_unique(chain))}
        for node in iter_unique(chain):
            for child in (getattr(node, f, None) for f in ("a", "b", "addr", "sel")):
                if isinstance(child, Expr):
                    assert position[id(child)] < position[id(node)]

    def test_shared_seen_walks_roots_as_one_dag(self):
        chain, unique = doubling_chain(Signal("a", WIDTH), Memory("rom", 16, WIDTH))
        seen: set[int] = set()
        first = list(iter_unique(chain, seen))
        again = list(iter_unique(BinOp(BinOpKind.ADD, chain, chain), seen))
        assert len(first) == unique
        assert len(again) == 1  # only the new root

    def test_queries_count_unique_nodes(self):
        a = Signal("a", WIDTH)
        rom = Memory("rom", 16, WIDTH)
        chain, unique = doubling_chain(a, rom)
        reads = expr_mem_reads(chain)
        assert len(reads) == 1 and reads[0].memory is rom
        assert expr_signals(chain) == {a}
        assert expr_size(chain) == unique

    def test_deep_chain_does_not_recurse(self):
        x: Expr = Ref(Signal("a", 4))
        for _ in range(20000):
            x = BinOp(BinOpKind.XOR, x, x)
        assert expr_size(x) == 20001


class TestPipelineOnChain:
    def test_elaborate_validate_optimize_synthesize(self):
        netlist = elaborate(chain_module())
        netlist.validate()
        optimized, _stats = optimize(netlist)
        assert synthesize(netlist).n_lut > 0
        assert synthesize(optimized, max_dsp=0).n_lut > 0

    @pytest.mark.parametrize("engine", ["compiled", "batch"])
    def test_simulate_matches_model(self, engine):
        sim = Simulator(elaborate(chain_module()), engine=engine)
        for value in range(0, 0x10000, 0x1111):
            sim.poke("a", value)
            assert sim.peek_int("y") == model(value)
            sim.step()
            assert sim.peek_int("q") == model(value)

    def test_compiled_source_is_linear(self):
        sim = Simulator(elaborate(chain_module()))
        lines = sim.compiled_source.splitlines()
        # one temp per shared node: settle and tick each bind the chain
        assert len(lines) < 8 * (LEVELS + 8)


class TestValidateErrors:
    def _netlist(self, second_reads_ghost: bool) -> tuple[Netlist, Signal]:
        a = Signal("a", WIDTH)
        ghost = Signal("ghost", WIDTH)
        chain, _unique = doubling_chain(a, Memory("rom", 16, WIDTH))
        y1, y2 = Signal("y1", WIDTH), Signal("y2", WIDTH)
        tail = Ref(ghost) if second_reads_ghost else chain
        if not second_reads_ghost:
            chain = BinOp(BinOpKind.ADD, chain, Ref(ghost))
        netlist = Netlist(
            name="n", inputs=[a], outputs=[y1, y2],
            assigns=[(y1, chain), (y2, BinOp(BinOpKind.ADD, chain, tail))],
        )
        return netlist, ghost

    def test_undriven_read_in_later_root(self):
        netlist, _ghost = self._netlist(second_reads_ghost=True)
        with pytest.raises(DriverError) as info:
            netlist.validate()
        assert str(info.value) == "n: ghost read by assign y2 but never driven"

    def test_undriven_read_in_shared_node_names_first_root(self):
        netlist, _ghost = self._netlist(second_reads_ghost=False)
        with pytest.raises(DriverError) as info:
            netlist.validate()
        assert str(info.value) == "n: ghost read by assign y1 but never driven"
