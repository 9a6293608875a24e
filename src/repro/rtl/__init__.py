"""Register-transfer-level intermediate representation.

The RTL layer is the meeting point of the framework: every frontend lowers
to it, and the simulator, synthesis model, and Verilog backend consume it.

* :mod:`repro.rtl.ir` — expression nodes and their semantics;
* :mod:`repro.rtl.ops` — smart constructors used by frontends;
* :mod:`repro.rtl.module` — hierarchical modules, registers, memories;
* :mod:`repro.rtl.elaborate` — flattening into a validated netlist.
"""

from . import ops
from .elaborate import FlatRegister, Netlist, elaborate, substitute
from .optimize import OptStats, optimize
from .ir import (
    BinOp,
    BinOpKind,
    Cat,
    Const,
    Expr,
    Ext,
    MemRead,
    Mux,
    Ref,
    Signal,
    Slice,
    UnOp,
    UnOpKind,
    children,
    emit_py,
    eval_expr,
    expr_mem_reads,
    expr_signals,
    expr_size,
    iter_unique,
)
from .module import Instance, Memory, MemWrite, Module, Register

__all__ = [
    "ops",
    "Signal",
    "Expr",
    "Const",
    "Ref",
    "BinOp",
    "BinOpKind",
    "UnOp",
    "UnOpKind",
    "Mux",
    "Cat",
    "Slice",
    "Ext",
    "MemRead",
    "eval_expr",
    "emit_py",
    "children",
    "iter_unique",
    "expr_signals",
    "expr_mem_reads",
    "expr_size",
    "Module",
    "Register",
    "Memory",
    "MemWrite",
    "Instance",
    "Netlist",
    "FlatRegister",
    "elaborate",
    "substitute",
    "optimize",
    "OptStats",
]
