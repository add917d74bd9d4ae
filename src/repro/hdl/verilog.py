"""Verilog-2001 emission for RTL modules.

Generated Verilog serves as IP collateral (Recommendation 5 of the paper
stresses that open-source IP must ship with usable collaterals) and gives a
line-count basis for the productivity experiments (E2, E10): the emitted
text is the "RTL code" whose lines are compared against mapped gate counts.
"""

from __future__ import annotations

from .ir import (
    BinOp,
    Cat,
    Const,
    Expr,
    Module,
    Mux,
    Ref,
    Signal,
    Slice,
    UnaryOp,
)

_BIN_SYMBOL = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "and": "&",
    "or": "|",
    "xor": "^",
    "shl": "<<",
    "shr": ">>",
    "eq": "==",
    "ne": "!=",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}

_UNARY_SYMBOL = {"not": "~", "neg": "-", "rand": "&", "ror": "|", "rxor": "^"}


def _vname(name: str) -> str:
    """Verilog-legal identifier (hierarchy dots become underscores)."""
    return name.replace(".", "_")


def _emit_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return f"{expr.width}'d{expr.value}"
    if isinstance(expr, Ref):
        return _vname(expr.signal.name)
    if isinstance(expr, UnaryOp):
        return f"({_UNARY_SYMBOL[expr.op]}{_emit_expr(expr.operand)})"
    if isinstance(expr, BinOp):
        return (
            f"({_emit_expr(expr.a)} {_BIN_SYMBOL[expr.op]} {_emit_expr(expr.b)})"
        )
    if isinstance(expr, Mux):
        return (
            f"({_emit_expr(expr.sel)} ? {_emit_expr(expr.if_true)} "
            f": {_emit_expr(expr.if_false)})"
        )
    if isinstance(expr, Cat):
        return "{" + ", ".join(_emit_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, Slice):
        base = _emit_expr(expr.value)
        if expr.hi == expr.lo:
            return f"{base}[{expr.lo}]"
        return f"{base}[{expr.hi}:{expr.lo}]"
    raise TypeError(f"cannot emit expression {expr!r}")


def _range(sig: Signal) -> str:
    return f"[{sig.width - 1}:0] " if sig.width > 1 else ""


def to_verilog(module: Module) -> str:
    """Render ``module`` as synthesizable Verilog-2001 text.

    Hierarchical designs are emitted with one ``module`` block per unique
    submodule, dependencies first.
    """
    blocks: list[str] = []
    _emit_module(module, set(), blocks)
    return "\n\n".join(blocks) + "\n"


def _emit_module(mod: Module, emitted: set[str], blocks: list[str]) -> None:
    """Append ``mod``'s block to ``blocks`` after its submodules' blocks,
    skipping module names already in ``emitted``."""
    for inst in mod.instances:
        if inst.module.name not in emitted:
            _emit_module(inst.module, emitted, blocks)
    if mod.name in emitted:
        return
    emitted.add(mod.name)
    blocks.append(_emit_single(mod))


def _emit_single(mod: Module) -> str:
    lines: list[str] = []
    ports = ["clk", "rst"] if mod.registers else []
    ports += [_vname(s.name) for s in mod.inputs]
    ports += [_vname(s.name) for s in mod.outputs]
    lines.append(f"module {_vname(mod.name)} ({', '.join(ports)});")
    if mod.registers:
        lines.append("  input clk;")
        lines.append("  input rst;")
    for sig in mod.inputs:
        lines.append(f"  input {_range(sig)}{_vname(sig.name)};")
    for sig in mod.outputs:
        lines.append(f"  output {_range(sig)}{_vname(sig.name)};")

    reg_signals = {reg.signal for reg in mod.registers}
    for sig in mod.wires:
        kind = "reg" if sig in reg_signals else "wire"
        lines.append(f"  {kind} {_range(sig)}{_vname(sig.name)};")

    for inst in mod.instances:
        conns = [
            f".{_vname(port)}({_vname(sig.name)})"
            for port, sig in sorted(inst.connections.items())
        ]
        if inst.module.registers:
            conns = [".clk(clk)", ".rst(rst)"] + conns
        lines.append(
            f"  {_vname(inst.module.name)} {_vname(inst.name)} "
            f"({', '.join(conns)});"
        )

    for target in sorted(mod.assigns, key=lambda s: s.name):
        expr = mod.assigns[target]
        text = _emit_expr(expr)
        if expr.width < target.width:
            # Braces force a self-determined context so the expression
            # computes at its own width (IR semantics) before the implicit
            # zero-extension to the wider target.
            text = "{" + text + "}"
        lines.append(f"  assign {_vname(target.name)} = {text};")

    if mod.registers:
        lines.append("  always @(posedge clk) begin")
        lines.append("    if (rst) begin")
        for reg in mod.registers:
            lines.append(
                f"      {_vname(reg.signal.name)} <= "
                f"{reg.signal.width}'d{reg.reset_value};"
            )
        lines.append("    end else begin")
        for reg in mod.registers:
            text = _emit_expr(reg.next)
            if reg.next.width < reg.signal.width:
                text = "{" + text + "}"  # self-determined, see assigns
            lines.append(
                f"      {_vname(reg.signal.name)} <= {text};"
            )
        lines.append("    end")
        lines.append("  end")

    lines.append("endmodule")
    return "\n".join(lines)


def count_rtl_lines(module: Module) -> int:
    """Number of non-blank RTL source lines for productivity metrics."""
    return sum(1 for line in to_verilog(module).splitlines() if line.strip())
