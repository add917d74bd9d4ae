"""Word-level RTL intermediate representation.

The IR models synchronous digital hardware at the register-transfer level:

* :class:`Signal` — a named bundle of wires with a fixed bit width.
* :class:`Expr` subclasses — a pure combinational expression tree over
  signals (:class:`Const`, :class:`Ref`, :class:`UnaryOp`, :class:`BinOp`,
  :class:`Mux`, :class:`Cat`, :class:`Slice`).
* :class:`Register` — a D flip-flop bank with a synchronous next-value
  expression and a reset value.  The IR assumes a single implicit clock
  domain, which matches the educational scope of the toolkit.
* :class:`Module` — a design unit with ports, internal wires, combinational
  assignments, registers and submodule instances.

Width semantics (all values are unsigned, arithmetic is modular):

========================  =======================================
Expression                Result width
========================  =======================================
``add``, ``sub``          ``max(w_a, w_b)`` (carry/borrow dropped)
``mul``                   ``w_a + w_b``
``and``, ``or``, ``xor``  ``max(w_a, w_b)`` (zero-extended)
``shl``, ``shr``          ``w_a`` (shifted-out bits dropped)
comparisons               ``1``
``not``, ``neg``          ``w`` (operand width)
reductions                ``1``
``Mux``                   ``max(w_then, w_else)``
``Cat``                   sum of part widths (first part is MSB)
``Slice(v, hi, lo)``      ``hi - lo + 1``
========================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field


class HdlError(Exception):
    """Raised for malformed IR: bad widths, multiple drivers, loops."""


#: Binary operators with word-level semantics.
BINARY_OPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "and",
        "or",
        "xor",
        "shl",
        "shr",
        "eq",
        "ne",
        "lt",
        "le",
        "gt",
        "ge",
    }
)

#: Unary operators. ``not`` is bitwise complement, ``neg`` two's complement,
#: ``rand``/``ror``/``rxor`` are single-bit reductions.
UNARY_OPS = frozenset({"not", "neg", "rand", "ror", "rxor"})

_COMPARISONS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
_REDUCTIONS = frozenset({"rand", "ror", "rxor"})


class Signal:
    """A named group of wires with a fixed width.

    Signals compare and hash by identity: two signals with the same name are
    still distinct nets.  Names must be unique within one :class:`Module`,
    which :meth:`Module.validate` enforces.
    """

    __slots__ = ("name", "width")

    def __init__(self, name: str, width: int):
        if width < 1:
            raise HdlError(f"signal {name!r}: width must be >= 1, got {width}")
        if not name or not name.replace("_", "a").replace(".", "a").isalnum():
            raise HdlError(f"invalid signal name {name!r}")
        self.name = name
        self.width = width

    @property
    def mask(self) -> int:
        """Bit mask covering the signal's full width."""
        return (1 << self.width) - 1

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, {self.width})"


class Expr:
    """Base class for combinational expressions."""

    __slots__ = ()

    @property
    def width(self) -> int:
        raise NotImplementedError

    def signals(self) -> set[Signal]:
        """All signals referenced anywhere in this expression tree."""
        found: set[Signal] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Ref):
                found.add(node.signal)
            stack.extend(node.children())
        return found

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions, used by generic tree walkers."""
        return ()


class Const(Expr):
    """A literal value, masked to its width."""

    __slots__ = ("value", "_width")

    def __init__(self, value: int, width: int):
        if width < 1:
            raise HdlError(f"const width must be >= 1, got {width}")
        if value < 0:
            value &= (1 << width) - 1
        if value >= (1 << width):
            raise HdlError(f"constant {value} does not fit in {width} bits")
        self.value = value
        self._width = width

    @property
    def width(self) -> int:
        return self._width

    def __repr__(self) -> str:
        return f"Const({self.value}, {self._width})"


class Ref(Expr):
    """A reference to a :class:`Signal`."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal

    @property
    def width(self) -> int:
        return self.signal.width

    def __repr__(self) -> str:
        return f"Ref({self.signal.name})"


class UnaryOp(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op not in UNARY_OPS:
            raise HdlError(f"unknown unary op {op!r}")
        self.op = op
        self.operand = operand

    @property
    def width(self) -> int:
        if self.op in _REDUCTIONS:
            return 1
        return self.operand.width

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"UnaryOp({self.op!r}, {self.operand!r})"


class BinOp(Expr):
    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr):
        if op not in BINARY_OPS:
            raise HdlError(f"unknown binary op {op!r}")
        self.op = op
        self.a = a
        self.b = b

    @property
    def width(self) -> int:
        if self.op in _COMPARISONS:
            return 1
        if self.op == "mul":
            return self.a.width + self.b.width
        if self.op in ("shl", "shr"):
            return self.a.width
        return max(self.a.width, self.b.width)

    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.a!r}, {self.b!r})"


class Mux(Expr):
    """Two-way selector: ``sel ? if_true : if_false``."""

    __slots__ = ("sel", "if_true", "if_false")

    def __init__(self, sel: Expr, if_true: Expr, if_false: Expr):
        if sel.width != 1:
            raise HdlError(f"mux select must be 1 bit wide, got {sel.width}")
        self.sel = sel
        self.if_true = if_true
        self.if_false = if_false

    @property
    def width(self) -> int:
        return max(self.if_true.width, self.if_false.width)

    def children(self) -> tuple[Expr, ...]:
        return (self.sel, self.if_true, self.if_false)

    def __repr__(self) -> str:
        return f"Mux({self.sel!r}, {self.if_true!r}, {self.if_false!r})"


class Cat(Expr):
    """Concatenation; the first part supplies the most-significant bits."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[Expr] | tuple[Expr, ...]):
        if not parts:
            raise HdlError("cat of zero parts")
        self.parts = tuple(parts)

    @property
    def width(self) -> int:
        return sum(p.width for p in self.parts)

    def children(self) -> tuple[Expr, ...]:
        return self.parts

    def __repr__(self) -> str:
        return f"Cat({list(self.parts)!r})"


class Slice(Expr):
    """Bit-slice ``value[hi:lo]`` (both bounds inclusive, lo is bit 0 side)."""

    __slots__ = ("value", "hi", "lo")

    def __init__(self, value: Expr, hi: int, lo: int):
        if not 0 <= lo <= hi < value.width:
            raise HdlError(
                f"slice [{hi}:{lo}] out of range for width {value.width}"
            )
        self.value = value
        self.hi = hi
        self.lo = lo

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def children(self) -> tuple[Expr, ...]:
        return (self.value,)

    def __repr__(self) -> str:
        return f"Slice({self.value!r}, {self.hi}, {self.lo})"


@dataclass
class Register:
    """A synchronous register bank.

    ``signal`` holds the current (Q) value and may be read combinationally;
    ``next`` is sampled at every rising clock edge; ``reset_value`` is loaded
    by a synchronous reset handled at the simulator / netlist level.
    """

    signal: Signal
    next: Expr
    reset_value: int = 0

    def __post_init__(self) -> None:
        if self.next.width > self.signal.width:
            raise HdlError(
                f"register {self.signal.name!r}: next-value width "
                f"{self.next.width} exceeds register width {self.signal.width}"
            )
        if not 0 <= self.reset_value < (1 << self.signal.width):
            raise HdlError(
                f"register {self.signal.name!r}: reset value "
                f"{self.reset_value} does not fit in {self.signal.width} bits"
            )


@dataclass
class Instance:
    """A submodule instantiation.

    ``connections`` maps the *child's* port names to signals of the parent
    module.  Every child port must be connected and widths must match.
    """

    name: str
    module: "Module"
    connections: dict[str, Signal]


class Module:
    """A hardware design unit.

    Driver rules checked by :meth:`validate`:

    * each output and internal wire has exactly one driver — a combinational
      assignment, a register, or an instance output connection;
    * inputs are never driven;
    * combinational assignments form no cycle.
    """

    def __init__(self, name: str):
        self.name = name
        self.inputs: list[Signal] = []
        self.outputs: list[Signal] = []
        self.wires: list[Signal] = []
        self.assigns: dict[Signal, Expr] = {}
        self.registers: list[Register] = []
        self.instances: list[Instance] = []

    # -- construction -----------------------------------------------------

    def add_input(self, name: str, width: int) -> Signal:
        sig = Signal(name, width)
        self.inputs.append(sig)
        return sig

    def add_output(self, name: str, width: int) -> Signal:
        sig = Signal(name, width)
        self.outputs.append(sig)
        return sig

    def add_wire(self, name: str, width: int) -> Signal:
        sig = Signal(name, width)
        self.wires.append(sig)
        return sig

    def assign(self, target: Signal, expr: Expr) -> None:
        """Drive ``target`` combinationally from ``expr``.

        A narrower expression is implicitly zero-extended; a wider one is an
        error (no silent truncation).
        """
        if target in self.assigns:
            raise HdlError(f"signal {target.name!r} already assigned")
        if expr.width > target.width:
            raise HdlError(
                f"assign to {target.name!r}: expression width {expr.width} "
                f"exceeds target width {target.width}"
            )
        self.assigns[target] = expr

    def add_register(
        self, name: str, width: int, next: Expr | None = None, reset_value: int = 0
    ) -> Register:
        sig = Signal(name, width)
        self.wires.append(sig)
        reg = Register(sig, next if next is not None else Ref(sig), reset_value)
        self.registers.append(reg)
        return reg

    def add_instance(
        self, name: str, module: "Module", connections: dict[str, Signal]
    ) -> Instance:
        inst = Instance(name, module, dict(connections))
        self.instances.append(inst)
        return inst

    # -- introspection ----------------------------------------------------

    @property
    def signals(self) -> list[Signal]:
        """All signals of the module in declaration order."""
        return [*self.inputs, *self.outputs, *self.wires]

    def signal_by_name(self, name: str) -> Signal:
        for sig in self.signals:
            if sig.name == name:
                return sig
        raise KeyError(f"no signal named {name!r} in module {self.name!r}")

    def port_by_name(self, name: str) -> Signal:
        for sig in [*self.inputs, *self.outputs]:
            if sig.name == name:
                return sig
        raise KeyError(f"no port named {name!r} in module {self.name!r}")

    def drivers(self) -> dict[Signal, object]:
        """Map every driven signal to its driver object.

        The driver is the :class:`Expr` for assignments, the
        :class:`Register` for registers, or the :class:`Instance` for
        instance output connections.  Raises on double drivers.
        """
        driven: dict[Signal, object] = {}

        def claim(sig: Signal, driver: object) -> None:
            if sig in driven:
                raise HdlError(f"signal {sig.name!r} has multiple drivers")
            driven[sig] = driver

        for sig, expr in self.assigns.items():
            claim(sig, expr)
        for reg in self.registers:
            claim(reg.signal, reg)
        for inst in self.instances:
            child_outputs = {p.name for p in inst.module.outputs}
            for port_name, parent_sig in inst.connections.items():
                # Unknown port names are reported by validate(), not here.
                if port_name in child_outputs:
                    claim(parent_sig, inst)
        return driven

    def validate(self) -> None:
        """Check structural well-formedness; raises :class:`HdlError`."""
        names: set[str] = set()
        for sig in self.signals:
            if sig.name in names:
                raise HdlError(
                    f"module {self.name!r}: duplicate signal name {sig.name!r}"
                )
            names.add(sig.name)

        known = set(self.signals)
        driven = self.drivers()

        for sig in self.inputs:
            if sig in driven:
                raise HdlError(f"input {sig.name!r} must not be driven")
        for sig in [*self.outputs, *self.wires]:
            if sig not in driven:
                raise HdlError(f"signal {sig.name!r} has no driver")

        for target, expr in self.assigns.items():
            for ref in expr.signals():
                if ref not in known:
                    raise HdlError(
                        f"assign to {target.name!r} references foreign "
                        f"signal {ref.name!r}"
                    )
        for reg in self.registers:
            for ref in reg.next.signals():
                if ref not in known:
                    raise HdlError(
                        f"register {reg.signal.name!r} references foreign "
                        f"signal {ref.name!r}"
                    )

        for inst in self.instances:
            child_ports = {p.name for p in [*inst.module.inputs, *inst.module.outputs]}
            for port_name, parent_sig in inst.connections.items():
                if port_name not in child_ports:
                    raise HdlError(
                        f"instance {inst.name!r}: module {inst.module.name!r} "
                        f"has no port {port_name!r}"
                    )
                if parent_sig not in known:
                    raise HdlError(
                        f"instance {inst.name!r}: connection to foreign "
                        f"signal {parent_sig.name!r}"
                    )
                port = inst.module.port_by_name(port_name)
                if port.width != parent_sig.width:
                    raise HdlError(
                        f"instance {inst.name!r} port {port_name!r}: width "
                        f"{port.width} != {parent_sig.width}"
                    )
            missing = child_ports - set(inst.connections)
            if missing:
                raise HdlError(
                    f"instance {inst.name!r}: unconnected ports {sorted(missing)}"
                )

        self.comb_order()  # raises on combinational loops

    def comb_order(self) -> list[Signal]:
        """Topological order of combinationally assigned signals.

        Register outputs, inputs and instance outputs are treated as sources.
        Raises :class:`HdlError` if the assignments form a cycle.
        """
        order: list[Signal] = []
        state: dict[Signal, int] = {}  # 0 visiting, 1 done
        for sig in self.assigns:
            _visit_comb(self.assigns, state, order, sig)
        return order

    def stats(self) -> dict[str, int]:
        """Size statistics used by productivity analytics."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "wires": len(self.wires),
            "assigns": len(self.assigns),
            "registers": len(self.registers),
            "register_bits": sum(r.signal.width for r in self.registers),
            "instances": len(self.instances),
            "expr_nodes": sum(_expr_nodes(e) for e in self.assigns.values())
            + sum(_expr_nodes(r.next) for r in self.registers),
        }

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, in={len(self.inputs)}, "
            f"out={len(self.outputs)}, regs={len(self.registers)}, "
            f"insts={len(self.instances)})"
        )


def _visit_comb(
    assigns: dict[Signal, Expr],
    state: dict[Signal, int],
    order: list[Signal],
    sig: Signal,
) -> None:
    """Depth-first step of :meth:`Module.comb_order`: append ``sig``
    after everything it depends on."""
    if sig not in assigns:
        return
    mark = state.get(sig)
    if mark == 1:
        return
    if mark == 0:
        raise HdlError(f"combinational loop through signal {sig.name!r}")
    state[sig] = 0
    for dep in assigns[sig].signals():
        _visit_comb(assigns, state, order, dep)
    state[sig] = 1
    order.append(sig)


def _expr_nodes(expr: Expr) -> int:
    return 1 + sum(_expr_nodes(c) for c in expr.children())


def eval_expr(expr: Expr, values: dict[Signal, int]) -> int:
    """Evaluate ``expr`` with signal ``values`` under unsigned semantics.

    This is the single definition of IR semantics; the simulator, the
    synthesis equivalence checks and the property tests all use it.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        return values[expr.signal] & expr.signal.mask
    if isinstance(expr, UnaryOp):
        val = eval_expr(expr.operand, values)
        w = expr.operand.width
        mask = (1 << w) - 1
        if expr.op == "not":
            return (~val) & mask
        if expr.op == "neg":
            return (-val) & mask
        if expr.op == "rand":
            return 1 if val == mask else 0
        if expr.op == "ror":
            return 1 if val != 0 else 0
        if expr.op == "rxor":
            return bin(val).count("1") & 1
        raise HdlError(f"unhandled unary op {expr.op!r}")
    if isinstance(expr, BinOp):
        a = eval_expr(expr.a, values)
        b = eval_expr(expr.b, values)
        mask = (1 << expr.width) - 1
        op = expr.op
        if op == "add":
            return (a + b) & mask
        if op == "sub":
            return (a - b) & mask
        if op == "mul":
            return (a * b) & mask
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "shl":
            return (a << b) & mask if b < expr.a.width else 0
        if op == "shr":
            return a >> b if b < expr.a.width else 0
        if op == "eq":
            return 1 if a == b else 0
        if op == "ne":
            return 1 if a != b else 0
        if op == "lt":
            return 1 if a < b else 0
        if op == "le":
            return 1 if a <= b else 0
        if op == "gt":
            return 1 if a > b else 0
        if op == "ge":
            return 1 if a >= b else 0
        raise HdlError(f"unhandled binary op {op!r}")
    if isinstance(expr, Mux):
        sel = eval_expr(expr.sel, values)
        return eval_expr(expr.if_true if sel else expr.if_false, values)
    if isinstance(expr, Cat):
        result = 0
        for part in expr.parts:
            result = (result << part.width) | eval_expr(part, values)
        return result
    if isinstance(expr, Slice):
        val = eval_expr(expr.value, values)
        return (val >> expr.lo) & ((1 << expr.width) - 1)
    raise HdlError(f"cannot evaluate expression {expr!r}")
