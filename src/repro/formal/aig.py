"""And-Inverter Graph: the shared logic representation of the formal layer.

An AIG represents combinational logic with exactly two primitives — the
two-input AND node and edge inversion — which makes structural hashing,
constant folding, CNF encoding and cone extraction all trivial.  Literals
are integers ``2 * node + inverted``; node 0 is the constant-FALSE node,
so literal ``0`` is FALSE and literal ``1`` is TRUE.

Nodes are created in topological order (both fanins of an AND always have
smaller node ids), so evaluation and cone walks are simple forward scans.

The builders at the bottom extract the *combinational cones* of the three
design representations the synthesis pipeline produces: register outputs
become pseudo-inputs (current state) and register data pins become
pseudo-outputs (next state), reducing sequential equivalence to per-cone
combinational equivalence under register correspondence by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hdl.elaborate import elaborate
from ..hdl.ir import (
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
from ..sim.bitsim import group_bit_labels
from ..synth.mapped import MappedNetlist
from ..synth.netlist import GateNetlist

#: Constant literals.
FALSE = 0
TRUE = 1

Bits = list[int]


class Aig:
    """A structurally-hashed And-Inverter Graph."""

    def __init__(self, name: str = "aig"):
        self.name = name
        #: Fanin pair per node; ``None`` marks the constant node and inputs.
        self._fanins: list[tuple[int, int] | None] = [None]
        #: Primary-input bit labels, in creation order.
        self.pi_labels: list[str] = []
        #: label -> input literal (for sharing inputs across builds).
        self._pi_by_label: dict[str, int] = {}
        self._pi_nodes: set[int] = set()
        self._strash: dict[tuple[int, int], int] = {}

    # -- construction --------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self._fanins)

    @property
    def n_ands(self) -> int:
        return len(self._strash)

    @property
    def n_inputs(self) -> int:
        return len(self.pi_labels)

    def input_bit(self, label: str) -> int:
        """The input literal for ``label``, creating it on first use."""
        lit = self._pi_by_label.get(label)
        if lit is None:
            node = len(self._fanins)
            self._fanins.append(None)
            self._pi_nodes.add(node)
            self._pi_by_label[label] = lit = node << 1
            self.pi_labels.append(label)
        return lit

    def input_word(self, name: str, width: int) -> Bits:
        """Input literals ``name[0] .. name[width-1]`` (LSB first)."""
        return [self.input_bit(f"{name}[{i}]") for i in range(width)]

    def is_input(self, lit: int) -> bool:
        return (lit >> 1) in self._pi_nodes

    def AND(self, a: int, b: int) -> int:
        """Conjunction with constant folding and structural hashing."""
        if a > b:
            a, b = b, a
        if a == FALSE or (a ^ b) == 1:  # 0 & x, x & ~x
            return FALSE
        if a == TRUE or a == b:  # 1 & x, x & x
            return b
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self._fanins)
            self._fanins.append(key)
            self._strash[key] = node
        return node << 1

    @staticmethod
    def NOT(a: int) -> int:
        return a ^ 1

    def OR(self, a: int, b: int) -> int:
        return self.AND(a ^ 1, b ^ 1) ^ 1

    def XOR(self, a: int, b: int) -> int:
        return self.OR(self.AND(a, b ^ 1), self.AND(a ^ 1, b))

    def MUX(self, sel: int, if_true: int, if_false: int) -> int:
        return self.OR(self.AND(sel, if_true), self.AND(sel ^ 1, if_false))

    # -- analysis -------------------------------------------------------------

    def fanins(self, node: int) -> tuple[int, int] | None:
        return self._fanins[node]

    def cone(self, lits: list[int]) -> list[int]:
        """AND nodes feeding ``lits``, in ascending (topological) order."""
        seen: set[int] = set()
        stack = [lit >> 1 for lit in lits]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            pair = self._fanins[node]
            if pair is not None:
                stack.append(pair[0] >> 1)
                stack.append(pair[1] >> 1)
        return sorted(seen)

    def levels(self) -> int:
        """Maximum AND depth over the whole graph."""
        level = [0] * len(self._fanins)
        deepest = 0
        for node, pair in enumerate(self._fanins):
            if pair is None:
                continue
            level[node] = 1 + max(level[pair[0] >> 1], level[pair[1] >> 1])
            deepest = max(deepest, level[node])
        return deepest

    def eval_lits(self, inputs: dict[str, int], lits: list[int]) -> list[int]:
        """Evaluate literals under bit values per input label (default 0)."""
        values = [0] * len(self._fanins)
        for label, value in inputs.items():
            lit = self._pi_by_label.get(label)
            if lit is not None:
                values[lit >> 1] = value & 1
        for node, pair in enumerate(self._fanins):
            if pair is not None:
                a, b = pair
                values[node] = (values[a >> 1] ^ (a & 1)) & (
                    values[b >> 1] ^ (b & 1)
                )
        return [values[lit >> 1] ^ (lit & 1) for lit in lits]

    def stats(self) -> dict[str, int]:
        return {
            "inputs": self.n_inputs,
            "ands": self.n_ands,
            "levels": self.levels(),
        }

    def __repr__(self) -> str:
        return (
            f"Aig({self.name!r}, inputs={self.n_inputs}, ands={self.n_ands})"
        )


def word_value(aig: Aig, inputs: dict[str, int], lits: Bits) -> int:
    """Evaluate a word of literals to an unsigned integer (LSB first)."""
    bits = aig.eval_lits(inputs, lits)
    return sum(bit << i for i, bit in enumerate(bits))


# ---------------------------------------------------------------------------
# Combinational-cone extraction
# ---------------------------------------------------------------------------


@dataclass
class CombCones:
    """The combinational view of one design over a (possibly shared) AIG.

    ``state`` maps register names to their current-value literals (pseudo
    primary inputs) and ``next_state`` to the literals feeding the register
    data pins (pseudo primary outputs).  Sequential equivalence between two
    designs reduces to combinational equivalence of ``outputs`` and
    ``next_state`` cone-by-cone, provided the register names correspond.
    """

    aig: Aig
    source: str  # "rtl" | "gates" | "mapped"
    inputs: dict[str, Bits] = field(default_factory=dict)
    outputs: dict[str, Bits] = field(default_factory=dict)
    state: dict[str, Bits] = field(default_factory=dict)
    next_state: dict[str, Bits] = field(default_factory=dict)
    reset_values: dict[str, int] = field(default_factory=dict)
    #: Every combinationally-assigned signal word (wires and outputs),
    #: so property proving can reason about internal nets too.
    signals: dict[str, Bits] = field(default_factory=dict)
    #: (owner location, select literal) per RTL mux site, for props.
    mux_selects: list[tuple[str, int]] = field(default_factory=list)

    def cone_words(self) -> dict[str, tuple[Bits, str]]:
        """Every compared cone: name -> (literals, kind)."""
        cones = {name: (lits, "output") for name, lits in self.outputs.items()}
        for name, lits in self.next_state.items():
            cones[f"next({name})"] = (lits, "state")
        return cones

    def evaluate(self, inputs: dict[str, int],
                 state: dict[str, int] | None = None) -> dict[str, int]:
        """Evaluate all output and next-state words for one input vector."""
        bit_values: dict[str, int] = {}

        def spread(name: str, lits: Bits, value: int) -> None:
            for i in range(len(lits)):
                bit_values[f"{name}[{i}]"] = (value >> i) & 1

        for name, value in inputs.items():
            spread(name, self.inputs[name], value)
        for name, value in (state or {}).items():
            spread(name, self.state[name], value)
        return {
            name: word_value(self.aig, bit_values, lits)
            for name, (lits, _kind) in self.cone_words().items()
        }


# -- Module -> AIG -----------------------------------------------------------


class _ModuleBlaster:
    """Bit-blast the word-level IR straight into an AIG.

    This is a second, independent implementation of the IR semantics
    (:func:`repro.hdl.ir.eval_expr`) — deliberately *not* shared with
    :mod:`repro.synth.lower`, so a lowering bug cannot hide from LEC.
    """

    def __init__(self, module: Module, aig: Aig):
        if module.instances:
            module = elaborate(module)
        module.validate()
        self.module = module
        self.aig = aig
        self.bits: dict[Signal, Bits] = {}
        self.mux_selects: list[tuple[str, int]] = []
        self._location = ""

    def _pad(self, bits: Bits, width: int) -> Bits:
        if len(bits) > width:
            raise ValueError(f"cannot narrow {len(bits)} bits to {width}")
        return bits + [FALSE] * (width - len(bits))

    def _ripple_add(self, a: Bits, b: Bits, cin: int) -> tuple[Bits, int]:
        g = self.aig
        out: Bits = []
        carry = cin
        for x, y in zip(a, b):
            xy = g.XOR(x, y)
            out.append(g.XOR(xy, carry))
            carry = g.OR(g.AND(x, y), g.AND(xy, carry))
        return out, carry

    def _tree(self, op, bits: Bits) -> int:
        level = list(bits)
        while len(level) > 1:
            nxt = [op(level[i], level[i + 1])
                   for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def expr(self, node: Expr) -> Bits:
        g = self.aig
        if isinstance(node, Const):
            return [TRUE if (node.value >> i) & 1 else FALSE
                    for i in range(node.width)]
        if isinstance(node, Ref):
            return list(self.bits[node.signal])
        if isinstance(node, UnaryOp):
            operand = self.expr(node.operand)
            if node.op == "not":
                return [bit ^ 1 for bit in operand]
            if node.op == "neg":
                zero = [FALSE] * len(operand)
                out, _ = self._ripple_add(
                    [bit ^ 1 for bit in operand], zero, TRUE
                )
                return out
            if node.op == "rand":
                return [self._tree(g.AND, operand)]
            if node.op == "ror":
                return [self._tree(g.OR, operand)]
            if node.op == "rxor":
                return [self._tree(g.XOR, operand)]
            raise ValueError(f"unhandled unary op {node.op!r}")
        if isinstance(node, BinOp):
            return self._binop(node)
        if isinstance(node, Mux):
            sel = self.expr(node.sel)[0]
            self.mux_selects.append((self._location, sel))
            width = node.width
            t = self._pad(self.expr(node.if_true), width)
            f = self._pad(self.expr(node.if_false), width)
            return [g.MUX(sel, ti, fi) for ti, fi in zip(t, f)]
        if isinstance(node, Cat):
            bits: Bits = []
            for part in reversed(node.parts):  # last part is the LSB side
                bits.extend(self.expr(part))
            return bits
        if isinstance(node, Slice):
            return self.expr(node.value)[node.lo:node.hi + 1]
        raise TypeError(f"cannot blast expression {node!r}")

    def _binop(self, node: BinOp) -> Bits:
        g = self.aig
        op = node.op
        if op in ("shl", "shr"):
            return self._shift(node)
        a = self.expr(node.a)
        b = self.expr(node.b)
        if op in ("and", "or", "xor"):
            width = node.width
            a, b = self._pad(a, width), self._pad(b, width)
            fn = {"and": g.AND, "or": g.OR, "xor": g.XOR}[op]
            return [fn(x, y) for x, y in zip(a, b)]
        if op == "add":
            width = node.width
            out, _ = self._ripple_add(
                self._pad(a, width), self._pad(b, width), FALSE
            )
            return out
        if op == "sub":
            width = node.width
            out, _ = self._ripple_add(
                self._pad(a, width),
                [bit ^ 1 for bit in self._pad(b, width)],
                TRUE,
            )
            return out
        if op == "mul":
            width = node.width
            acc = [FALSE] * width
            for j, b_bit in enumerate(b):
                partial = [FALSE] * j
                partial += [g.AND(a_bit, b_bit) for a_bit in a]
                partial = self._pad(partial[:width], width)
                acc, _ = self._ripple_add(acc, partial, FALSE)
            return acc
        if op in ("eq", "ne"):
            width = max(len(a), len(b))
            a, b = self._pad(a, width), self._pad(b, width)
            diff = self._tree(g.OR, [g.XOR(x, y) for x, y in zip(a, b)])
            return [diff if op == "ne" else diff ^ 1]
        if op in ("lt", "le", "gt", "ge"):
            return [self._compare(op, a, b)]
        raise ValueError(f"unhandled binary op {op!r}")

    def _compare(self, op: str, a: Bits, b: Bits) -> int:
        # Unsigned comparison via the carry out of ``a + ~b + 1``.
        if op == "gt":
            return self._compare("lt", b, a)
        if op == "le":
            return self._compare("ge", b, a)
        width = max(len(a), len(b))
        a, b = self._pad(a, width), self._pad(b, width)
        _, carry = self._ripple_add(a, [bit ^ 1 for bit in b], TRUE)
        return carry if op == "ge" else carry ^ 1

    def _shift(self, node: BinOp) -> Bits:
        g = self.aig
        a = self.expr(node.a)
        width = len(a)
        left = node.op == "shl"
        if isinstance(node.b, Const):
            amount = node.b.value
            if amount >= width:
                return [FALSE] * width
            if left:
                return [FALSE] * amount + a[:width - amount]
            return a[amount:] + [FALSE] * amount
        amount_bits = self.expr(node.b)
        current = a
        for k, sel in enumerate(amount_bits):
            step = 1 << k
            if step >= width:
                current = [g.MUX(sel, FALSE, bit) for bit in current]
                continue
            if left:
                shifted = [FALSE] * step + current[:width - step]
            else:
                shifted = current[step:] + [FALSE] * step
            current = [g.MUX(sel, s, c) for s, c in zip(shifted, current)]
        return current

    def run(self) -> CombCones:
        cones = CombCones(self.aig, "rtl")
        for sig in self.module.inputs:
            self.bits[sig] = self.aig.input_word(sig.name, sig.width)
            cones.inputs[sig.name] = self.bits[sig]
        for reg in self.module.registers:
            self.bits[reg.signal] = self.aig.input_word(
                reg.signal.name, reg.signal.width
            )
            cones.state[reg.signal.name] = self.bits[reg.signal]
            cones.reset_values[reg.signal.name] = reg.reset_value
        for sig in self.module.comb_order():
            self._location = sig.name
            self.bits[sig] = self._pad(
                self.expr(self.module.assigns[sig]), sig.width
            )
            cones.signals[sig.name] = self.bits[sig]
        for reg in self.module.registers:
            self._location = reg.signal.name
            # The simulator masks a wider ``next`` down to the register
            # width, so truncate here rather than reject.
            width = reg.signal.width
            cones.next_state[reg.signal.name] = self._pad(
                self.expr(reg.next)[:width], width
            )
        for sig in self.module.outputs:
            cones.outputs[sig.name] = self.bits[sig]
        cones.mux_selects = self.mux_selects
        return cones


def from_module(module: Module, aig: Aig | None = None) -> CombCones:
    """Extract the combinational cones of an RTL module."""
    return _ModuleBlaster(module, aig or Aig(module.name)).run()


# -- GateNetlist -> AIG ------------------------------------------------------


def _group_state_bits(
    labels: list[str], lits: list[int], resets: list[int],
) -> tuple[dict[str, Bits], dict[str, int]]:
    """Group per-flop literals and reset bits into register words.

    ``labels[p]`` names flop ``p`` by the ``name[index]`` convention
    stamped by the lowerer (:func:`repro.sim.bitsim.group_bit_labels`
    parses it); an unlabeled flip-flop gets a positional ``dff<n>`` name
    so hand-built netlists still check (correspondence is then
    positional by intent).
    """
    grouped: dict[str, Bits] = {}
    reset_values: dict[str, int] = {}
    for base, pairs in group_bit_labels(labels).items():
        by_index = {index: position for index, position in pairs}
        if sorted(by_index) != list(range(len(by_index))):
            raise ValueError(
                f"register {base!r}: non-contiguous bit indexes "
                f"{sorted(by_index)}"
            )
        grouped[base] = [lits[by_index[i]] for i in range(len(by_index))]
        reset_values[base] = sum(
            resets[position] << i for i, position in by_index.items()
        )
    return grouped, reset_values


def from_gate_netlist(netlist: GateNetlist, aig: Aig | None = None) -> CombCones:
    """Extract the combinational cones of a primitive gate netlist."""
    g = aig or Aig(netlist.name)
    cones = CombCones(g, "gates")
    lit_of: dict[int, int] = {}
    for net, value in netlist.const_nets.items():
        lit_of[net] = TRUE if value else FALSE
    for name, nets in netlist.inputs.items():
        lits = g.input_word(name, len(nets))
        cones.inputs[name] = lits
        for net, lit in zip(nets, lits):
            lit_of[net] = lit

    labels = [ff.name or f"dff{i}" for i, ff in enumerate(netlist.dffs)]
    resets = [ff.reset_value for ff in netlist.dffs]
    state_lits = []
    for label, ff in zip(labels, netlist.dffs):
        lit_of[ff.q] = g.input_bit(label)
        state_lits.append(lit_of[ff.q])
    cones.state, cones.reset_values = _group_state_bits(
        labels, state_lits, resets
    )

    for gate in netlist.topo_gates():
        ins = [lit_of[net] for net in gate.inputs]
        if gate.op == "AND":
            lit = g.AND(ins[0], ins[1])
        elif gate.op == "OR":
            lit = g.OR(ins[0], ins[1])
        elif gate.op == "XOR":
            lit = g.XOR(ins[0], ins[1])
        elif gate.op == "NOT":
            lit = ins[0] ^ 1
        else:  # BUF
            lit = ins[0]
        lit_of[gate.output] = lit

    def resolve(net: int) -> int:
        try:
            return lit_of[net]
        except KeyError:
            raise ValueError(
                f"netlist {netlist.name!r}: net {net} is read but never "
                "driven"
            ) from None

    cones.next_state, _ = _group_state_bits(
        labels, [resolve(ff.d) for ff in netlist.dffs], resets
    )
    for name, nets in netlist.outputs.items():
        cones.outputs[name] = [resolve(net) for net in nets]
    return cones


# -- MappedNetlist -> AIG ----------------------------------------------------


def _cell_lit(g: Aig, kind: str, pins: dict[str, int]) -> int:
    """AIG literal for one standard cell's output, by cell kind."""
    a = pins.get("a", FALSE)
    b = pins.get("b", FALSE)
    c = pins.get("c", FALSE)
    if kind == "INV":
        return a ^ 1
    if kind == "BUF":
        return a
    if kind == "AND2":
        return g.AND(a, b)
    if kind == "NAND2":
        return g.AND(a, b) ^ 1
    if kind == "OR2":
        return g.OR(a, b)
    if kind == "NOR2":
        return g.OR(a, b) ^ 1
    if kind == "XOR2":
        return g.XOR(a, b)
    if kind == "XNOR2":
        return g.XOR(a, b) ^ 1
    if kind == "NAND3":
        return g.AND(g.AND(a, b), c) ^ 1
    if kind == "NOR3":
        return g.OR(g.OR(a, b), c) ^ 1
    if kind == "AOI21":
        return g.OR(g.AND(a, b), c) ^ 1
    if kind == "OAI21":
        return g.AND(g.OR(a, b), c) ^ 1
    if kind == "MUX2":
        return g.MUX(pins["s"], b, a)  # s ? b : a
    if kind == "TIE0":
        return FALSE
    if kind == "TIE1":
        return TRUE
    raise ValueError(f"no AIG model for cell kind {kind!r}")


def _cell_lit_from_function(g: Aig, cell, pin_lits: dict[str, int]) -> int:
    """Fallback for kinds without a hand-written model: enumerate the
    cell's truth function into a sum-of-products over its input pins."""
    pins = list(cell.inputs)
    lits = [pin_lits[p] for p in pins]
    out = FALSE
    for row in range(1 << len(pins)):
        bits = [(row >> i) & 1 for i in range(len(pins))]
        if cell.function(*bits):
            term = TRUE
            for lit, bit in zip(lits, bits):
                term = g.AND(term, lit if bit else lit ^ 1)
            out = g.OR(out, term)
    return out


def from_mapped(mapped: MappedNetlist, aig: Aig | None = None) -> CombCones:
    """Extract the combinational cones of a technology-mapped netlist."""
    g = aig or Aig(mapped.name)
    cones = CombCones(g, "mapped")
    lit_of: dict[int, int] = {}
    for name, nets in mapped.inputs.items():
        lits = g.input_word(name, len(nets))
        cones.inputs[name] = lits
        for net, lit in zip(nets, lits):
            lit_of[net] = lit

    seq = mapped.seq_cells
    labels = [inst.tag or f"dff{index}" for index, inst in enumerate(seq)]
    resets = [inst.reset_value for inst in seq]
    state_lits = []
    for label, inst in zip(labels, seq):
        q = inst.pins[inst.cell.output]
        lit_of[q] = g.input_bit(label)
        state_lits.append(lit_of[q])
    cones.state, cones.reset_values = _group_state_bits(
        labels, state_lits, resets
    )

    for inst in mapped.topo_comb():
        pin_lits = {
            pin: lit_of[net]
            for pin, net in inst.pins.items()
            if pin != inst.cell.output
        }
        out = inst.pins.get(inst.cell.output)
        if out is None:
            continue
        try:
            lit_of[out] = _cell_lit(g, inst.cell.kind, pin_lits)
        except ValueError:
            lit_of[out] = _cell_lit_from_function(g, inst.cell, pin_lits)

    def resolve(net: int) -> int:
        try:
            return lit_of[net]
        except KeyError:
            raise ValueError(
                f"mapped netlist {mapped.name!r}: net {net} is read but "
                "never driven"
            ) from None

    cones.next_state, _ = _group_state_bits(
        labels, [resolve(inst.pins["d"]) for inst in seq], resets
    )
    for name, nets in mapped.outputs.items():
        cones.outputs[name] = [resolve(net) for net in nets]
    return cones


def build_cones(design, aig: Aig | None = None) -> CombCones:
    """Dispatch to the right builder for ``design``'s representation."""
    if isinstance(design, Module):
        return from_module(design, aig)
    if isinstance(design, GateNetlist):
        return from_gate_netlist(design, aig)
    if isinstance(design, MappedNetlist):
        return from_mapped(design, aig)
    raise TypeError(f"cannot build AIG cones from {type(design)!r}")
