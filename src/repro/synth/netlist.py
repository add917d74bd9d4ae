"""Bit-level gate netlist — the common currency of the backend flow.

Synthesis lowers the word-level IR into a :class:`GateNetlist` of 1/2-input
primitive gates plus D flip-flops.  Optimization rewrites it, technology
mapping covers it with standard cells, and the gate-level simulator
(:class:`GateSimulator`) provides the reference semantics that equivalence
checking compares against RTL simulation.

Nets are dense integer ids; multi-bit signals are lists of nets, LSB first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.bitsim import group_bit_labels

#: Primitive gate operators.  NOT/BUF take one input, the rest take two.
GATE_OPS = frozenset({"AND", "OR", "XOR", "NOT", "BUF"})

_EVAL = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NOT": lambda a: a ^ 1,
    "BUF": lambda a: a,
}


@dataclass(frozen=True)
class Gate:
    """A primitive combinational gate."""

    op: str
    inputs: tuple[int, ...]
    output: int

    def __post_init__(self):
        if self.op not in GATE_OPS:
            raise ValueError(f"unknown gate op {self.op!r}")
        expected = 1 if self.op in ("NOT", "BUF") else 2
        if len(self.inputs) != expected:
            raise ValueError(
                f"{self.op} gate takes {expected} inputs, got {len(self.inputs)}"
            )


@dataclass(frozen=True)
class FlipFlop:
    """A single-bit D flip-flop with a synchronous reset value.

    ``name`` records which RTL register bit this flop implements (the
    ``reg[index]`` convention), establishing the register correspondence
    that formal equivalence checking and state loading rely on.  It is
    purely an annotation: empty names are legal for hand-built netlists.
    """

    d: int
    q: int
    reset_value: int = 0
    name: str = ""


class GateNetlist:
    """A flat netlist of primitive gates and flip-flops."""

    def __init__(self, name: str):
        self.name = name
        self.n_nets = 0
        self.gates: list[Gate] = []
        self.dffs: list[FlipFlop] = []
        self.inputs: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self._const0: int | None = None
        self._const1: int | None = None

    # -- construction -------------------------------------------------------

    def new_net(self) -> int:
        net = self.n_nets
        self.n_nets += 1
        return net

    def add_gate(self, op: str, *inputs: int) -> int:
        out = self.new_net()
        self.gates.append(Gate(op, tuple(inputs), out))
        return out

    def add_dff(self, d: int, reset_value: int = 0, name: str = "") -> int:
        q = self.new_net()
        self.dffs.append(FlipFlop(d, q, reset_value, name))
        return q

    def add_input(self, name: str, width: int) -> list[int]:
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        nets = [self.new_net() for _ in range(width)]
        self.inputs[name] = nets
        return nets

    def set_output(self, name: str, nets: list[int]) -> None:
        if name in self.outputs:
            raise ValueError(f"duplicate output {name!r}")
        self.outputs[name] = list(nets)

    def const0(self) -> int:
        if self._const0 is None:
            self._const0 = self.new_net()
        return self._const0

    def const1(self) -> int:
        if self._const1 is None:
            self._const1 = self.new_net()
        return self._const1

    @property
    def const_nets(self) -> dict[int, int]:
        """Map of constant net id -> constant value."""
        consts = {}
        if self._const0 is not None:
            consts[self._const0] = 0
        if self._const1 is not None:
            consts[self._const1] = 1
        return consts

    # -- analysis -------------------------------------------------------------

    def topo_gates(self) -> list[Gate]:
        """Gates in topological order (inputs/DFF-Q/constants are sources).

        Uses Kahn's algorithm; any gate left unordered sits on a
        combinational loop, which is an error.
        """
        gate_outputs = {g.output for g in self.gates}
        consumers: dict[int, list[int]] = {}
        pending = [0] * len(self.gates)
        ready: list[int] = []
        for index, gate in enumerate(self.gates):
            for net in gate.inputs:
                if net in gate_outputs:
                    pending[index] += 1
                    consumers.setdefault(net, []).append(index)
            if pending[index] == 0:
                ready.append(index)

        order: list[Gate] = []
        head = 0
        while head < len(ready):
            index = ready[head]
            head += 1
            gate = self.gates[index]
            order.append(gate)
            for consumer in consumers.get(gate.output, ()):
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            raise ValueError(
                f"combinational loop: {len(self.gates) - len(order)} gates "
                "cannot be ordered"
            )
        return order

    def fanout(self) -> dict[int, int]:
        """Number of gate/DFF/output sinks per net."""
        counts: dict[int, int] = {}
        for gate in self.gates:
            for net in gate.inputs:
                counts[net] = counts.get(net, 0) + 1
        for ff in self.dffs:
            counts[ff.d] = counts.get(ff.d, 0) + 1
        for nets in self.outputs.values():
            for net in nets:
                counts[net] = counts.get(net, 0) + 1
        return counts

    def depth(self) -> int:
        """Maximum logic depth in gates (ignores BUF chains' semantics)."""
        level: dict[int, int] = {}
        deepest = 0
        for gate in self.topo_gates():
            lvl = 1 + max((level.get(net, 0) for net in gate.inputs), default=0)
            level[gate.output] = lvl
            deepest = max(deepest, lvl)
        return deepest

    def stats(self) -> dict[str, int]:
        by_op: dict[str, int] = {}
        for gate in self.gates:
            by_op[gate.op] = by_op.get(gate.op, 0) + 1
        return {
            "gates": len(self.gates),
            "dffs": len(self.dffs),
            "nets": self.n_nets,
            "depth": self.depth(),
            **{f"op_{op}": n for op, n in sorted(by_op.items())},
        }

    def __repr__(self) -> str:
        return (
            f"GateNetlist({self.name!r}, gates={len(self.gates)}, "
            f"dffs={len(self.dffs)})"
        )


class GateSimulator:
    """Cycle-accurate simulator over a :class:`GateNetlist`.

    Mirrors the :class:`repro.sim.Simulator` interface closely enough for
    the equivalence checker to drive both in lockstep.
    """

    def __init__(self, netlist: GateNetlist):
        self.netlist = netlist
        self._order = netlist.topo_gates()
        self._values: list[int] = [0] * netlist.n_nets
        # Register word -> (bit index, flop Q net), by the reg[i] names.
        self._words = {
            name: [(bit, netlist.dffs[position].q) for bit, position in pairs]
            for name, pairs in group_bit_labels(
                [ff.name for ff in netlist.dffs]
            ).items()
        }
        self.reset()

    def reset(self) -> None:
        for net, value in self.netlist.const_nets.items():
            self._values[net] = value
        for ff in self.netlist.dffs:
            self._values[ff.q] = ff.reset_value
        self._settle()

    def _settle(self) -> None:
        values = self._values
        for gate in self._order:
            fn = _EVAL[gate.op]
            values[gate.output] = fn(*(values[n] for n in gate.inputs))

    def _write_input(self, name: str, value: int) -> None:
        nets = self.netlist.inputs[name]
        if not 0 <= value < (1 << len(nets)):
            raise ValueError(
                f"value {value} does not fit input {name!r} "
                f"({len(nets)} bits)"
            )
        for i, net in enumerate(nets):
            self._values[net] = (value >> i) & 1

    def set(self, name: str, value: int) -> None:
        self._write_input(name, value)
        self._settle()

    def set_many(self, values: dict[str, int]) -> None:
        """Drive several inputs, settling combinational logic once.

        Mirrors :meth:`repro.sim.Simulator.set_many` so lockstep
        drivers can batch a whole cycle's stimulus into one sweep.
        """
        for name, value in values.items():
            self._write_input(name, value)
        if values:
            self._settle()

    def load_state(self, state: dict[str, int]) -> None:
        """Force register words (by flop name) to the given values.

        Keys are RTL register names; flops named ``reg[i]`` supply bit
        ``i`` of the word ``reg``.  Used to replay formal counterexamples
        from an arbitrary reachable-or-not state.
        """
        for name, value in state.items():
            if name not in self._words:
                raise KeyError(f"no register named {name!r} in netlist")
            for bit_index, q in self._words[name]:
                self._values[q] = (value >> bit_index) & 1
        self._settle()

    def get_register(self, name: str) -> int:
        """Current value of the register word ``name`` (flop-name grouping)."""
        if name not in self._words:
            raise KeyError(f"no register named {name!r} in netlist")
        return sum(
            self._values[q] << bit_index for bit_index, q in self._words[name]
        )

    def get(self, name: str) -> int:
        nets = self.netlist.outputs[name]
        return sum(self._values[net] << i for i, net in enumerate(nets))

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            next_values = [
                self._values[ff.d] for ff in self.netlist.dffs
            ]
            for ff, value in zip(self.netlist.dffs, next_values):
                self._values[ff.q] = value
            self._settle()
