"""Bit-level gate netlist — the common currency of the backend flow.

Synthesis lowers the word-level IR into a :class:`GateNetlist` of 1/2-input
primitive gates plus D flip-flops.  Optimization rewrites it, technology
mapping covers it with standard cells, and the packed gate simulator
(:class:`repro.sim.bitsim.PackedGateSimulator`) gives it the semantics
that equivalence checking compares against RTL simulation.

Nets are dense integer ids; multi-bit signals are lists of nets, LSB first.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Primitive gate operators.  NOT/BUF take one input, the rest take two.
GATE_OPS = frozenset({"AND", "OR", "XOR", "NOT", "BUF"})


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
