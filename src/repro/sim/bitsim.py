"""Word-parallel (bit-packed) logic simulation.

Evaluating one test vector at a time costs one Python-level operation
per gate per vector.  This module packs ``W = 64`` *independent*
vectors into one Python int per signal **bit** — lane ``l`` of the
word is the value of that bit under vector ``l`` — and evaluates gates
with bitwise operations, so one ``&``/``|``/``^`` simulates all 64
vectors at once.  This is the classic PPSFP technique
from EDA fault simulators, and it is pure-Python friendly because
Python ints are arbitrary-width bit vectors.

Packed value convention
-----------------------

A *packed word* for an ``n``-bit signal is a list of ``n`` ints, LSB
first (the same bit ordering the netlists use): ``words[i]`` holds bit
``i`` of the signal across all lanes, with lane ``l`` in bit ``l`` of
the int.  :func:`pack_word` transposes a list of per-lane scalar values
into this layout, :func:`unpack_word` transposes back, and
:func:`extract_lane` recovers the single scalar value of one lane — the
primitive the equivalence checker and replay read results through.

Two packed engines, one per netlist kind, share the
``set``/``set_many``/``get``/``step``/``get_register``/``load_state``
shape of the RTL :class:`repro.sim.Simulator`, with lane words in
place of scalars.  With ``lanes=1`` an engine is that netlist kind's
scalar simulator: the lockstep loop of
``check_equivalence(engine="scalar")`` runs one vector per cycle on it.

* :class:`PackedGateSimulator` — over a ``GateNetlist``;
* :class:`PackedMappedSimulator` — over a ``MappedNetlist`` of
  standard cells (packed per-kind boolean functions, with a per-lane
  fallback for unknown cells), plus per-lane stuck-at pin forces for
  fault simulation, which runs every 63-fault block in one wide
  simulator of ``64 × blocks`` lanes.

Both settle on read: a write (``set``, ``set_many``, ``load_state``,
``reset``, the register update of a clock edge) only stores values and
marks the simulator stale, and the next read that needs combinational
values (``get``, the D capture of ``step``, a pin force) re-evaluates
every combinational net once.  Writes that no read separates cost one
sweep between them, not one each.

An RTL ``Module`` has no packed engine: word-level expressions do not
vectorize over lane words, and the one RTL reference every packed
check compares against is the interpreter :class:`repro.sim.Simulator`.

This module imports nothing from :mod:`repro.synth` (the synth package
imports back into here).
"""

from __future__ import annotations

#: Number of vectors packed into one machine word.  64 keeps every
#: lane word within one CPython "digit spill" of a small int and
#: matches the classic PPSFP word size.  It is the default lane count
#: and :func:`pack_word`'s cap; a :class:`PackedMappedSimulator` may be
#: wider, as the fault simulator's ``64 × blocks`` lanes are.
LANES = 64

#: All-ones mask over the full lane count.
FULL_MASK = (1 << LANES) - 1


class PackedSimError(Exception):
    """Raised for malformed packed stimulus or unsupported designs."""


# ---------------------------------------------------------------------------
# Packing helpers
# ---------------------------------------------------------------------------


def pack_word(values: list[int], width: int) -> list[int]:
    """Transpose per-lane scalar ``values`` into a packed word.

    ``values[l]`` is the scalar value of lane ``l``; the result is one
    int per signal bit, LSB first, with lane ``l`` in bit ``l``.  At
    most :data:`LANES` values are allowed; missing lanes stay 0.
    """
    if len(values) > LANES:
        raise PackedSimError(
            f"cannot pack {len(values)} vectors into {LANES} lanes"
        )
    words = [0] * width
    for bit in range(width):
        probe = 1 << bit
        word = 0
        for lane, value in enumerate(values):
            if value & probe:
                word |= 1 << lane
        words[bit] = word
    return words


def unpack_word(words: list[int], lane_count: int = LANES) -> list[int]:
    """Transpose a packed word back into per-lane scalar values."""
    return [extract_lane(words, lane) for lane in range(lane_count)]


def extract_lane(words: list[int], lane: int) -> int:
    """Scalar value of one lane of a packed word.

    This is the mismatch-localization routine: given the packed inputs
    (or outputs) of a simulation and the index of one lane, it recovers
    that lane's exact scalar vector (or result).
    """
    value = 0
    for bit, word in enumerate(words):
        value |= ((word >> lane) & 1) << bit
    return value


def extract_lane_vector(
    packed: dict[str, list[int]], lane: int
) -> dict[str, int]:
    """Scalar ``{signal: value}`` vector for one lane of packed stimulus."""
    return {name: extract_lane(words, lane) for name, words in packed.items()}


def broadcast_word(value: int, width: int, mask: int = FULL_MASK) -> list[int]:
    """Packed word holding the same scalar ``value`` in every lane."""
    return [mask if (value >> bit) & 1 else 0 for bit in range(width)]


def group_bit_labels(labels: list[str]) -> dict[str, list[tuple[int, int]]]:
    """Group flat bit labels into words by the ``reg[i]`` convention.

    ``labels[p]`` names state element ``p`` (a flop name or a DFF tag);
    the result maps each word name to ``(bit_index, position)`` pairs.
    Unlabelled positions become single-bit ``dff<p>`` words, in the
    packed simulators and in the AIGs of :mod:`repro.formal.aig`
    alike.
    """
    words: dict[str, list[tuple[int, int]]] = {}
    for position, label in enumerate(labels):
        label = label or f"dff{position}"
        base, _, rest = label.rpartition("[")
        if base and rest.endswith("]") and rest[:-1].isdigit():
            words.setdefault(base, []).append((int(rest[:-1]), position))
        else:
            words.setdefault(label, []).append((0, position))
    return words


# ---------------------------------------------------------------------------
# Packed standard-cell functions
# ---------------------------------------------------------------------------

#: Lane-parallel boolean functions per cell kind.  Each entry takes the
#: lane mask and returns the cell's function of one packed lane word
#: per input pin, so evaluating a cell is a single call.
_PACKED_CELL_FUNCS = {
    "INV": lambda m: lambda a: a ^ m,
    "BUF": lambda m: lambda a: a,
    "NAND2": lambda m: lambda a, b: (a & b) ^ m,
    "NOR2": lambda m: lambda a, b: (a | b) ^ m,
    "AND2": lambda m: lambda a, b: a & b,
    "OR2": lambda m: lambda a, b: a | b,
    "XOR2": lambda m: lambda a, b: a ^ b,
    "XNOR2": lambda m: lambda a, b: (a ^ b) ^ m,
    "NAND3": lambda m: lambda a, b, c: (a & b & c) ^ m,
    "NOR3": lambda m: lambda a, b, c: (a | b | c) ^ m,
    "AOI21": lambda m: lambda a, b, c: ((a & b) | c) ^ m,
    "OAI21": lambda m: lambda a, b, c: ((a | b) & c) ^ m,
    "MUX2": lambda m: lambda a, b, s: (b & s) | (a & (s ^ m)),
    "TIE0": lambda m: lambda: 0,
    "TIE1": lambda m: lambda: m,
}


def packed_cell_function(cell, mask: int):
    """The lane-parallel function of a standard cell.

    Known kinds use a closed-form bitwise expression; anything else
    falls back to evaluating the cell's scalar ``function`` once per
    lane (correct for any cell, just not fast).
    """
    make = _PACKED_CELL_FUNCS.get(cell.kind)
    if make is not None:
        return make(mask)
    scalar = cell.function
    if scalar is None:
        raise PackedSimError(
            f"cell {cell.name!r} has no combinational function"
        )
    lanes = mask.bit_length()

    def per_lane(*words):
        out = 0
        for lane in range(lanes):
            if scalar(*(((w >> lane) & 1) for w in words)):
                out |= 1 << lane
        return out

    return per_lane


# ---------------------------------------------------------------------------
# Packed gate-netlist simulator
# ---------------------------------------------------------------------------

# settle() opcodes, kept as ints so the hot loop branches on an int
# compare instead of a dict lookup + lambda call per gate.
_OP_AND, _OP_OR, _OP_XOR, _OP_NOT, _OP_BUF = range(5)
_OPCODES = {"AND": _OP_AND, "OR": _OP_OR, "XOR": _OP_XOR,
            "NOT": _OP_NOT, "BUF": _OP_BUF}


class PackedGateSimulator:
    """Word-parallel simulator over a ``GateNetlist``.

    Every net holds a lane word: one Python-level bitwise op per gate
    simulates all ``lanes`` vectors.  Packed values are lists of lane words, LSB
    first (see the module docstring).
    """

    def __init__(self, netlist, lanes: int = LANES):
        if not 1 <= lanes <= LANES:
            raise PackedSimError(f"lanes must be in 1..{LANES}, got {lanes}")
        self.netlist = netlist
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        # Pre-encode the topological settle program once.
        self._program: list[tuple[int, int, int, int]] = []
        for gate in netlist.topo_gates():
            opcode = _OPCODES[gate.op]
            a = gate.inputs[0]
            b = gate.inputs[1] if len(gate.inputs) > 1 else a
            self._program.append((opcode, gate.output, a, b))
        self._values: list[int] = [0] * netlist.n_nets
        self._words = group_bit_labels([ff.name for ff in netlist.dffs])
        self._stale = True
        self.reset()

    # -- state --------------------------------------------------------------

    def register_words(self) -> dict[str, list[int]]:
        """Register word name -> sorted bit indices (correspondence map)."""
        return {
            name: sorted(bit for bit, _ in pairs)
            for name, pairs in self._words.items()
        }

    def input_widths(self) -> dict[str, int]:
        """Input port name -> bit width."""
        return {name: len(nets) for name, nets in self.netlist.inputs.items()}

    def reset(self) -> None:
        """Load every flop's reset value (settled on the next read)."""
        values = self._values
        mask = self.mask
        for net, value in self.netlist.const_nets.items():
            values[net] = mask if value else 0
        for ff in self.netlist.dffs:
            values[ff.q] = mask if ff.reset_value else 0
        self._stale = True

    def load_state(self, state: dict[str, list[int]]) -> None:
        """Force register words to packed per-lane values (by flop name).

        Only the flop outputs are written: the combinational nets settle
        on the next read, once for this and any writes that follow it.
        """
        dffs = self.netlist.dffs
        for name, words in state.items():
            if name not in self._words:
                raise KeyError(f"no register named {name!r} in netlist")
            for bit_index, position in self._words[name]:
                word = words[bit_index] if bit_index < len(words) else 0
                self._check_word(word)
                self._values[dffs[position].q] = word
        self._stale = True

    def get_register(self, name: str) -> list[int]:
        """Packed current value of the register word ``name``."""
        if name not in self._words:
            raise KeyError(f"no register named {name!r} in netlist")
        pairs = self._words[name]
        width = 1 + max(bit for bit, _ in pairs)
        words = [0] * width
        for bit_index, position in pairs:
            words[bit_index] = self._values[self.netlist.dffs[position].q]
        return words

    # -- stimulus -----------------------------------------------------------

    def _check_word(self, word: int) -> None:
        if not 0 <= word <= self.mask:
            raise PackedSimError(
                f"lane word {word:#x} exceeds the {self.lanes}-lane mask"
            )

    def _write_input(self, name: str, words: list[int]) -> None:
        nets = self.netlist.inputs[name]
        if len(words) != len(nets):
            raise PackedSimError(
                f"input {name!r} is {len(nets)} bits, got {len(words)} "
                "lane words"
            )
        for net, word in zip(nets, words):
            self._check_word(word)
            self._values[net] = word

    def set(self, name: str, words: list[int]) -> None:
        """Drive an input with one lane word per bit."""
        self._write_input(name, words)
        self._stale = True

    def set_many(self, values: dict[str, list[int]]) -> None:
        """Drive several inputs."""
        for name, words in values.items():
            self._write_input(name, words)
        self._stale = True

    def get(self, name: str) -> list[int]:
        """Packed value of output ``name`` (one lane word per bit)."""
        if self._stale:
            self._settle()
        values = self._values
        return [values[net] for net in self.netlist.outputs[name]]

    # -- evaluation ---------------------------------------------------------

    def _settle(self) -> None:
        values = self._values
        mask = self.mask
        for opcode, out, a, b in self._program:
            if opcode == _OP_AND:
                values[out] = values[a] & values[b]
            elif opcode == _OP_OR:
                values[out] = values[a] | values[b]
            elif opcode == _OP_XOR:
                values[out] = values[a] ^ values[b]
            elif opcode == _OP_NOT:
                values[out] = values[a] ^ mask
            else:
                values[out] = values[a]
        self._stale = False

    def step(self, cycles: int = 1) -> None:
        """Clock edges: capture D into Q (settled on the next read)."""
        values = self._values
        dffs = self.netlist.dffs
        for _ in range(cycles):
            if self._stale:
                self._settle()
            sampled = [values[ff.d] for ff in dffs]
            for ff, word in zip(dffs, sampled):
                values[ff.q] = word
            self._stale = True


# ---------------------------------------------------------------------------
# Packed mapped-netlist simulator
# ---------------------------------------------------------------------------


class PackedMappedSimulator:
    """Word-parallel simulator over a ``MappedNetlist`` of standard cells.

    ``lanes`` may be any count from 1 up: a lane word is a Python int
    of that many bits, so wider simulators cost more per bitwise
    operation but no more Python-level operations.

    Any cell pin can be *forced* per lane (:meth:`force`): lane ``l``
    then sees that pin stuck at a constant while every other lane reads
    the real net value, which is how stuck-at fault simulation packs 63
    faulty machines beside a good one in every 64-lane block of one
    wide simulator.  A force is an ``(or_mask,
    and_mask)`` pair, ``v' = (v | or_mask) & and_mask``: stuck-at-1 sets
    the lane bit in ``or_mask``, stuck-at-0 clears it in ``and_mask``.
    An input pin is stuck only in its own cell's view of the net; an
    output pin (a flop's Q included) is stuck for all its fanout.
    """

    def __init__(self, mapped, lanes: int = LANES):
        if lanes < 1:
            raise PackedSimError(f"lanes must be at least 1, got {lanes}")
        self.mapped = mapped
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        # Program entries carry the input nets arity-split (a, b, c) so
        # settle can call without *args tuple building per cell; the
        # last slot holds the cell's forces, [a_or, a_and, b_or, b_and,
        # c_or, c_and, out_or, out_and], or None.
        self._comb_cells = mapped.topo_comb()
        self._program: list[list] = []
        for inst in self._comb_cells:
            fn = packed_cell_function(inst.cell, self.mask)
            ins = [inst.pins[p] for p in inst.cell.inputs]
            a, b, c = (ins + [0, 0, 0])[:3]
            self._program.append(
                [len(ins), fn, inst.pins[inst.cell.output], a, b, c, None]
            )
        # Flop entries: [d, q, reset_value, forces]; forces is
        # [d_or, d_and, q_or, q_and] or None.
        self._seq_cells = mapped.seq_cells
        self._seq: list[list] = [
            [inst.pins["d"], inst.pins[inst.cell.output], inst.reset_value,
             None]
            for inst in self._seq_cells
        ]
        # Register word -> (bit index, flop entry) pairs, and its Q net
        # per bit index; a bit no flop carries reads the net-less key
        # -1, which always holds 0.
        self._words: dict[str, list[tuple[int, list]]] = {}
        self._word_q: dict[str, list[int]] = {}
        for name, pairs in group_bit_labels(
            [inst.tag for inst in self._seq_cells]
        ).items():
            self._words[name] = [(bit, self._seq[p]) for bit, p in pairs]
            nets = self._word_q[name] = [-1] * (
                1 + max(bit for bit, _ in pairs)
            )
            for bit, position in pairs:
                nets[bit] = self._seq[position][1]
        # One slot per net id and a last one, -1's, that nothing writes.
        self._values: list[int] = [0] * (2 + max(mapped.nets(), default=-1))
        self._forced: list[list] = []
        self._entries: dict[int, tuple] | None = None
        self._stale = True
        self.reset()

    # -- state --------------------------------------------------------------

    def register_words(self) -> dict[str, list[int]]:
        """Register word name -> sorted bit indices (correspondence map)."""
        return {
            name: sorted(bit for bit, _ in pairs)
            for name, pairs in self._words.items()
        }

    def input_widths(self) -> dict[str, int]:
        """Input port name -> bit width."""
        return {name: len(nets) for name, nets in self.mapped.inputs.items()}

    def reset(self) -> None:
        """Load every flop's (forced) reset value, settled on the next
        read."""
        values = self._values
        mask = self.mask
        for _, q, reset_value, forces in self._seq:
            word = mask if reset_value else 0
            if forces is not None:
                word = (word | forces[2]) & forces[3]
            values[q] = word
        self._stale = True

    def load_state(self, state: dict[str, list[int]]) -> None:
        """Force register words to packed per-lane values (by DFF tag).

        A forced Q pin overrides its lane.  Only the flop outputs are
        written: the combinational nets settle on the next read, once
        for this and any writes that follow it.
        """
        values = self._values
        mask = self.mask
        for name, words in state.items():
            if name not in self._words:
                raise KeyError(f"no register named {name!r} in netlist")
            width = len(words)
            for bit_index, entry in self._words[name]:
                word = words[bit_index] if bit_index < width else 0
                if not 0 <= word <= mask:
                    self._check_word(word)
                forces = entry[3]
                values[entry[1]] = word if forces is None else (
                    (word | forces[2]) & forces[3]
                )
        self._stale = True

    def get_register(self, name: str) -> list[int]:
        """Packed current value of the register word ``name``."""
        if name not in self._word_q:
            raise KeyError(f"no register named {name!r} in netlist")
        values = self._values
        return [values[q] for q in self._word_q[name]]

    # -- pin forces ---------------------------------------------------------

    def force(self, cell_index: int, pin: str, stuck_at: int,
              lane: int) -> None:
        """Stick ``pin`` of ``mapped.cells[cell_index]`` at ``stuck_at``
        in ``lane`` only.

        Writes made before the call settle without the force: a stale
        simulator settles first.  The force then takes effect from the
        next evaluation on: the settle after the next write for
        combinational pins, a clock edge for a flop's D, and the next
        :meth:`reset`, :meth:`load_state` or :meth:`step` for its Q.
        """
        if not 0 <= lane < self.lanes:
            raise PackedSimError(
                f"lane {lane} outside 0..{self.lanes - 1}"
            )
        if self._stale:
            self._settle()
        if self._entries is None:
            order = {id(inst): i for i, inst in enumerate(self.mapped.cells)}
            self._entries = {
                order[id(inst)]: (inst, entry)
                for inst, entry in (
                    *zip(self._comb_cells, self._program),
                    *zip(self._seq_cells, self._seq),
                )
            }
        inst, entry = self._entries[cell_index]
        if inst.cell.is_sequential:
            slot, pairs = (0 if pin == "d" else 2), 2
        elif pin == inst.cell.output:
            slot, pairs = 6, 4
        else:
            slot, pairs = 2 * list(inst.cell.inputs).index(pin), 4
        forces = entry[-1]
        if forces is None:
            forces = entry[-1] = [0, self.mask] * pairs
            self._forced.append(entry)
        if stuck_at:
            forces[slot] |= 1 << lane
        else:
            forces[slot + 1] &= ~(1 << lane)

    def release(self) -> None:
        """Drop every pin force; like :meth:`force`, this settles a
        stale simulator first (with the forces) and takes effect from
        the next evaluation on."""
        if self._stale:
            self._settle()
        for entry in self._forced:
            entry[-1] = None
        self._forced.clear()

    # -- stimulus -----------------------------------------------------------

    def _check_word(self, word: int) -> None:
        if not 0 <= word <= self.mask:
            raise PackedSimError(
                f"lane word {word:#x} exceeds the {self.lanes}-lane mask"
            )

    def _write_input(self, name: str, words: list[int]) -> None:
        nets = self.mapped.inputs[name]
        if len(words) != len(nets):
            raise PackedSimError(
                f"input {name!r} is {len(nets)} bits, got {len(words)} "
                "lane words"
            )
        values = self._values
        mask = self.mask
        for net, word in zip(nets, words):
            if not 0 <= word <= mask:
                self._check_word(word)
            values[net] = word

    def set(self, name: str, words: list[int]) -> None:
        self._write_input(name, words)
        self._stale = True

    def set_many(self, values: dict[str, list[int]]) -> None:
        for name, words in values.items():
            self._write_input(name, words)
        self._stale = True

    def get(self, name: str) -> list[int]:
        if self._stale:
            self._settle()
        values = self._values
        return [values[net] for net in self.mapped.outputs[name]]

    # -- evaluation ---------------------------------------------------------

    def _settle(self) -> None:
        values = self._values
        for arity, fn, out, a, b, c, forces in self._program:
            if forces is None:
                if arity == 2:
                    values[out] = fn(values[a], values[b])
                elif arity == 3:
                    values[out] = fn(values[a], values[b], values[c])
                elif arity == 1:
                    values[out] = fn(values[a])
                else:
                    values[out] = fn()
                continue
            if arity == 2:
                word = fn(
                    (values[a] | forces[0]) & forces[1],
                    (values[b] | forces[2]) & forces[3],
                )
            elif arity == 3:
                word = fn(
                    (values[a] | forces[0]) & forces[1],
                    (values[b] | forces[2]) & forces[3],
                    (values[c] | forces[4]) & forces[5],
                )
            elif arity == 1:
                word = fn((values[a] | forces[0]) & forces[1])
            else:
                word = fn()
            values[out] = (word | forces[6]) & forces[7]
        self._stale = False

    def step(self, cycles: int = 1) -> None:
        """Clock edges: capture (forced) D into (forced) Q, settled on
        the next read."""
        values = self._values
        for _ in range(cycles):
            if self._stale:
                self._settle()
            sampled = [
                (q, values[d] if f is None
                 else (((values[d] | f[0]) & f[1]) | f[2]) & f[3])
                for d, q, _, f in self._seq
            ]
            for q, word in sampled:
                values[q] = word
            self._stale = True
