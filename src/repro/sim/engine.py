"""Cycle-accurate RTL simulation.

The simulator elaborates (flattens) the design, levelizes the combinational
assignments once, and then evaluates them in topological order each delta
cycle — the standard technique for synchronous single-clock designs.  It
drives the paper's "frontend productivity" story: a design written in the
HCL can be functionally verified before any backend work.
"""

from __future__ import annotations

from ..hdl.elaborate import elaborate
from ..hdl.ir import HdlError, Module, Signal, eval_expr


class Simulator:
    """Simulates a (possibly hierarchical) :class:`~repro.hdl.ir.Module`.

    Typical use::

        sim = Simulator(counter)
        sim.reset()
        sim.set("en", 1)
        sim.step(10)
        assert sim.get("q") == 10

    ``set``/``get`` address signals of the flattened design by name;
    hierarchical signals use ``<instance>.<signal>`` paths.
    """

    def __init__(self, module: Module):
        self.module = elaborate(module)
        self._by_name: dict[str, Signal] = {
            sig.name: sig for sig in self.module.signals
        }
        self._order = self.module.comb_order()
        self._inputs = frozenset(self.module.inputs)
        self._values: dict[Signal, int] = {
            sig: 0 for sig in self.module.signals
        }
        self.cycle = 0
        self._tracers: list = []
        self.reset()

    # -- signal access ------------------------------------------------------

    def _signal(self, name: str) -> Signal:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no signal {name!r}; available: "
                f"{sorted(self._by_name)[:10]}..."
            ) from None

    def _check_input(self, name: str, value: int) -> Signal:
        sig = self._signal(name)
        if sig not in self._inputs:
            raise HdlError(f"signal {name!r} is not an input port")
        if not 0 <= value <= sig.mask:
            raise HdlError(
                f"value {value} does not fit input {name!r} "
                f"({sig.width} bits)"
            )
        return sig

    def set(self, name: str, value: int) -> None:
        """Drive an input port; takes effect at the next evaluation."""
        self._values[self._check_input(name, value)] = value
        self._settle()

    def set_many(self, values: dict[str, int]) -> None:
        """Drive several input ports, settling combinational logic once.

        Equivalent to calling :meth:`set` per entry but with a single
        re-evaluation sweep — the batched path :meth:`run_vectors` uses.
        All values are validated before any is applied.
        """
        signals = [
            (self._check_input(name, value), value)
            for name, value in values.items()
        ]
        for sig, value in signals:
            self._values[sig] = value
        if signals:
            self._settle()

    def get(self, name: str) -> int:
        """Current value of any signal in the flattened design."""
        return self._values[self._signal(name)]

    def peek_all(self) -> dict[str, int]:
        """Snapshot of every signal value, keyed by flat name."""
        return {sig.name: val for sig, val in self._values.items()}

    # -- simulation ----------------------------------------------------------

    def _settle(self) -> None:
        """Re-evaluate all combinational logic in topological order."""
        for sig in self._order:
            self._values[sig] = eval_expr(
                self.module.assigns[sig], self._values
            )

    def reset(self) -> None:
        """Synchronous reset: load every register's reset value."""
        for reg in self.module.registers:
            self._values[reg.signal] = reg.reset_value
        self._settle()
        for tracer in self._tracers:
            tracer.sample(self)

    def load_state(self, state: dict[str, int]) -> None:
        """Force register words to the given values (by register name).

        Used to replay formal counterexamples, which may start from a
        state no reset-and-step sequence reaches.
        """
        by_name = {reg.signal.name: reg for reg in self.module.registers}
        for name, value in state.items():
            if name not in by_name:
                raise KeyError(f"no register named {name!r} in module")
            reg = by_name[name]
            self._values[reg.signal] = value & reg.signal.mask
        self._settle()

    def get_register(self, name: str) -> int:
        """Current value of the register word ``name``.

        Same as :meth:`get` for RTL, but checked: raises ``KeyError``
        when ``name`` is not a register.  The packed gate-level
        simulators expose the same method (one lane word per bit), so
        equivalence and replay read RTL and implementation state by
        the same name.
        """
        if not any(reg.signal.name == name for reg in self.module.registers):
            raise KeyError(f"no register named {name!r} in module")
        return self.get(name)

    def step(self, cycles: int = 1) -> None:
        """Advance ``cycles`` rising clock edges."""
        for _ in range(cycles):
            next_values = {
                reg.signal: eval_expr(reg.next, self._values)
                & reg.signal.mask
                for reg in self.module.registers
            }
            self._values.update(next_values)
            self.cycle += 1
            self._settle()
            for tracer in self._tracers:
                tracer.sample(self)

    def attach_tracer(self, tracer) -> None:
        """Register an object with a ``sample(sim)`` method (e.g. VCD)."""
        self._tracers.append(tracer)

    def run_trajectory(
        self, vectors: list[dict[str, int]], watch: list[str]
    ) -> tuple[list[dict[str, int]], list[list[int]]]:
        """Replay one input vector per cycle, recording the trajectory.

        Returns ``(states, outputs)``: ``states[c]`` is the register
        state *before* vector ``c`` was applied (so it has one more
        entry than ``vectors`` — the final post-run state), and
        ``outputs[c]`` the settled ``watch`` values under vector ``c``.
        This is the record the word-parallel equivalence fast path
        forces into the implementation simulator.

        Semantically identical to :meth:`run_vectors` plus register
        snapshots, but with a single combinational settle per cycle:
        the settle :meth:`step` runs after the register update is
        redundant here because nothing combinational is read before the
        next cycle's :meth:`set_many` re-settles.  With tracers
        attached the method falls back to the plain loop so waveform
        sampling sees fully settled values.
        """
        registers = [reg.signal for reg in self.module.registers]
        watch_sigs = [self._signal(name) for name in watch]
        values = self._values
        fast = not self._tracers
        states: list[dict[str, int]] = []
        outputs: list[list[int]] = []
        for vector in vectors:
            states.append({sig.name: values[sig] for sig in registers})
            self.set_many(vector)
            outputs.append([values[sig] for sig in watch_sigs])
            if fast:
                next_values = {
                    reg.signal: eval_expr(reg.next, values)
                    & reg.signal.mask
                    for reg in self.module.registers
                }
                values.update(next_values)
                self.cycle += 1
            else:
                self.step()
        states.append({sig.name: values[sig] for sig in registers})
        if fast and vectors:
            self._settle()  # leave combinational reads consistent
        return states, outputs

    def run_vectors(
        self, vectors: list[dict[str, int]], watch: list[str]
    ) -> list[dict[str, int]]:
        """Apply one input vector per cycle, recording ``watch`` signals.

        Each vector is applied, outputs are sampled combinationally, then
        the clock steps.  Returns one record per vector.
        """
        records: list[dict[str, int]] = []
        for vector in vectors:
            self.set_many(vector)
            records.append({name: self.get(name) for name in watch})
            self.step()
        return records
