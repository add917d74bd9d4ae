"""Differential tests for the word-parallel bit-packed simulators.

The packed engines (:mod:`repro.sim.bitsim`) are the only netlist
simulators of the toolkit: every answer they produce must be
*bit-exact* against the eager scalar simulators of ``sim_reference``.
These tests pin that down three ways:

* packing round-trips (property tests over widths 1-64);
* lockstep differential runs — packed lanes vs independent scalar
  simulators, outputs and register state, over catalogue designs and
  randomly generated modules;
* end-to-end result equality — ``check_equivalence`` must return the
  JSON of ``sim_reference``'s eager lockstep loop with both
  ``engine="scalar"`` and ``engine="packed"``, for passing designs,
  seeded must-fail mutations and a run cut at the mismatch cap, and
  batched LEC replay must agree with scalar replay witness by witness.

Per-lane pin forces (the fault-simulation hook of the mapped engine)
must touch only their own lane, and a mapped simulator wider than 64
lanes must equal one 64-lane simulator per block.  Settling on read
must be invisible: every read agrees with a simulator that settles
after every write.
"""

import importlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal import check_lec, mutate_netlist, replay_counterexamples
from repro.hdl import ModuleBuilder, mux
from repro.ip.catalog import generate
from repro.pdk import get_pdk
from repro.sim import Simulator
from repro.sim.bitsim import (
    LANES,
    PackedGateSimulator,
    PackedMappedSimulator,
    PackedSimError,
    broadcast_word,
    extract_lane,
    extract_lane_vector,
    pack_word,
    unpack_word,
)
from repro.synth import check_equivalence, lower, optimize, synthesize
from repro.synth.dft import _draw_table, fault_sites, insert_scan_chain
from repro.synth.verify import MISMATCH_CAP, replay_mismatches

from sim_reference import (
    GateSimulator,
    MappedSimulator,
    check_equivalence_scalar,
    replay_counterexample_scalar,
)

#: The bit-blaster's module (the package re-exports its ``lower``
#: function under the same name).
lower_module = importlib.import_module("repro.synth.lower")


@pytest.fixture(scope="module")
def library():
    return get_pdk("edu130").library


# ---------------------------------------------------------------------------
# Packing helpers
# ---------------------------------------------------------------------------


class TestPackingRoundTrip:
    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.integers(min_value=0, max_value=2 ** width - 1),
                    min_size=1,
                    max_size=LANES,
                ),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_extract_lane_round_trips_pack(self, width_and_values):
        width, values = width_and_values
        words = pack_word(values, width)
        assert len(words) == width
        for lane, value in enumerate(values):
            assert extract_lane(words, lane) == value
        # Lanes beyond the packed vectors read as zero.
        assert unpack_word(words)[len(values):] == [0] * (
            LANES - len(values)
        )

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_broadcast_is_pack_of_identical_lanes(self, width, value):
        value &= (1 << width) - 1
        assert broadcast_word(value, width) == pack_word(
            [value] * LANES, width
        )

    def test_pack_rejects_too_many_lanes(self):
        with pytest.raises(PackedSimError):
            pack_word([0] * (LANES + 1), 4)

    def test_extract_lane_vector_localizes_mismatch(self):
        packed = {"a": pack_word([3, 5, 9], 4), "b": pack_word([1, 0, 7], 3)}
        assert extract_lane_vector(packed, 1) == {"a": 5, "b": 0}


# ---------------------------------------------------------------------------
# Lockstep differential: packed lanes vs scalar simulators
# ---------------------------------------------------------------------------


def random_stimulus(module, rng, cycles, lanes):
    """Per-cycle packed stimulus plus the per-lane scalar views."""
    widths = {signal.name: signal.width for signal in module.inputs}
    packed, scalar = [], []
    for _ in range(cycles):
        lane_vectors = [
            {name: rng.getrandbits(width) for name, width in widths.items()}
            for _ in range(lanes)
        ]
        packed.append({
            name: pack_word([v[name] for v in lane_vectors], width)
            for name, width in widths.items()
        })
        scalar.append(lane_vectors)
    return packed, scalar


def run_differential(module, packed_sim, scalar_sims, rng, cycles=16):
    """Drive packed and scalar sims in lockstep, compare everything."""
    lanes = len(scalar_sims)
    packed_stim, scalar_stim = random_stimulus(module, rng, cycles, lanes)
    watch = [signal.name for signal in module.outputs]
    for cycle in range(cycles):
        packed_sim.set_many(packed_stim[cycle])
        for lane, sim in enumerate(scalar_sims):
            sim.set_many(scalar_stim[cycle][lane])
        for name in watch:
            got = packed_sim.get(name)
            for lane, sim in enumerate(scalar_sims):
                assert extract_lane(got, lane) == sim.get(name), (
                    f"{name} diverged at cycle {cycle} lane {lane}"
                )
        packed_sim.step()
        for sim in scalar_sims:
            sim.step()
    for name in packed_sim.register_words():
        packed_value = packed_sim.get_register(name)
        for lane, sim in enumerate(scalar_sims):
            assert extract_lane(packed_value, lane) == sim.get_register(name)


DIFF_DESIGNS = ("counter", "gray_counter", "lfsr", "alu", "uart_tx")


class TestLockstepDifferential:
    @pytest.mark.parametrize("name", DIFF_DESIGNS)
    def test_packed_rtl_matches_scalar_simulator(self, name):
        module = generate(name).module
        rng = random.Random(7)
        # RTL runs packed as its lowered netlist; the scalar reference
        # is the RTL interpreter, so this also cross-checks lowering.
        packed = PackedGateSimulator(lower(module))
        scalars = [Simulator(module) for _ in range(8)]
        run_differential(module, packed, scalars, rng)

    @pytest.mark.parametrize("name", DIFF_DESIGNS)
    def test_packed_gate_matches_scalar_gate(self, name):
        module = generate(name).module
        netlist, _ = optimize(lower(module))
        rng = random.Random(11)
        packed = PackedGateSimulator(netlist)
        scalars = [GateSimulator(netlist) for _ in range(8)]
        run_differential(module, packed, scalars, rng)

    @pytest.mark.parametrize("name", DIFF_DESIGNS)
    def test_packed_mapped_matches_scalar_mapped(self, name, library):
        module = generate(name).module
        mapped = synthesize(module, library, verify=False).mapped
        rng = random.Random(13)
        packed = PackedMappedSimulator(mapped)
        scalars = [MappedSimulator(mapped) for _ in range(8)]
        run_differential(module, packed, scalars, rng)

    def test_random_modules_differential(self, library):
        """Randomly generated datapaths, packed vs scalar, all layers."""
        for seed in range(6):
            module = build_random_module(seed)
            rng = random.Random(seed + 100)
            packed = PackedGateSimulator(lower(module))
            scalars = [Simulator(module) for _ in range(4)]
            run_differential(module, packed, scalars, rng, cycles=8)
            mapped = synthesize(module, library, verify=False).mapped
            rng = random.Random(seed + 200)
            packed = PackedMappedSimulator(mapped)
            scalars = [MappedSimulator(mapped) for _ in range(4)]
            run_differential(module, packed, scalars, rng, cycles=8)

    def test_partial_lane_counts(self):
        module = generate("counter").module
        packed = PackedGateSimulator(lower(module), lanes=3)
        scalars = [Simulator(module) for _ in range(3)]
        run_differential(module, packed, scalars, random.Random(3), cycles=6)

    def test_load_state_round_trip(self):
        module = generate("counter").module
        packed = PackedGateSimulator(lower(module))
        values = [i * 5 % 256 for i in range(LANES)]
        packed.load_state({"count": pack_word(values, 8)})
        assert unpack_word(packed.get_register("count")) == values


def build_random_module(seed):
    """A random small datapath: registers, muxes, arithmetic, slicing."""
    rng = random.Random(seed)
    b = ModuleBuilder(f"rand{seed}")
    width = rng.choice((3, 5, 8))
    a = b.input("a", width)
    c = b.input("c", width)
    sel = b.input("sel", 1)
    acc = b.register("acc", width)
    shift = b.register("shift", width)
    combine = rng.choice((
        lambda x, y: (x + y).trunc(width),
        lambda x, y: x ^ y,
        lambda x, y: (x & y) | (x ^ y),
    ))
    acc.next = mux(sel, combine(acc, a), acc)
    shift.next = combine(shift, c) ^ a
    b.output("y", combine(acc, shift))
    b.output("msb", acc[width - 1])
    return b.build()


# ---------------------------------------------------------------------------
# End to end: check_equivalence must not change its answers
# ---------------------------------------------------------------------------


EQUIV_DESIGNS = ("counter", "gray_counter", "alu", "uart_tx", "fir")


class TestEquivalenceEngines:
    @pytest.mark.parametrize("name", EQUIV_DESIGNS)
    def test_passing_results_byte_identical(self, name, library):
        module = generate(name).module
        for impl in (
            lower(module),
            synthesize(module, library, verify=False).mapped,
        ):
            scalar = check_equivalence(
                module, impl, cycles=96, seed=5, engine="scalar")
            packed = check_equivalence(
                module, impl, cycles=96, seed=5, engine="packed")
            assert scalar.passed
            assert packed.to_json() == scalar.to_json()

    def test_mutated_netlists_byte_identical(self, library):
        """Must-fail path: mismatch records match field for field."""
        module = generate("counter").module
        mapped = synthesize(module, library, verify=False).mapped
        failing = 0
        for seed in range(10):
            mutant, _ = mutate_netlist(mapped, seed=seed)
            scalar = check_equivalence(
                module, mutant, cycles=96, seed=5, engine="scalar")
            packed = check_equivalence(
                module, mutant, cycles=96, seed=5, engine="packed")
            assert packed.to_json() == scalar.to_json()
            if not scalar.passed:
                failing += 1
                assert packed.mismatches  # records survived the fallback
        assert failing, "no mutation produced a detectable mismatch"

    def test_auto_engine_matches_scalar(self, library):
        # The default engine (packed) answers exactly as the scalar one.
        module = generate("lfsr").module
        mapped = synthesize(module, library, verify=False).mapped
        default = check_equivalence(module, mapped, cycles=64, seed=9)
        scalar = check_equivalence(
            module, mapped, cycles=64, seed=9, engine="scalar")
        assert default.to_json() == scalar.to_json()

    def test_unknown_engine_rejected(self, library):
        module = generate("counter").module
        for engine in ("simd", "auto"):
            with pytest.raises(ValueError, match="'scalar' or 'packed'"):
                check_equivalence(module, lower(module), engine=engine)

    def test_result_json_records_mismatch_cap(self, library):
        module = generate("counter").module
        result = check_equivalence(module, lower(module), cycles=16)
        parsed = type(result).from_json(result.to_json())
        assert parsed.mismatch_cap == result.mismatch_cap == 10


ENGINES = ("scalar", "packed")


def assert_engines_match_the_eager_loop(module, impl, cycles=96, seed=5):
    """Both engines return the eager lockstep loop's JSON; returns that
    reference result."""
    expected = check_equivalence_scalar(module, impl, cycles, seed)
    for engine in ENGINES:
        got = check_equivalence(
            module, impl, cycles=cycles, seed=seed, engine=engine)
        assert got.to_json() == expected.to_json(), engine
    return expected


class TestEquivalenceOracle:
    """Both engines against ``sim_reference``'s eager lockstep loop,
    the code ``engine="scalar"`` ran before it moved onto one packed
    lane."""

    @pytest.mark.parametrize("name", EQUIV_DESIGNS)
    def test_catalogue_matches_the_eager_loop(self, name, library):
        module = generate(name).module
        for impl in (
            lower(module),
            optimize(lower(module))[0],
            synthesize(module, library, verify=False).mapped,
        ):
            assert assert_engines_match_the_eager_loop(module, impl).passed

    def test_mutants_match_the_eager_loop(self, library):
        """24 seeded mutants of gate and mapped netlists; the failing
        ones carry the implementation's diverged register snapshots."""
        failing = snapshots = 0
        for name in ("counter", "gray_counter", "uart_tx", "fir"):
            module = generate(name).module
            for design in (
                lower(module),
                synthesize(module, library, verify=False).mapped,
            ):
                for seed in range(3):
                    mutant, _ = mutate_netlist(design, seed=seed)
                    expected = assert_engines_match_the_eager_loop(
                        module, mutant)
                    failing += not expected.passed
                    snapshots += sum(
                        1 for m in expected.mismatches if m.gate_state
                    )
        assert failing >= 12, failing
        assert snapshots, "no mismatch recorded a diverged gate_state"

    def test_a_run_cut_at_the_cap_matches(self, library):
        module = generate("counter").module
        mutant, _ = mutate_netlist(lower(module), seed=0)
        expected = assert_engines_match_the_eager_loop(module, mutant)
        assert len(expected.mismatches) == MISMATCH_CAP
        assert expected.cycles < 96


class TestEquivalencePortErrors:
    """A port the implementation lacks or narrows fails with one
    message, whatever the netlist kind and the engine."""

    @pytest.fixture(params=["lower", "mapped"])
    def alu(self, request, library):
        module = generate("alu").module
        if request.param == "lower":
            return module, lower(module)
        return module, synthesize(module, library, verify=False).mapped

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_missing_input_is_named(self, alu, engine):
        module, impl = alu
        del impl.inputs["b"]
        for cycles in (64, 0):
            with pytest.raises(
                KeyError, match="implementation has no input named 'b'"
            ):
                check_equivalence(module, impl, cycles=cycles, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_missing_output_is_named(self, alu, engine):
        module, impl = alu
        del impl.outputs["zero"]
        for cycles in (64, 0):
            with pytest.raises(
                KeyError, match="implementation has no output named 'zero'"
            ):
                check_equivalence(module, impl, cycles=cycles, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_over_wide_value_fails_at_its_cycle(self, alu, engine):
        """Seed 5 draws ``op`` 0, 0, 5: the third cycle's value is the
        first that a 1-bit port cannot take."""
        module, impl = alu
        impl.inputs["op"] = impl.inputs["op"][:1]
        with pytest.raises(ValueError) as caught:
            check_equivalence(module, impl, seed=5, engine=engine)
        assert str(caught.value) == "value 5 does not fit input 'op' (1 bits)"


# ---------------------------------------------------------------------------
# Batched LEC replay vs scalar replay
# ---------------------------------------------------------------------------


def refuted_mutants(module, design, seeds=range(8)):
    """``(mutant, counterexamples)`` for every seed the prover refutes."""
    for seed in seeds:
        mutant, _ = mutate_netlist(design, seed=seed)
        result = check_lec(module, mutant)
        if not result.equivalent:
            yield mutant, result.counterexamples


class TestBatchedReplay:
    def test_batch_matches_scalar_witness_by_witness(self, library):
        module = generate("counter").module
        synth = synthesize(module, library, verify=False)
        checked = 0
        for design in (synth.netlist, synth.mapped):
            for mutant, cexes in refuted_mutants(module, design):
                scalar = [
                    replay_counterexample_scalar(module, mutant, cex)
                    for cex in cexes
                ]
                # One witness, the natural batch, and two lane chunks.
                for batch in ([cexes[0]], cexes, (cexes * 70)[:70]):
                    packed = replay_counterexamples(module, mutant, batch)
                    expected = (scalar * 70)[:len(batch)]
                    assert [m and m.to_dict() for m in packed] == [
                        m and m.to_dict() for m in expected
                    ]
                    checked += len(batch)
        assert checked, "no mutation yielded replayable counterexamples"

    def test_reset_kind_rejected(self, library):
        module = generate("counter").module
        mapped = synthesize(module, library, verify=False).mapped
        mutant, _ = mutate_netlist(mapped, seed=0)
        result = check_lec(module, mutant)
        if result.equivalent or not result.counterexamples:
            pytest.skip("seed 0 mutation was benign")
        cex = result.counterexamples[0]
        fake = type(cex)(
            cone=cex.cone, kind="reset", inputs=cex.inputs,
            state=cex.state, expect=cex.expect, got=cex.got,
        )
        with pytest.raises(ValueError):
            replay_counterexamples(module, mutant, [fake])

    @pytest.mark.parametrize("bad_inputs, error, message", [
        ({"en": 2}, ValueError, "value 2 does not fit input 'en' (1 bits)"),
        ({"x": 0}, KeyError, "no input named 'x' to replay into"),
    ])
    def test_bad_witness_fails_the_same_at_every_batch_size(
        self, library, bad_inputs, error, message
    ):
        module = generate("counter").module
        mapped = synthesize(module, library, verify=False).mapped
        mutant, cexes = next(refuted_mutants(module, mapped))
        bad = replace(cexes[0], inputs=bad_inputs)
        for batch in ([bad], [bad] + cexes * 3):
            with pytest.raises(error) as caught:
                replay_counterexamples(module, mutant, batch)
            assert message in str(caught.value)
        with pytest.raises(error) as caught:
            replay_mismatches(module, mutant, [bad.as_mismatch()])
        assert message in str(caught.value)

    def test_replay_does_not_use_the_lowerer(self, library, monkeypatch):
        module = generate("counter").module
        mapped = synthesize(module, library, verify=False).mapped
        mutant, cexes = next(refuted_mutants(module, mapped))
        batch = (cexes * 4)[:4]
        expected = [
            replay_counterexample_scalar(module, mutant, cex)
            for cex in batch
        ]

        def no_lowering(module):
            raise AssertionError("replay lowered the RTL")

        monkeypatch.setattr(lower_module, "lower", no_lowering)
        got = replay_counterexamples(module, mutant, batch)
        assert [m and m.to_dict() for m in got] == [
            m and m.to_dict() for m in expected
        ]


# ---------------------------------------------------------------------------
# Per-lane pin forces on the mapped engine
# ---------------------------------------------------------------------------


class TestPinForces:
    def run_lanes(self, sim, module, vector):
        """Drive one scalar vector into every lane; per-lane outputs."""
        sim.reset()
        sim.set_many({
            sig.name: broadcast_word(vector[sig.name], sig.width, sim.mask)
            for sig in module.inputs
        })
        sim.step()
        return {
            name: unpack_word(sim.get(name), sim.lanes)
            for name in sim.mapped.outputs
        }

    def test_force_changes_only_its_lane_and_release_restores(
        self, library
    ):
        module = generate("alu").module
        mapped = synthesize(module, library, verify=False).mapped
        sim = PackedMappedSimulator(mapped, lanes=8)
        vector = {sig.name: 0 for sig in module.inputs}
        good = self.run_lanes(sim, module, vector)
        assert all(len(set(lanes)) == 1 for lanes in good.values())
        changed = 0
        for index, inst in enumerate(mapped.cells):
            pin = inst.cell.output
            if pin is None:
                continue
            for stuck in (0, 1):
                sim.force(index, pin, stuck, lane=5)
                faulty = self.run_lanes(sim, module, vector)
                for name, lanes in faulty.items():
                    assert lanes[:5] + lanes[6:] == good[name][:5] + (
                        good[name][6:]
                    )
                changed += faulty != good
                sim.release()
                assert self.run_lanes(sim, module, vector) == good
        assert changed, "no output-pin force reached an output"

    def test_flop_forces_hold_through_reset_and_capture(self, library):
        module = generate("counter").module
        mapped = synthesize(module, library, verify=False).mapped
        sim = PackedMappedSimulator(mapped, lanes=4)
        flop = next(
            i for i, inst in enumerate(mapped.cells)
            if inst.tag == "count[0]"
        )
        sim.force(flop, mapped.cells[flop].cell.output, 1, lane=2)
        sim.reset()
        assert sim.get_register("count")[0] == 0b0100
        sim.step(3)
        assert (sim.get_register("count")[0] >> 2) & 1
        sim.release()
        sim.reset()
        assert sim.get_register("count")[0] == 0

    def test_force_rejects_a_lane_out_of_range(self, library):
        module = generate("counter").module
        mapped = synthesize(module, library, verify=False).mapped
        sim = PackedMappedSimulator(mapped, lanes=4)
        with pytest.raises(PackedSimError):
            sim.force(0, mapped.cells[0].cell.output, 1, lane=4)


# ---------------------------------------------------------------------------
# Wide simulators: 64-lane blocks of one word
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def uart_scan(library):
    """uart_tx mapped with its scan chain: flops, muxes, several ports."""
    mapped = synthesize(generate("uart_tx").module, library,
                        verify=False).mapped
    insert_scan_chain(mapped)
    return mapped


def join_blocks(words):
    """One wide lane word from per-block words, block 0 lowest."""
    return sum(word << (LANES * block) for block, word in enumerate(words))


class TestWideLanes:
    @pytest.mark.parametrize("lanes", [64, 128, 192, 256, 100])
    def test_a_wide_simulator_is_independent_blocks(self, uart_scan, lanes):
        """A ``lanes``-wide simulator equals one simulator per 64-lane
        block (the last one narrower), force for force and read for
        read, through reset, load_state and step."""
        mapped = uart_scan
        rng = random.Random(lanes)
        wide = PackedMappedSimulator(mapped, lanes=lanes)
        widths = [min(LANES, lanes - start)
                  for start in range(0, lanes, LANES)]
        blocks = [PackedMappedSimulator(mapped, lanes=w) for w in widths]
        sites = fault_sites(mapped)
        flops = {i for i, inst in enumerate(mapped.cells)
                 if inst.cell.is_sequential}
        # Every kind of pin: comb inputs and outputs, flop D and Q.
        picked = rng.sample(sites, 40) + [
            s for s in sites if s.cell_index in flops
        ][:8]
        assert {s.pin for s in picked} >= {"a", "y", "d", "q"}
        for site in picked:
            lane = rng.randrange(lanes)
            wide.force(site.cell_index, site.pin, site.stuck_at, lane)
            blocks[lane // LANES].force(
                site.cell_index, site.pin, site.stuck_at, lane % LANES
            )
        inputs = wide.input_widths()
        registers = {name: 1 + max(bits)
                     for name, bits in wide.register_words().items()}

        def drive(write, widths_by_name):
            per_block = [
                {name: [rng.getrandbits(w) for _ in range(width)]
                 for name, width in widths_by_name.items()}
                for w in widths
            ]
            write(wide, {
                name: [join_blocks(bits) for bits in zip(
                    *(values[name] for values in per_block)
                )]
                for name in widths_by_name
            })
            for sim, values in zip(blocks, per_block):
                write(sim, values)

        def same():
            for name in mapped.outputs:
                assert wide.get(name) == [
                    join_blocks(bits)
                    for bits in zip(*(sim.get(name) for sim in blocks))
                ], name
            for name in registers:
                assert wide.get_register(name) == [
                    join_blocks(bits)
                    for bits in zip(*(s.get_register(name) for s in blocks))
                ], name

        for sim in (wide, *blocks):
            sim.reset()
        same()
        for cycle in range(12):
            if cycle % 3 == 1:
                drive(type(wide).load_state, registers)
            drive(type(wide).set_many, inputs)
            same()
            for sim in (wide, *blocks):
                sim.step()
            same()

    @pytest.mark.parametrize("lanes", [0, -1])
    def test_no_lanes_is_rejected(self, uart_scan, lanes):
        with pytest.raises(PackedSimError):
            PackedMappedSimulator(uart_scan, lanes=lanes)

    @pytest.mark.parametrize("count", [0, 1, 2, 33, 1000])
    def test_a_bulk_draw_is_one_bit_draws(self, count):
        """``getrandbits(32 * n)`` takes n generator outputs, the first
        lowest, and ``getrandbits(1)`` is an output's top bit: the fault
        simulator's draw table relies on both."""
        bulk, single = random.Random(count), random.Random(count)
        word = bulk.getrandbits(32 * count)
        assert [(word >> (32 * i + 31)) & 1 for i in range(count)] == [
            single.getrandbits(1) for _ in range(count)
        ]
        assert bulk.getstate() == single.getstate()

    def test_the_draw_table_interleaves_blocks(self):
        table = _draw_table(random.Random(3), blocks=3, count=50)
        rng = random.Random(3)
        for block in range(3):
            for i in range(50):
                assert table[3 * i + block] == 0xFF * rng.getrandbits(1)


# ---------------------------------------------------------------------------
# Settle on read: lazy reads agree with settling after every write
# ---------------------------------------------------------------------------


class _Eager:
    """Settles after every write, so no read ever finds it stale."""

    def set(self, name, words):
        super().set(name, words)
        self._settle()

    def set_many(self, values):
        super().set_many(values)
        self._settle()

    def load_state(self, state):
        super().load_state(state)
        self._settle()

    def reset(self):
        super().reset()
        self._settle()

    def step(self, cycles=1):
        for _ in range(cycles):
            super().step()
            self._settle()


class EagerGateSimulator(_Eager, PackedGateSimulator):
    pass


class EagerMappedSimulator(_Eager, PackedMappedSimulator):
    pass


SETTLE_LANES = 8


@pytest.fixture(scope="module")
def settle_designs(library):
    """(simulator class, eager twin, netlist) per case; the fir is
    mapped with its scan chain inserted."""
    counter = generate("counter").module
    alu = generate("alu").module
    fir = synthesize(generate("fir").module, library, verify=False).mapped
    insert_scan_chain(fir)
    return {
        "gate-counter": (PackedGateSimulator, EagerGateSimulator,
                         optimize(lower(counter))[0]),
        "gate-alu": (PackedGateSimulator, EagerGateSimulator,
                     optimize(lower(alu))[0]),
        "mapped-counter": (PackedMappedSimulator, EagerMappedSimulator,
                           synthesize(counter, library, verify=False).mapped),
        "mapped-alu": (PackedMappedSimulator, EagerMappedSimulator,
                       synthesize(alu, library, verify=False).mapped),
        "mapped-fir-scan": (PackedMappedSimulator, EagerMappedSimulator,
                            fir),
    }


class TestSettleOnRead:
    @pytest.mark.parametrize("case", [
        "gate-counter", "gate-alu",
        "mapped-counter", "mapped-alu", "mapped-fir-scan",
    ])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_read_matches_an_eager_simulator(
        self, settle_designs, case, data
    ):
        cls, eager_cls, netlist = settle_designs[case]
        lazy = cls(netlist, lanes=SETTLE_LANES)
        eager = eager_cls(netlist, lanes=SETTLE_LANES)
        word = st.integers(min_value=0, max_value=lazy.mask)
        inputs = lazy.input_widths()
        registers = {
            name: 1 + max(bits)
            for name, bits in lazy.register_words().items()
        }
        outputs = sorted(netlist.outputs)
        ops = ["set", "set_many", "reset", "step", "get"]
        if registers:
            ops += ["load_state", "get_register"]
        if cls is PackedMappedSimulator:
            sites = fault_sites(netlist)
            ops += ["force", "release"]

        def words(width):
            return data.draw(st.lists(word, min_size=width, max_size=width))

        def some(names):
            return data.draw(st.lists(
                st.sampled_from(sorted(names)), min_size=1, unique=True
            ))

        for _ in range(data.draw(st.integers(min_value=1, max_value=24))):
            op = data.draw(st.sampled_from(ops))
            if op == "set":
                name = data.draw(st.sampled_from(sorted(inputs)))
                args = (name, words(inputs[name]))
            elif op == "set_many":
                args = ({name: words(inputs[name]) for name in some(inputs)},)
            elif op == "load_state":
                args = ({
                    name: words(registers[name]) for name in some(registers)
                },)
            elif op == "step":
                args = (data.draw(st.integers(min_value=1, max_value=3)),)
            elif op == "get":
                args = (data.draw(st.sampled_from(outputs)),)
            elif op == "get_register":
                args = (data.draw(st.sampled_from(sorted(registers))),)
            elif op == "force":
                site = data.draw(st.sampled_from(sites))
                lane = data.draw(st.integers(0, SETTLE_LANES - 1))
                args = (site.cell_index, site.pin, site.stuck_at, lane)
            else:
                args = ()
            got = getattr(lazy, op)(*args)
            want = getattr(eager, op)(*args)
            assert got == want, f"{op}{args}"
        for name in outputs:
            assert lazy.get(name) == eager.get(name), name
        for name in registers:
            assert lazy.get_register(name) == eager.get_register(name), name
