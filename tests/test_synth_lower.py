"""Tests for bit-blasting: every operator is checked against RTL semantics."""

import pytest

from repro.hdl import ModuleBuilder, cat, mux
from repro.synth import check_equivalence, lower

from sim_reference import GateSimulator


def lower_and_sim(module):
    return GateSimulator(lower(module))


def binary_module(fn, wa=6, wb=6, name="m"):
    b = ModuleBuilder(name)
    a = b.input("a", wa)
    c = b.input("c", wb)
    b.output("y", fn(a, c))
    return b.build()


class TestCombLowering:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda a, c: a + c,
            lambda a, c: a - c,
            lambda a, c: a * c,
            lambda a, c: a & c,
            lambda a, c: a | c,
            lambda a, c: a ^ c,
            lambda a, c: a.eq(c),
            lambda a, c: a.ne(c),
            lambda a, c: a.lt(c),
            lambda a, c: a.le(c),
            lambda a, c: a.gt(c),
            lambda a, c: a.ge(c),
            lambda a, c: a << c[2:0],
            lambda a, c: a >> c[2:0],
            lambda a, c: mux(a[0], a + c, a - c),
            lambda a, c: cat(a[3:0], c[5:2]),
            lambda a, c: ~a | -c,
            lambda a, c: a.reduce_and() ^ c.reduce_or() ^ a.reduce_xor(),
        ],
        ids=[
            "add", "sub", "mul", "and", "or", "xor", "eq", "ne", "lt", "le",
            "gt", "ge", "shl_var", "shr_var", "mux", "cat_slice", "not_neg",
            "reductions",
        ],
    )
    def test_operator_equivalence(self, fn):
        module = binary_module(fn)
        result = check_equivalence(module, lower(module), cycles=50)
        assert result.passed, result.mismatches[:3]

    def test_mixed_width_operands(self):
        b = ModuleBuilder("m")
        a = b.input("a", 9)
        c = b.input("c", 3)
        b.output("y", (a + c) ^ (a & c))
        module = b.build()
        assert check_equivalence(module, lower(module), cycles=50).passed

    def test_const_shift(self):
        b = ModuleBuilder("m")
        a = b.input("a", 8)
        b.output("y", (a << 3) | (a >> 2))
        module = b.build()
        assert check_equivalence(module, lower(module), cycles=50).passed

    def test_overshift_constant(self):
        b = ModuleBuilder("m")
        a = b.input("a", 4)
        b.output("y", a << 9)
        module = b.build()
        sim = lower_and_sim(module)
        sim.set("a", 0xF)
        assert sim.get("y") == 0

    def test_mul_full_width(self):
        b = ModuleBuilder("m")
        a = b.input("a", 4)
        c = b.input("c", 4)
        b.output("y", a * c)
        sim = lower_and_sim(b.build())
        sim.set("a", 15)
        sim.set("c", 15)
        assert sim.get("y") == 225


class TestSequentialLowering:
    def test_counter_equivalence(self):
        b = ModuleBuilder("counter")
        en = b.input("en", 1)
        count = b.register("count", 8)
        count.next = mux(en, count + 1, count)
        b.output("q", count)
        module = b.build()
        assert check_equivalence(module, lower(module), cycles=100).passed

    def test_reset_values_carried(self):
        b = ModuleBuilder("m")
        r = b.register("r", 8, reset=0xA5)
        r.next = r
        b.output("q", r)
        sim = lower_and_sim(b.build())
        assert sim.get("q") == 0xA5

    def test_lfsr_equivalence(self):
        b = ModuleBuilder("lfsr")
        state = b.register("state", 8, reset=1)
        feedback = state[7] ^ state[5] ^ state[4] ^ state[3]
        state.next = cat(state[6:0], feedback)
        b.output("q", state)
        module = b.build()
        assert check_equivalence(module, lower(module), cycles=300).passed

    def test_hierarchical_design_lowered(self):
        leaf_b = ModuleBuilder("leaf")
        d = leaf_b.input("d", 4)
        q = leaf_b.register("q", 4)
        q.next = d
        leaf_b.output("out", q)
        leaf = leaf_b.build()

        b = ModuleBuilder("top")
        d = b.input("d", 4)
        s0 = b.instance("s0", leaf, d=d)
        s1 = b.instance("s1", leaf, d=s0["out"])
        b.output("q", s1["out"])
        module = b.build()
        netlist = lower(module)
        assert len(netlist.dffs) == 8
        assert check_equivalence(module, netlist, cycles=50).passed


class TestNetlistStructure:
    def test_stats_and_depth(self):
        module = binary_module(lambda a, c: a + c)
        netlist = lower(module)
        stats = netlist.stats()
        assert stats["gates"] > 10
        assert stats["depth"] >= 6  # ripple chain through 6 bits

    def test_fanout_counts_outputs(self):
        b = ModuleBuilder("m")
        a = b.input("a", 1)
        b.output("y", ~a)
        b.output("z", ~a)
        netlist = lower(b.build())
        fanout = netlist.fanout()
        not_gate_out = netlist.outputs["y"][0]
        assert fanout[not_gate_out] >= 1

    def test_topo_rejects_loop(self):
        from repro.synth.netlist import Gate, GateNetlist

        nl = GateNetlist("loop")
        n1, n2 = nl.new_net(), nl.new_net()
        nl.gates.append(Gate("NOT", (n1,), n2))
        nl.gates.append(Gate("NOT", (n2,), n1))
        with pytest.raises(ValueError, match="loop"):
            nl.topo_gates()

    def test_gate_arity_checked(self):
        from repro.synth.netlist import Gate

        with pytest.raises(ValueError):
            Gate("AND", (1,), 2)
        with pytest.raises(ValueError):
            Gate("NOT", (1, 2), 3)
        with pytest.raises(ValueError):
            Gate("NAND", (1, 2), 3)
