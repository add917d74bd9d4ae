"""Edge-case and robustness tests across the toolkit."""

import pytest

from repro.core import (
    COMMERCIAL,
    OPEN,
    FlowError,
    FlowOptions,
    run_flow,
    timing_report,
)
from repro.hdl import ModuleBuilder, cat, mux, to_verilog
from repro.layout import GdsLibrary, GdsStruct, read_gds, write_gds
from repro.pdk import get_pdk
from repro.power import PowerAnalyzer
from repro.sim import Simulator, VcdWriter
from repro.synth import synthesize


class TestVcdScaling:
    def test_many_signals_get_unique_identifiers(self):
        # Exercise the multi-character VCD identifier generator.
        b = ModuleBuilder("wide")
        a = b.input("a", 4)
        value = a
        for i in range(80):
            value = b.wire(f"w{i}", (value + 1).trunc(4))
        b.output("y", value)
        sim = Simulator(b.build())
        vcd = VcdWriter()
        sim.attach_tracer(vcd)
        sim.set("a", 3)
        sim.step(2)
        text = vcd.render()
        idents = [
            line.split()[3]
            for line in text.splitlines()
            if line.startswith("$var")
        ]
        assert len(idents) == len(set(idents)) >= 82

    def test_unchanged_signals_not_redumped(self):
        b = ModuleBuilder("m")
        a = b.input("a", 1)
        b.output("y", ~a)
        sim = Simulator(b.build())
        vcd = VcdWriter()
        sim.attach_tracer(vcd)
        sim.step(5)  # nothing changes after the first sample
        text = vcd.render()
        sample_lines = [
            line for line in text.splitlines()
            if line and not line.startswith(("$", "#"))
        ]
        # One initial dump per signal only.
        assert len(sample_lines) == 2


class TestGdsRobustness:
    def test_unknown_records_skipped(self):
        library = GdsLibrary("lib")
        struct = library.add(GdsStruct("s"))
        struct.add_rect_um(1, 0, 0, 0, 1, 1)
        data = bytearray(write_gds(library))
        # Inject an unknown-but-well-formed record (PROPATTR, 0x2B) right
        # after the header record (6 bytes).
        unknown = bytes([0x00, 0x06, 0x2B, 0x02, 0x00, 0x01])
        data = data[:6] + unknown + data[6:]
        parsed = read_gds(bytes(data))
        assert len(parsed.struct("s").rects)

    def test_empty_library_roundtrip(self):
        parsed = read_gds(write_gds(GdsLibrary("empty")))
        assert parsed.name == "empty"
        assert parsed.structs == []


class TestFlowCorners:
    def test_violated_timing_still_reports(self):
        b = ModuleBuilder("slowpath")
        a = b.input("a", 8)
        c = b.input("c", 8)
        acc = b.register("acc", 16)
        acc.next = (acc + a * c).trunc(16)
        b.output("y", acc)
        # 1 ps period: guaranteed violation, flow must not raise.
        result = run_flow(
            b.build(), get_pdk("edu130"),
            FlowOptions(preset=OPEN, clock_period_ps=1.0, strict_drc=False),
        )
        assert not result.timing.met
        assert result.ppa.wns_ps < 0
        text = timing_report(result)
        assert "VIOLATED" in text

    def test_combinational_only_design(self):
        b = ModuleBuilder("combo")
        a = b.input("a", 8)
        b.output("y", ~a)
        result = run_flow(b.build(), get_pdk("edu180"),
                          FlowOptions(preset=OPEN))
        assert result.ok
        assert result.physical.clock_tree.stats()["sinks"] == 0

    def test_single_cell_design(self):
        b = ModuleBuilder("one")
        a = b.input("a", 1)
        b.output("y", ~a)
        result = run_flow(b.build(), get_pdk("edu130"),
                          FlowOptions(preset=OPEN))
        assert result.ok
        assert result.ppa.cell_count >= 1

    def test_commercial_preset_on_tiny_design(self):
        b = ModuleBuilder("tiny")
        a = b.input("a", 2)
        b.output("y", a ^ 0b11)
        result = run_flow(b.build(), get_pdk("edu130"),
                          FlowOptions(preset=COMMERCIAL))
        assert result.ok

    def test_failing_equivalence_raises(self, monkeypatch):
        from repro.synth import verify

        b = ModuleBuilder("m")
        a = b.input("a", 4)
        b.output("y", a + 1)
        module = b.build()

        class FakeResult:
            passed = False
            mismatches = ["injected"]

        monkeypatch.setattr(
            "repro.core.flow.synthesize",
            lambda *args, **kwargs: _fake_synth(module, FakeResult()),
        )
        with pytest.raises(FlowError, match="equivalence"):
            run_flow(module, get_pdk("edu130"), FlowOptions(preset=OPEN))


def _fake_synth(module, equivalence):
    from repro.pdk import get_pdk
    from repro.synth.synthesize import synthesize as real

    result = real(module, get_pdk("edu130").library)
    result.equivalence = equivalence
    return result


class TestPowerCorners:
    def test_extreme_input_probabilities(self):
        b = ModuleBuilder("m")
        a = b.input("a", 8)
        c = b.input("c", 8)
        b.output("y", a & c)
        mapped = synthesize(b.build(), get_pdk("edu130").library).mapped
        pdk = get_pdk("edu130")
        stuck = PowerAnalyzer(
            mapped, pdk.node, input_probabilities={"a": 0.0, "c": 1.0}
        ).analyze(100.0)
        # Constant inputs: almost no switching, only clockless leakage.
        assert stuck.dynamic_uw == pytest.approx(0.0, abs=1e-9)
        assert stuck.leakage_uw > 0

    def test_zero_frequency(self):
        b = ModuleBuilder("m")
        a = b.input("a", 4)
        b.output("y", ~a)
        mapped = synthesize(b.build(), get_pdk("edu130").library).mapped
        report = PowerAnalyzer(mapped, get_pdk("edu130").node).analyze(0.0)
        assert report.dynamic_uw == 0.0
        assert report.total_uw == report.leakage_uw


class TestEmissionCorners:
    def test_wide_constants_emit(self):
        b = ModuleBuilder("m")
        b.input("a", 1)
        b.output("y", b.const((1 << 63) - 1, 64))
        text = to_verilog(b.build())
        assert "64'd9223372036854775807" in text

    def test_deeply_nested_expression_emits(self):
        b = ModuleBuilder("m")
        a = b.input("a", 8)
        value = a
        for _ in range(30):
            value = (value + 1).trunc(8)
        b.output("y", value)
        text = to_verilog(b.build())
        assert text.count("+") == 30

    def test_cat_of_many_parts(self):
        b = ModuleBuilder("m")
        bits = [b.input(f"b{i}", 1) for i in range(16)]
        b.output("y", cat(*bits))
        sim = Simulator(b.build())
        for i in range(16):
            sim.set(f"b{i}", 1 if i == 0 else 0)
        # First cat argument is the MSB.
        assert sim.get("y") == 1 << 15


class TestSimulatorCorners:
    def test_mux_chain_deep(self):
        b = ModuleBuilder("m")
        sel = b.input("sel", 4)
        value = b.const(0, 8)
        for i in range(16):
            value = mux(sel.eq(i), b.const(i * 3, 8), value)
        b.output("y", value)
        sim = Simulator(b.build())
        for i in range(16):
            sim.set("sel", i)
            assert sim.get("y") == i * 3

    def test_peek_all_contains_wires(self):
        b = ModuleBuilder("m")
        a = b.input("a", 4)
        b.wire("intermediate", a + 1)
        b.output("y", a)
        sim = Simulator(b.build())
        assert "intermediate" in sim.peek_all()
