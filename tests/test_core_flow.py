"""Tests for the end-to-end flow runner and presets."""

import gc

import pytest

from repro.core import (
    COMMERCIAL,
    OPEN,
    FlowError,
    FlowOptions,
    FlowStep,
    get_preset,
    run_flow,
)
from repro.hdl import ModuleBuilder, mux
from repro.layout import read_gds
from repro.pdk import get_pdk


def build_counter(width=8):
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    count = b.register("count", width)
    count.next = mux(en, count + 1, count)
    b.output("q", count)
    return b.build()


def build_datapath():
    b = ModuleBuilder("datapath")
    a = b.input("a", 8)
    c = b.input("c", 8)
    acc = b.register("acc", 16)
    acc.next = (acc + a * c).trunc(16)
    b.output("y", acc)
    return b.build()


@pytest.fixture(scope="module")
def counter_flow():
    return run_flow(build_counter(), get_pdk("edu130"),
                    FlowOptions(preset=OPEN))


class TestRunFlow:
    def test_flow_completes(self, counter_flow):
        assert counter_flow.ok
        assert "OK" in counter_flow.summary()

    def test_all_steps_reported(self, counter_flow):
        reported = {report.step for report in counter_flow.steps}
        for step in (
            FlowStep.RTL_DESIGN, FlowStep.SYNTHESIS, FlowStep.PLACEMENT,
            FlowStep.ROUTING, FlowStep.STATIC_TIMING_ANALYSIS,
            FlowStep.POWER_ANALYSIS, FlowStep.DESIGN_RULE_CHECK,
            FlowStep.GDS_EXPORT,
        ):
            assert step in reported

    def test_gds_is_valid(self, counter_flow):
        library = read_gds(counter_flow.gds_bytes)
        assert any(s.name == "counter" for s in library.structs)

    def test_equivalence_checked(self, counter_flow):
        report = counter_flow.step(FlowStep.EQUIVALENCE_CHECK)
        assert report.ok
        assert report.metrics["checked"]

    def test_ppa_summary_consistent(self, counter_flow):
        ppa = counter_flow.ppa
        assert ppa.area_um2 > 0
        assert ppa.fmax_mhz > 0
        assert ppa.cell_count == len(counter_flow.synthesis.mapped.cells)
        row = ppa.as_row()
        assert set(row) == {"cells", "area_um2", "die_mm2", "fmax_mhz",
                            "power_uw", "wns_ps"}

    def test_drc_clean(self, counter_flow):
        assert counter_flow.drc.clean

    def test_missing_step_lookup(self, counter_flow):
        with pytest.raises(KeyError):
            counter_flow.step(FlowStep.TAPEOUT)

    def test_flow_leaves_no_cyclic_garbage(self):
        # Reference counting alone frees what a flow drops: nothing it
        # allocated (GDS structs, spans, solver lists) waits for a full
        # collection.
        module, pdk = build_counter(), get_pdk("edu130")
        gc.collect()
        gc.disable()
        try:
            result = run_flow(module, pdk, FlowOptions(extract_lvs=True))
            garbage = gc.collect()
        finally:
            gc.enable()
        assert result.ok
        assert garbage == 0


class TestPresets:
    def test_get_preset(self):
        assert get_preset("open") is OPEN
        assert get_preset("commercial") is COMMERCIAL
        with pytest.raises(KeyError):
            get_preset("free")

    def test_override(self):
        tweaked = OPEN.with_overrides(utilization=0.4)
        assert tweaked.utilization == 0.4
        assert OPEN.utilization == 0.35  # original untouched

    def test_commercial_beats_open_on_fmax(self):
        module = build_datapath()
        pdk = get_pdk("edu130")
        open_result = run_flow(module, pdk, FlowOptions(preset=OPEN))
        commercial_result = run_flow(
            module, pdk, FlowOptions(preset=COMMERCIAL)
        )
        assert commercial_result.ppa.fmax_mhz >= open_result.ppa.fmax_mhz

    def test_presets_produce_equivalent_logic(self):
        # Same RTL, both presets: both pass their equivalence checks.
        module = build_datapath()
        pdk = get_pdk("edu130")
        for preset in (OPEN, COMMERCIAL):
            result = run_flow(module, pdk, FlowOptions(preset=preset))
            assert result.synthesis.equivalence.passed


class TestFlowResultJson:
    def test_round_trip_is_fixed_point(self, counter_flow):
        text = counter_flow.to_json()
        clone = type(counter_flow).from_json(text)
        assert clone.to_json() == text
        assert clone.design_name == counter_flow.design_name
        assert clone.ok and not clone.partial
        assert clone.ppa == counter_flow.ppa
        assert [r.step for r in clone.steps] == [
            r.step for r in counter_flow.steps
        ]
        # Heavy artifacts are summaries, not resurrected objects.
        assert clone.synthesis is None
        assert clone.gds_bytes is None

    def test_schema_is_pinned(self, counter_flow):
        import json

        payload = json.loads(counter_flow.to_json())
        assert payload["schema"] == 2
        assert type(counter_flow).JSON_SCHEMA == 2
        # The v2 key set is a compatibility contract: additions or
        # removals must bump JSON_SCHEMA.
        assert set(payload) == {
            "schema", "design", "pdk", "preset", "clock_period_ps",
            "ok", "partial", "steps", "ppa", "lint", "failures",
            "synthesis", "timing", "power", "drc", "gds", "lec", "lvs",
        }
        assert payload["gds"]["n_bytes"] == len(counter_flow.gds_bytes)

    def test_schema_v1_still_readable(self, counter_flow):
        # v2 is purely additive over v1; old payloads must load.
        import json

        payload = json.loads(counter_flow.to_json())
        payload["schema"] = 1
        del payload["lvs"]
        clone = type(counter_flow).from_json(json.dumps(payload))
        assert clone.design_name == counter_flow.design_name

    def test_wall_clock_free(self, counter_flow):
        # Serializing twice (and through a round trip) is byte-stable;
        # no runtimes or timestamps may leak into the payload.
        text = counter_flow.to_json()
        assert text == counter_flow.to_json()
        assert "runtime" not in text

    def test_unknown_schema_rejected(self, counter_flow):
        import json

        payload = json.loads(counter_flow.to_json())
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            type(counter_flow).from_json(json.dumps(payload))

    def test_unknown_step_rejected(self, counter_flow):
        import json

        payload = json.loads(counter_flow.to_json())
        payload["steps"][0]["step"] = "etching"
        with pytest.raises(ValueError, match="etching"):
            type(counter_flow).from_json(json.dumps(payload))
