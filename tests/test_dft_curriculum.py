"""Tests for scan-chain insertion, fault simulation and the curriculum
model."""

import random

import pytest

from repro.core import AccessTier
from repro.core.curriculum import (
    CURRICULUM,
    Course,
    CurriculumError,
    course,
    courses_for_tier,
    pathway_flow_coverage,
    plan_semesters,
    total_ects,
    validate_curriculum,
)
from repro.core.steps import FlowStep
from repro.hdl import ModuleBuilder, mux
from repro.ip.catalog import generate
from repro.obs.metrics import MetricsRegistry
from repro.pdk import get_pdk
from repro.synth import check_equivalence, synthesize
from repro.synth.dft import (
    DftError,
    coverage_estimate,
    fault_sites,
    insert_scan_chain,
    simulate_faults,
)
from repro.synth.mapped import MappedNetlist

from sim_reference import MappedSimulator, simulate_faults_chunked


def build_counter_mapped(width=4):
    b = ModuleBuilder("scan_target")
    en = b.input("en", 1)
    count = b.register("count", width)
    count.next = mux(en, count + 1, count)
    b.output("q", count)
    module = b.build()
    return module, synthesize(module, get_pdk("edu130").library).mapped


class TestScanInsertion:
    def test_chain_covers_all_flops(self):
        _, mapped = build_counter_mapped()
        report = insert_scan_chain(mapped)
        assert report.chain_length == 4
        assert report.mux_cells_added == 4
        assert report.area_overhead > 0
        assert "scan_en" in mapped.inputs
        assert "scan_out" in mapped.outputs

    def test_functional_mode_unchanged(self):
        module, mapped = build_counter_mapped()
        insert_scan_chain(mapped)
        # With scan_en held 0 (the equivalence checker's default for
        # extra inputs) behaviour matches the original RTL.
        result = check_equivalence(module, mapped, cycles=60)
        assert result.passed, result.mismatches[:3]

    def test_shift_mode_moves_patterns(self):
        _, mapped = build_counter_mapped(width=4)
        report = insert_scan_chain(mapped)
        sim = MappedSimulator(mapped)
        sim.set("en", 0)
        sim.set("scan_en", 1)
        pattern = [1, 0, 1, 1]
        for bit in pattern:
            sim.set("scan_in", bit)
            sim.step()
        # Shift out while feeding zeros: the chain is a FIFO, so the
        # pattern reappears at scan_out in the order it was fed.
        shifted_out = []
        sim.set("scan_in", 0)
        for _ in range(report.chain_length):
            shifted_out.append(sim.get("scan_out"))
            sim.step()
        assert shifted_out == pattern

    def test_double_insertion_rejected(self):
        _, mapped = build_counter_mapped()
        insert_scan_chain(mapped)
        with pytest.raises(DftError):
            insert_scan_chain(mapped)

    def test_combinational_design_rejected(self):
        b = ModuleBuilder("comb")
        a = b.input("a", 4)
        b.output("y", ~a)
        mapped = synthesize(b.build(), get_pdk("edu130").library).mapped
        with pytest.raises(DftError):
            insert_scan_chain(mapped)

    def test_coverage_improves_with_scan(self):
        # Coverage is now *measured* by word-parallel fault simulation,
        # not estimated: scan adds controllability (random state loads)
        # and observability (capture + shift-out), so the same random
        # budget detects strictly more of the fault universe.
        _, mapped = build_counter_mapped()
        before = coverage_estimate(mapped, scanned=False)
        insert_scan_chain(mapped)
        after = coverage_estimate(mapped, scanned=True)
        assert after > before
        assert after > 0.95

    def test_fault_report_accounts_for_every_fault(self):
        _, mapped = build_counter_mapped()
        insert_scan_chain(mapped)
        report = simulate_faults(mapped, scanned=True)
        assert report.total_faults == len(fault_sites(mapped))
        assert (
            report.detected_faults + len(report.undetected)
            == report.total_faults
        )
        assert report.coverage == pytest.approx(
            report.detected_faults / report.total_faults
        )
        assert "stuck-at faults" in report.summary()
        # Undetected faults name real pins of real cells.
        for site in report.undetected:
            inst = mapped.cells[site.cell_index]
            assert site.pin in inst.pins
            assert site.stuck_at in (0, 1)

    def test_injected_fault_is_found_by_scan_patterns(self):
        # A stuck output on a mux in the next-state logic must show up
        # as a detected fault, not vanish into the estimate.
        _, mapped = build_counter_mapped()
        insert_scan_chain(mapped)
        report = simulate_faults(mapped, scanned=True)
        detected = {
            (s.cell_index, s.pin, s.stuck_at)
            for s in fault_sites(mapped)
            if s not in report.undetected
        }
        mux_cells = [
            i for i, inst in enumerate(mapped.cells)
            if inst.cell.kind == "MUX2"
        ]
        assert any(
            (index, "y", stuck) in detected
            for index in mux_cells
            for stuck in (0, 1)
        )

    def test_deeper_pipelines_are_less_testable_unscanned(self):
        def pipeline(depth):
            b = ModuleBuilder(f"pipe{depth}")
            d = b.input("d", 2)
            value = d
            for i in range(depth):
                stage = b.register(f"s{i}", 2)
                stage.next = value
                value = stage
            b.output("q", value)
            return synthesize(b.build(), get_pdk("edu130").library).mapped

        # Within a fixed functional-test budget, a fault near the input
        # of a deep pipeline gets few (or zero) chances to propagate to
        # an observable output before the budget runs out.
        budget = 6
        shallow = coverage_estimate(pipeline(1), scanned=False,
                                    patterns=budget)
        deep = coverage_estimate(pipeline(5), scanned=False,
                                 patterns=budget)
        assert deep < shallow


#: Stuck-at sites per pin kind: the cost of one cell in fault_sites().
_CELL_FAULTS = {"NAND2": 6, "XOR2": 6, "MUX2": 8, "INV": 4}


def random_mapped(faults, flops, seed):
    """A random acyclic netlist with exactly ``faults`` stuck-at sites.

    ``flops`` DFFs (tagged ``r[i]``) and random NAND2/XOR2/MUX2/INV
    cells read a 3-bit input port, the flop outputs and earlier cell
    outputs; one TIE0 pads an odd pair.  Some nets stay unobserved, so
    some faults are undetectable.
    """
    library = get_pdk("edu130").library
    rng = random.Random(seed)
    mapped = MappedNetlist(f"rand{faults}", library)
    inputs = [mapped.new_net() for _ in range(3)]
    mapped.set_port("input", "a", inputs)
    qs = [mapped.new_net() for _ in range(flops)]
    nets = inputs + qs
    budget = faults - 4 * flops
    while budget:
        kinds = [k for k, cost in _CELL_FAULTS.items() if cost <= budget]
        kind = rng.choice(kinds) if kinds else "TIE0"
        cell = library.by_kind(kind)
        pins = {pin: rng.choice(nets) for pin in cell.inputs}
        pins[cell.output] = out = mapped.new_net()
        mapped.add_cell(cell, pins)
        nets.append(out)
        budget -= 2 * (len(cell.inputs) + 1)
    dff = library.by_kind("DFF")
    for index, q in enumerate(qs):
        mapped.add_cell(dff, {"d": rng.choice(nets), dff.output: q},
                        reset_value=index % 2, tag=f"r[{index}]")
    mapped.set_port("output", "y", nets[-4:])
    assert len(fault_sites(mapped)) == faults
    return mapped


@pytest.fixture(scope="module")
def catalogue_mapped():
    """name -> (mapped, scan-inserted mapped or None) on edu130."""
    library = get_pdk("edu130").library
    designs = {}
    for name in ("counter", "alu", "uart_tx", "fir", "tinycpu"):
        module = generate(name).module
        mapped = synthesize(module, library, verify=False).mapped
        scan = None
        if mapped.seq_cells:
            scan = synthesize(module, library, verify=False).mapped
            insert_scan_chain(scan)
        designs[name] = (mapped, scan)
    return designs


def assert_same_fault_sim(mapped, scanned, **kwargs):
    """The packed pass and the chunked reference agree on the whole
    report (``undetected`` in order) and on ``sim.packed.vectors``."""
    counted = []
    for simulate in (simulate_faults, simulate_faults_chunked):
        metrics = MetricsRegistry()
        report = simulate(mapped, scanned, metrics=metrics, **kwargs)
        counted.append((report, metrics.snapshot()))
    (got, got_metrics), (want, want_metrics) = counted
    assert got == want
    assert got_metrics == want_metrics
    return got


class TestFaultSimOracle:
    @pytest.mark.parametrize("name,chain", [
        ("counter", False), ("counter", True), ("alu", False),
        ("uart_tx", False), ("uart_tx", True), ("fir", False), ("fir", True),
    ])
    @pytest.mark.parametrize("scanned", [True, False])
    def test_catalogue_matches_the_chunked_loop(
        self, catalogue_mapped, name, chain, scanned
    ):
        mapped, scan = catalogue_mapped[name]
        assert_same_fault_sim(scan if chain else mapped, scanned)

    def test_scanned_tinycpu_matches(self, catalogue_mapped):
        _, scan = catalogue_mapped["tinycpu"]
        report = assert_same_fault_sim(scan, True)
        assert (report.total_faults, report.detected_faults) == (2246, 1509)

    @pytest.mark.parametrize("seed", [0, 7, 2025])
    @pytest.mark.parametrize("patterns", [1, 5, None])
    @pytest.mark.parametrize("scanned", [True, False])
    def test_seeds_and_pattern_budgets(
        self, catalogue_mapped, seed, patterns, scanned
    ):
        _, scan = catalogue_mapped["uart_tx"]
        assert_same_fault_sim(scan, scanned, seed=seed, patterns=patterns)

    @pytest.mark.parametrize("faults", [62, 64, 126, 188, 190, 252])
    @pytest.mark.parametrize("flops", [0, 3])
    @pytest.mark.parametrize("scanned", [True, False])
    def test_block_boundaries(self, faults, flops, scanned):
        """63k - 1, 63k and 63k + 1 faults: a full last block, a last
        block of one fault and one lane short of full."""
        mapped = random_mapped(faults, flops, seed=faults + flops)
        report = assert_same_fault_sim(mapped, scanned, patterns=6)
        assert report.total_faults == faults
        assert 0 < report.detected_faults < faults

    def test_a_netlist_without_cells_simulates_nothing(self):
        mapped = MappedNetlist("empty", get_pdk("edu130").library)
        net = mapped.new_net()
        mapped.set_port("input", "a", [net])
        mapped.set_port("output", "y", [net])
        report = assert_same_fault_sim(mapped, True)
        assert report.total_faults == 0 and report.coverage == 1.0


class TestCurriculum:
    def test_catalogue_valid(self):
        validate_curriculum()

    def test_course_lookup(self):
        assert course("hdl_lab").tier is AccessTier.BEGINNER
        with pytest.raises(KeyError):
            course("quantum_devices")

    def test_tier_pathways_nest(self):
        beginner = {c.name for c in courses_for_tier(AccessTier.BEGINNER)}
        advanced = {c.name for c in courses_for_tier(AccessTier.ADVANCED)}
        assert beginner < advanced

    def test_semester_plan_respects_prerequisites(self):
        plan = plan_semesters(AccessTier.ADVANCED)
        seen: set[str] = set()
        for semester in plan:
            for name in semester:
                for prerequisite in course(name).prerequisites:
                    assert prerequisite in seen
            seen.update(semester)
        assert seen == {c.name for c in courses_for_tier(AccessTier.ADVANCED)}

    def test_semester_budget_respected(self):
        plan = plan_semesters(AccessTier.ADVANCED, ects_per_semester=12)
        for semester in plan:
            total = sum(course(name).ects for name in semester)
            assert total <= 12 or len(semester) == 1

    def test_coverage_grows_with_tier(self):
        assert (
            pathway_flow_coverage(AccessTier.BEGINNER)
            < pathway_flow_coverage(AccessTier.INTERMEDIATE)
            <= pathway_flow_coverage(AccessTier.ADVANCED)
        )

    def test_advanced_pathway_reaches_tapeout(self):
        taught = set()
        for entry in courses_for_tier(AccessTier.ADVANCED):
            taught.update(entry.teaches)
        assert FlowStep.TAPEOUT in taught

    def test_total_ects_reasonable(self):
        assert 12 <= total_ects(AccessTier.BEGINNER) <= 30
        assert total_ects(AccessTier.ADVANCED) >= 40

    def test_bad_curriculum_detected(self):
        broken = CURRICULUM + (
            Course("orphan", AccessTier.BEGINNER, 3, (), ("missing",)),
        )
        with pytest.raises(CurriculumError):
            validate_curriculum(broken)

    def test_cycle_detected(self):
        cyclic = (
            Course("a", AccessTier.BEGINNER, 3, (), ("b",)),
            Course("b", AccessTier.BEGINNER, 3, (), ("a",)),
        )
        with pytest.raises(CurriculumError, match="cycle"):
            validate_curriculum(cyclic)
