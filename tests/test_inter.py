"""Tests for the interactive edit loop (repro.inter).

Covers the dirty-set oracle's edge cases, the Workspace session API's
guarantees (clean edits, incremental edits each proved by a full LEC,
fallback, byte identity with a from-scratch rebuild), the edit path's
must-fail guard against a seeded netlist mutation, the replay router's
divergence accounting, and the composed SoC catalogue entry the
benchmark edits.
"""

import gc
from types import SimpleNamespace

import pytest

from repro.core import FlowOptions
from repro.core.presets import COMMERCIAL
from repro.formal import check_lec
from repro.formal.lec import mutate_netlist
from repro.hdl import ModuleBuilder, parse_verilog, to_verilog
from repro.inter import (
    InterError,
    Workspace,
    content_hash,
    dirty_modules,
    module_keys,
    module_table,
    substitute_module,
)
from repro.inter.replay import _Divergence
from repro.ip import make_counter, make_pwm, make_seven_seg, make_soc
from repro.ip.soc import sevenseg_recode_rtl
from repro.pdk import get_pdk
from repro.pnr.hier import ROUTABILITY, hier_utilization
from repro.pnr.route import cell_cost

OPTIONS = FlowOptions(clock_period_ps=4_000.0)
#: A :func:`mutate_netlist` seed whose mutant of the edited minisoc's
#: stitched netlist is not equivalent to it.
MUTANT_SEED = 0


def build_minisoc():
    counter = make_counter(width=8).module
    seven = make_seven_seg().module
    pwm = make_pwm(width=8).module
    b = ModuleBuilder("minisoc")
    en = b.input("en", 1)
    load = b.input("load", 1)
    value = b.input("value", 8)
    cnt = b.instance("u_cnt", counter, en=en, load=load, value=value)
    led = b.instance("u_pwm", pwm, duty=cnt["q"])
    seg = b.instance("u_seg", seven, digit=cnt["q"][3:0])
    b.output("led", led["out"])
    b.output("segments", seg["segments"])
    b.output("count", cnt["q"])
    return b.build()


def reparse(design, module_name, new_rtl):
    """Parse ``new_rtl`` against the design's other modules."""
    known = {
        name: module
        for name, module in module_table(design).items()
        if name != module_name
    }
    return parse_verilog(new_rtl, known=known)


@pytest.fixture(scope="module")
def warm():
    """One open workspace shared by the read-only tests."""
    return Workspace.open(build_minisoc(), get_pdk("edu130"),
                          options=OPTIONS)


class TestDirtySet:
    """Satellite: hashing edge cases behind the dirty-set oracle."""

    def test_comment_and_whitespace_edit_is_clean(self):
        design = build_minisoc()
        rtl = to_verilog(module_table(design)["pwm8"])
        noisy = "// tuning notes\n" + rtl.replace("\n", "\n\n") + "\n  \n"
        edited = reparse(design, "pwm8", noisy)
        assert content_hash(edited) == content_hash(
            module_table(design)["pwm8"]
        )
        new_top = substitute_module(design, "pwm8", edited)
        assert dirty_modules(module_keys(design), module_keys(new_top)) \
            == set()

    def test_leaf_logic_change_ripples_to_parent_only(self):
        design = build_minisoc()
        edited = reparse(
            design, "counter8",
            to_verilog(make_counter(width=8, step=3).module),
        )
        new_top = substitute_module(design, "counter8", edited)
        dirty = dirty_modules(module_keys(design), module_keys(new_top))
        # The edited leaf and its instantiating parent — nothing else.
        assert dirty == {"counter8", "minisoc"}

    def test_module_rename_dirties_instantiating_parent(self):
        design = build_minisoc()
        rtl = to_verilog(module_table(design)["counter8"])
        renamed = reparse(
            design, "counter8",
            rtl.replace("module counter8", "module counter8b"),
        )
        assert renamed.name == "counter8b"
        new_top = substitute_module(design, "counter8", renamed)
        dirty = dirty_modules(module_keys(design), module_keys(new_top))
        assert "counter8b" in dirty
        assert "minisoc" in dirty

    def test_parameter_change_ripples_through_module_key(self):
        # Same generator, different parameter: a new content hash in the
        # leaf must change every ancestor's ripple-aware key.
        design = build_minisoc()
        edited = reparse(
            design, "pwm8", to_verilog(make_pwm(width=8).module).replace(
                "pwm8", "pwm8"
            ),
        )
        assert dirty_modules(
            module_keys(design),
            module_keys(substitute_module(design, "pwm8", edited)),
        ) == set()
        wider = make_pwm(width=9).module
        keys_a = module_keys(design)
        b = ModuleBuilder("minisoc")
        en = b.input("en", 1)
        load = b.input("load", 1)
        value = b.input("value", 8)
        cnt = b.instance(
            "u_cnt", make_counter(width=8).module,
            en=en, load=load, value=value,
        )
        led = b.instance("u_pwm", wider, duty=cnt["q"])
        seg = b.instance(
            "u_seg", make_seven_seg().module, digit=cnt["q"][3:0]
        )
        b.output("led", led["out"])
        b.output("segments", seg["segments"])
        b.output("count", cnt["q"])
        dirty = dirty_modules(keys_a, module_keys(b.build()))
        assert "minisoc" in dirty

    def test_duplicate_module_names_rejected(self):
        b = ModuleBuilder("top")
        x = b.input("x", 1)
        left = ModuleBuilder("leaf")
        a = left.input("a", 1)
        left.output("y", ~a)
        right = ModuleBuilder("leaf")
        c = right.input("a", 1)
        right.output("y", c)
        l = b.instance("u_l", left.build(), a=x)
        r = b.instance("u_r", right.build(), a=x)
        b.output("y", l["y"] ^ r["y"])
        with pytest.raises(InterError, match="named 'leaf'"):
            module_table(b.build())


class TestWorkspace:
    def test_open_runs_full_flow(self, warm):
        assert warm.result.ok
        assert warm.result.gds_bytes is not None
        assert warm.opts.preset.placer == "hier"
        assert warm.edits == 0 and warm.fallbacks == 0

    def test_open_rejects_formal_lec_and_foreign_sessions(self):
        with pytest.raises(ValueError, match="formal_lec"):
            Workspace.open(
                build_minisoc(), get_pdk("edu130"),
                options=OPTIONS.replace(formal_lec=True),
            )

    def test_eco_entry_points_looked_up_at_call_time(self, monkeypatch):
        # run_flow and implement() reach the eco engines through the
        # session's class attributes when they call them, so wrappers
        # installed there (as the benchmark's tracer does) see each call.
        from repro.inter import EcoSession

        calls = set()
        for name in ("lint_rtl", "synthesize", "route"):
            original = getattr(EcoSession, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.add(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(EcoSession, name, counted)
        ws = Workspace.open(build_minisoc(), get_pdk("edu130"),
                            options=OPTIONS)
        assert ws.result.ok
        assert calls == {"lint_rtl", "synthesize", "route"}

    @pytest.mark.parametrize("options", [COMMERCIAL, "commercial"])
    def test_open_takes_only_flow_options(self, options):
        with pytest.raises(TypeError, match="options must be FlowOptions"):
            Workspace.open(build_minisoc(), get_pdk("edu130"), options)

    def test_clean_edit_keeps_committed_result(self, warm):
        before = warm.result
        rtl = warm.rtl_of("sevenseg")
        report = warm.edit("sevenseg", "// still the same\n" + rtl)
        assert report.clean
        assert report.dirty == ()
        assert report.lec is None
        assert report.result is before

    def test_unknown_module_rejected(self, warm):
        with pytest.raises(KeyError, match="nonesuch"):
            warm.edit("nonesuch", "module nonesuch(); endmodule")

    def test_incremental_edit_is_proved_and_byte_identical(self):
        ws = Workspace.open(build_minisoc(), get_pdk("edu130"),
                            options=OPTIONS)
        new_rtl = to_verilog(make_counter(width=8, step=3).module)
        report = ws.edit("counter8", new_rtl)
        assert not report.clean
        assert report.fallback is None
        assert set(report.dirty) == {"counter8", "minisoc"}
        assert report.lec is not None and report.lec.equivalent
        assert ws.result is report.result
        assert ws.edits == 1 and ws.fallbacks == 0

        # A from-scratch rebuild of the edited tree must agree byte for
        # byte — incremental speed may not buy a different answer.
        cold = Workspace.open(ws.design, get_pdk("edu130"),
                              options=OPTIONS)
        assert report.result.gds_bytes == cold.result.gds_bytes
        assert report.result.to_json() == cold.result.to_json()

    def test_edit_leaves_no_cyclic_garbage(self):
        # Reference counting alone frees what an edit drops: nothing it
        # allocated waits for a full collection.
        ws = Workspace.open(build_minisoc(), get_pdk("edu130"),
                            options=OPTIONS)
        new_rtl = to_verilog(make_counter(width=8, step=3).module)
        gc.collect()
        gc.disable()
        try:
            report = ws.edit("counter8", new_rtl)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert report.fallback is None
        assert garbage == 0

    def test_every_edit_is_proved_by_a_full_lec(self):
        ws = Workspace.open(build_minisoc(), get_pdk("edu130"),
                            options=OPTIONS)
        original = ws.rtl_of("counter8")
        edits = [
            ("counter8", to_verilog(make_counter(width=8, step=3).module)),
            ("sevenseg", sevenseg_recode_rtl()),
            ("counter8", original),
        ]
        for module_name, rtl in edits:
            report = ws.edit(module_name, rtl)
            assert not report.clean and report.fallback is None
            full = check_lec(ws.design, report.result.synthesis.mapped)
            assert full.equivalent
            assert report.lec.to_dict() == full.to_dict()

    def test_structural_anomaly_falls_back_to_full_rebuild(
        self, monkeypatch
    ):
        import repro.inter.session as session_mod

        ws = Workspace.open(build_minisoc(), get_pdk("edu130"),
                            options=OPTIONS)
        stitch = session_mod.stitch
        calls = []

        def boom_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise InterError("injected anomaly")
            return stitch(*args, **kwargs)

        monkeypatch.setattr(session_mod, "stitch", boom_once)
        new_rtl = to_verilog(make_counter(width=8, step=3).module)
        report = ws.edit("counter8", new_rtl)
        assert len(calls) == 2
        assert report.fallback is not None
        assert "injected anomaly" in report.fallback
        assert ws.fallbacks == 1
        # The fallback is a full rebuild proved by the same full LEC —
        # and still byte-identical to any other rebuild of the same tree.
        assert report.result.ok
        assert report.lec is not None and report.lec.equivalent
        monkeypatch.undo()
        cold = Workspace.open(ws.design, get_pdk("edu130"),
                              options=OPTIONS)
        assert report.result.gds_bytes == cold.result.gds_bytes

    def test_seeded_mutation_must_fall_back(self, monkeypatch):
        """The acceptance guard: a rewired gate cannot slip past the
        edit's LEC.  Random-vector equivalence is off, so the LEC is the
        only check that can see the mutant."""
        import repro.inter.session as session_mod

        options = OPTIONS.replace(
            preset=OPTIONS.preset.with_overrides(run_equivalence=False)
        )
        ws = Workspace.open(build_minisoc(), get_pdk("edu130"),
                            options=options)
        stitch = session_mod.stitch
        mutants = []

        def mutant_once(*args, **kwargs):
            mapped = stitch(*args, **kwargs)
            if mutants:
                return mapped
            mutant, description = mutate_netlist(mapped, seed=MUTANT_SEED)
            mutants.append(description)
            return mutant

        monkeypatch.setattr(session_mod, "stitch", mutant_once)
        new_rtl = to_verilog(make_counter(width=8, step=3).module)
        report = ws.edit("counter8", new_rtl)
        assert mutants
        assert report.fallback is not None
        assert "NOT EQUIVALENT" in report.fallback
        assert ws.fallbacks == 1
        assert report.lec is not None and report.lec.equivalent
        monkeypatch.undo()
        cold = Workspace.open(ws.design, get_pdk("edu130"),
                              options=options)
        assert report.result.gds_bytes == cold.result.gds_bytes


def _named_router(capacity=4, usage=(), history=()):
    """Warm router state over cells named "a" to "d", as much of it as
    :class:`_Divergence` reads."""
    names = "abcd"
    used = [dict(usage).get(name, 0) for name in names]
    hist = [dict(history).get(name, 0.0) for name in names]
    return SimpleNamespace(
        grid=SimpleNamespace(index=names.index),
        capacity=capacity,
        usage=used,
        history=hist,
        cost=[cell_cost(u, h, capacity) for u, h in zip(used, hist)],
    )


class TestReplayDivergence:
    def test_opposite_charges_cancel(self):
        # "b" is at capacity in the warm run, so its delta moves its cost.
        div = _Divergence(_named_router(usage={"b": 4}))
        div.charge_usage(("a", "b"), +1)
        div.charge_usage(("a",), -1)
        assert div.usage == {"b": 1}
        assert div.cells == {"b"}
        assert div.clean(frozenset(("a", "c")))
        assert not div.clean(frozenset(("b",)))

    def test_usage_and_history_tracked_independently(self):
        div = _Divergence(_named_router())
        div.charge_usage(("a",), +1)
        div.charge_hist(("a",), +1)
        div.charge_usage(("a",), -1)
        # The history delta keeps the cell divergent.
        assert "a" in div.cells
        div.charge_hist(("a",), -1)
        assert div.cells == set()
        assert div.usage == {} and div.hist == {}

    def test_usage_delta_below_capacity_is_clean(self):
        # Warm usage 3 and recorded usage 2 both cost one unit step.
        div = _Divergence(_named_router(usage={"b": 3}))
        div.charge_usage(("b",), +1)
        assert div.cells == {"b"}
        assert div.clean(frozenset(("a", "b")))
        # Warm usage 1, recorded usage 3: neither reaches 4 either.
        div = _Divergence(_named_router(usage={"b": 1}))
        div.charge_usage(("b",), -1)
        div.charge_usage(("b",), -1)
        assert div.clean(frozenset(("b",)))

    @pytest.mark.parametrize("warm, delta", [
        (4, +1),  # the warm run reaches capacity, the recorded one not
        (3, -1),  # the recorded run reaches capacity, the warm one not
        (6, +1),  # both above capacity, by different amounts
    ])
    def test_usage_delta_at_capacity_is_dirty(self, warm, delta):
        div = _Divergence(_named_router(usage={"b": warm}))
        div.charge_usage(("b",), delta)
        assert not div.clean(frozenset(("b",)))
        assert div.clean(frozenset(("a", "c")))

    @pytest.mark.parametrize("delta", [+1, -1])
    def test_any_history_delta_is_dirty(self, delta):
        div = _Divergence(_named_router(history={"b": 2.0}))
        div.charge_hist(("b",), delta)
        assert not div.clean(frozenset(("b",)))
        assert div.clean(frozenset(("a",)))


class TestHierUtilization:
    def test_routability_derate_applied(self, warm):
        mapped = warm.result.synthesis.mapped
        node = get_pdk("edu130").node
        effective = hier_utilization(mapped, node, 0.35)
        # Bucketing and the routability derate both loosen the core.
        assert 0.0 < effective < 0.35
        assert 0.0 < ROUTABILITY < 1.0
        # Pure function: warm and cold flows must size cores alike.
        assert effective == hier_utilization(mapped, node, 0.35)

    def test_empty_netlist_passthrough(self):
        from repro.synth import MappedNetlist

        pdk = get_pdk("edu130")
        empty = MappedNetlist("void", pdk.library)
        assert hier_utilization(empty, pdk.node, 0.4) == 0.4


class TestSocCatalogueEntry:
    def test_soc_verifies_against_composed_model(self):
        ip = make_soc()
        assert ip.verify(cycles=96).passed

    def test_recode_rtl_is_a_real_edit(self):
        original = make_seven_seg().module
        edited = parse_verilog(sevenseg_recode_rtl())
        assert edited.name == original.name
        assert content_hash(edited) != content_hash(original)
