"""Property-based tests (hypothesis) for the core invariants.

These pin down the contracts everything else relies on:

* lowering preserves IR semantics for arbitrary expression trees;
* optimization and technology mapping preserve netlist semantics;
* the GDSII codec round-trips arbitrary libraries;
* geometry predicates are symmetric/consistent;
* the cost model is monotone and invertible;
* the stack-VM compiler agrees with Python evaluation;
* the FIFO obeys a queue model under arbitrary operation sequences.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import affordable_node_nm, design_cost_usd
from repro.hdl.ir import (
    BinOp,
    Cat,
    Const,
    Module,
    Mux,
    Ref,
    Signal,
    Slice,
    UnaryOp,
    eval_expr,
)
from repro.layout import (
    GdsLibrary,
    GdsSRef,
    GdsStruct,
    GdsText,
    Rect,
    read_gds,
    write_gds,
)
from repro.layout.gds import _parse_real8, _real8
from repro.pdk import get_pdk
from repro.sim import Simulator
from repro.swstack import StackVm, compile_source
from repro.synth import check_equivalence, lower, optimize, tech_map

from sim_reference import GateSimulator

# -- expression-tree strategy -----------------------------------------------

_BIN_OPS = ["add", "sub", "mul", "and", "or", "xor", "eq", "lt", "ge"]
_UN_OPS = ["not", "neg", "rxor", "ror", "rand"]


def _expr_strategy(signals: list[Signal]):
    base = st.one_of(
        st.sampled_from(signals).map(Ref),
        st.integers(0, 255).map(lambda v: Const(v, 8)),
        st.integers(0, 15).map(lambda v: Const(v, 4)),
    )

    def extend(children):
        unary = st.builds(
            UnaryOp, st.sampled_from(_UN_OPS), children
        )
        binary = st.builds(
            BinOp, st.sampled_from(_BIN_OPS), children, children
        )
        mux = st.builds(
            lambda s, t, f: Mux(
                s if s.width == 1 else Slice(s, 0, 0), t, f
            ),
            children, children, children,
        )
        cat = st.builds(lambda a, b: Cat([a, b]), children, children)
        sliced = children.map(
            lambda e: Slice(e, min(2, e.width - 1), 0)
        )
        return st.one_of(unary, binary, mux, cat, sliced)

    return st.recursive(base, extend, max_leaves=12)


def _module_for(expr, signals: list[Signal]) -> Module:
    module = Module("prop")
    module.inputs = list(signals)
    width = min(expr.width, 24)
    out = module.add_output("y", width)
    if expr.width > width:
        expr = Slice(expr, width - 1, 0)
    module.assign(out, expr)
    return module


_SIGNALS = [Signal("a", 8), Signal("b", 4), Signal("c", 1)]


class TestLoweringSemantics:
    @given(
        expr=_expr_strategy(_SIGNALS),
        values=st.tuples(
            st.integers(0, 255), st.integers(0, 15), st.integers(0, 1)
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_lowered_netlist_matches_eval(self, expr, values):
        module = _module_for(expr, _SIGNALS)
        env = dict(zip(_SIGNALS, values))
        want = eval_expr(module.assigns[module.outputs[0]], env)

        netlist = lower(module)
        sim = GateSimulator(netlist)
        for sig, value in env.items():
            sim.set(sig.name, value)
        assert sim.get("y") == want

    @given(
        expr=_expr_strategy(_SIGNALS),
        values=st.tuples(
            st.integers(0, 255), st.integers(0, 15), st.integers(0, 1)
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_optimizer_preserves_semantics(self, expr, values):
        module = _module_for(expr, _SIGNALS)
        env = dict(zip(_SIGNALS, values))
        want = eval_expr(module.assigns[module.outputs[0]], env)

        optimized, _ = optimize(lower(module))
        sim = GateSimulator(optimized)
        for sig, value in env.items():
            sim.set(sig.name, value)
        assert sim.get("y") == want

    @given(expr=_expr_strategy(_SIGNALS))
    @settings(max_examples=40, deadline=None)
    def test_mapping_preserves_semantics(self, expr):
        module = _module_for(expr, _SIGNALS)
        optimized, _ = optimize(lower(module))
        library = get_pdk("edu130").library
        mapped, _ = tech_map(optimized, library)
        result = check_equivalence(module, mapped, cycles=8, seed=1)
        assert result.passed, result.mismatches[:2]

    @given(expr=_expr_strategy(_SIGNALS))
    @settings(max_examples=40, deadline=None)
    def test_rtl_simulator_matches_eval(self, expr):
        module = _module_for(expr, _SIGNALS)
        sim = Simulator(module)
        values = {"a": 170, "b": 9, "c": 1}
        for name, value in values.items():
            sim.set(name, value)
        env = {sig: values[sig.name] for sig in _SIGNALS}
        assert sim.get("y") == eval_expr(
            module.assigns[module.outputs[0]], env
        )


class TestGdsRoundTrip:
    rects = st.tuples(
        st.integers(0, 60), st.integers(0, 6),
        st.floats(0.0, 50.0), st.floats(0.0, 50.0),
        st.floats(0.01, 20.0), st.floats(0.01, 20.0),
    )

    @given(
        name=st.text(
            alphabet=st.characters(min_codepoint=65, max_codepoint=90),
            min_size=1, max_size=12,
        ),
        rect_list=st.lists(rects, max_size=8),
        refs=st.lists(
            st.tuples(st.integers(-10_000, 10_000), st.integers(-10_000, 10_000)),
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, name, rect_list, refs):
        library = GdsLibrary(name)
        cell = library.add(GdsStruct("CELL"))
        for layer, dt, x, y, w, h in rect_list:
            cell.add_rect_um(layer, dt, x, y, x + w, y + h)
        top = library.add(GdsStruct("TOP"))
        for x, y in refs:
            top.srefs.append(GdsSRef("CELL", (x, y)))
        top.texts.append(GdsText(60, "pin", (0, 0)))

        parsed = read_gds(write_gds(library))
        assert parsed.name == name
        assert len(parsed.struct("CELL").rects) == len(rect_list)
        assert [s.position for s in parsed.struct("TOP").srefs] == refs
        assert np.array_equal(parsed.struct("CELL").rects, cell.rects)
        assert parsed.struct("CELL").rings == cell.rings

    @given(value=st.floats(min_value=1e-12, max_value=1e12))
    @settings(max_examples=200)
    def test_real8_roundtrip(self, value):
        # GDSII real8 carries 56 mantissa bits (more than a double's 52),
        # but base-16 normalization can waste up to 3 of them, so require
        # agreement to ~2^-49 relative precision.
        parsed = _parse_real8(_real8(value))
        assert math.isclose(parsed, value, rel_tol=2**-49)

    @given(value=st.floats(min_value=-1e9, max_value=-1e-9))
    @settings(max_examples=50)
    def test_real8_negative_values(self, value):
        parsed = _parse_real8(_real8(value))
        assert parsed < 0
        assert math.isclose(parsed, value, rel_tol=2**-49)


class TestGeometryProperties:
    boxes = st.tuples(
        st.floats(-100, 100), st.floats(-100, 100),
        st.floats(0, 50), st.floats(0, 50),
    ).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))

    @given(a=boxes, b=boxes)
    @settings(max_examples=200)
    def test_distance_symmetric(self, a, b):
        assert a.distance(b) == b.distance(a)

    @given(a=boxes, b=boxes)
    @settings(max_examples=200)
    def test_intersection_implies_zero_distance(self, a, b):
        if a.intersects(b):
            assert a.distance(b) == 0.0

    @given(a=boxes, margin=st.floats(0, 10))
    @settings(max_examples=100)
    def test_grown_contains_original(self, a, margin):
        grown = a.grown(margin)
        assert grown.x0 <= a.x0 and grown.y0 <= a.y0
        assert grown.x1 >= a.x1 and grown.y1 >= a.y1

    @given(a=boxes, b=boxes)
    @settings(max_examples=100)
    def test_union_bbox_contains_both(self, a, b):
        u = a.union_bbox(b)
        for rect in (a, b):
            assert u.x0 <= rect.x0 and u.y1 >= rect.y1


class TestCostModelProperties:
    @given(f1=st.floats(2.0, 180.0), f2=st.floats(2.0, 180.0))
    @settings(max_examples=200)
    def test_monotone(self, f1, f2):
        if f1 < f2:
            assert design_cost_usd(f1) >= design_cost_usd(f2)

    @given(feature=st.floats(2.0, 180.0))
    @settings(max_examples=100)
    def test_inverse(self, feature):
        recovered = affordable_node_nm(design_cost_usd(feature))
        assert abs(recovered - feature) / feature < 1e-6


class TestVmAgainstPython:
    @given(
        a=st.integers(0, 1000), b=st.integers(1, 1000),
        c=st.integers(0, 1000),
    )
    @settings(max_examples=150)
    def test_expression_agreement(self, a, b, c):
        source = "y = (a + b) * c - (a ^ c) + b // 3 + (c % 7)"
        vm = StackVm()
        vm.variables.update({"a": a, "b": b, "c": c})
        result = vm.run(compile_source(source))
        assert result["y"] == (a + b) * c - (a ^ c) + b // 3 + (c % 7)


class TestFifoModel:
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.integers(0, 255)),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_matches_queue(self, ops):
        from repro.ip import make_fifo

        ip = make_fifo(width=8, depth=4)
        sim = Simulator(ip.module)
        queue: list[int] = []
        for push, pop, data in ops:
            sim.set("push", int(push))
            sim.set("pop", int(pop))
            sim.set("wdata", data)
            # Check flags before the edge.
            assert sim.get("full") == (1 if len(queue) == 4 else 0)
            assert sim.get("empty") == (1 if not queue else 0)
            assert sim.get("count") == len(queue)
            if queue:
                assert sim.get("rdata") == queue[0]
            will_push = push and len(queue) < 4
            will_pop = pop and queue
            if will_pop:
                queue.pop(0)
            if will_push:
                queue.append(data)
            sim.step()
