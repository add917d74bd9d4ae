"""Tests for geometry, the GDSII codec, chip assembly and DRC."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hdl import ModuleBuilder, mux
from repro.layout import (
    GdsLibrary,
    GdsSRef,
    GdsStruct,
    GdsText,
    Rect,
    bounding_box,
    build_chip_gds,
    check_drc,
    flatten_rects,
    from_db,
    read_gds,
    to_db,
    wire_rect,
    write_gds,
)
from repro.layout.fabric import Q, FabricError, _Band, _LiIndex
from repro.layout.gds import _parse_real8, _real8
from repro.pdk import get_pdk
from repro.pnr import implement
from repro.synth import synthesize


class TestGeometry:
    def test_basic_properties(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.area == 8
        assert r.min_dimension == 2
        assert r.center == (2, 1)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Rect(2, 0, 0, 2)

    def test_intersects_excludes_touching(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))
        assert not a.intersects(Rect(2, 0, 4, 2))  # shared edge
        assert not a.intersects(Rect(5, 5, 6, 6))

    def test_distance(self):
        a = Rect(0, 0, 1, 1)
        assert a.distance(Rect(4, 0, 5, 1)) == pytest.approx(3.0)
        assert a.distance(Rect(4, 5, 5, 6)) == pytest.approx(5.0)
        assert a.distance(Rect(0.5, 0.5, 2, 2)) == 0.0

    def test_grow_translate_union(self):
        a = Rect(1, 1, 2, 2)
        assert a.grown(1) == Rect(0, 0, 3, 3)
        assert a.translated(1, -1) == Rect(2, 0, 3, 1)
        assert a.union_bbox(Rect(5, 5, 6, 6)) == Rect(1, 1, 6, 6)

    def test_bounding_box(self):
        assert bounding_box([Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)]) == Rect(0, 0, 3, 3)
        with pytest.raises(ValueError):
            bounding_box([])

    def test_wire_rect(self):
        horizontal = wire_rect(0, 5, 10, 5, 1.0)
        assert horizontal == Rect(-0.5, 4.5, 10.5, 5.5)
        vertical = wire_rect(3, 0, 3, 8, 0.5)
        assert vertical == Rect(2.75, -0.25, 3.25, 8.25)
        with pytest.raises(ValueError):
            wire_rect(0, 0, 1, 1, 0.5)


class TestGdsCodec:
    def test_real8_roundtrip(self):
        for value in (0.0, 1.0, 0.001, 1e-9, 123.456, -42.5):
            encoded = _real8(value)
            assert len(encoded) == 8
            assert _parse_real8(encoded) == pytest.approx(value, rel=1e-12)

    def test_db_unit_conversion(self):
        assert to_db(1.234) == 1234
        assert from_db(1234) == pytest.approx(1.234)

    def test_library_roundtrip(self):
        library = GdsLibrary("testlib")
        cell = library.add(GdsStruct("cell"))
        cell.add_rect_um(1, 0, 0.0, 0.0, 2.5, 1.0)
        top = library.add(GdsStruct("top"))
        top.srefs.append(GdsSRef("cell", (to_db(10.0), to_db(20.0))))
        top.texts.append(GdsText(60, "pin_a", (0, 0)))
        top.add_rect_um(10, 0, 0.0, 0.0, 100.0, 100.0)

        data = write_gds(library)
        assert data[:4] == b"\x00\x06\x00\x02"  # HEADER record
        parsed = read_gds(data)
        assert parsed.name == "testlib"
        assert [s.name for s in parsed.structs] == ["cell", "top"]
        parsed_cell = parsed.struct("cell")
        assert parsed_cell.rects[0, 0] == 1
        assert tuple(parsed_cell.rects[0, 4:]) == (2500, 1000)
        parsed_top = parsed.struct("top")
        assert parsed_top.srefs[0].struct_name == "cell"
        assert parsed_top.srefs[0].position == (10000, 20000)
        assert parsed_top.texts[0].text == "pin_a"

    def test_truncated_stream_rejected(self):
        library = GdsLibrary("x")
        library.add(GdsStruct("s"))
        data = write_gds(library)
        with pytest.raises(ValueError):
            read_gds(data[:7] + b"\x01")

    def test_odd_length_names_padded(self):
        library = GdsLibrary("abc")  # odd length
        library.add(GdsStruct("wxy"))
        parsed = read_gds(write_gds(library))
        assert parsed.name == "abc"
        assert parsed.structs[0].name == "wxy"

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.add_rect(1 << 15, 0, 0, 0, 1, 1),
         "structure 'top': BOUNDARY 1 layer 32768 is outside int16"),
        (lambda s: s.add_rect(1, -(1 << 15) - 1, 0, 0, 1, 1),
         "structure 'top': BOUNDARY 1 datatype -32769 is outside int16"),
        (lambda s: s.texts.append(GdsText(-(1 << 15) - 1, "a", (0, 0))),
         "structure 'top': TEXT 'a' layer -32769 is outside int16"),
    ])
    def test_layer_outside_int16_rejected(self, edit, message):
        self.assert_write_rejects(edit, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.add_rect(1, 0, 0, 0, 1 << 31, 1),
         "structure 'top': BOUNDARY 1 coordinate 2147483648 is outside int32"),
        (lambda s: s.add_boundary(1, 0, [(0, -(1 << 31) - 1), (5, 0), (0, 0)]),
         "structure 'top': BOUNDARY 1 coordinate -2147483649 is outside "
         "int32"),
        (lambda s: s.srefs.append(GdsSRef("leaf", (0, -(1 << 31) - 1))),
         "structure 'top': SREF 'leaf' y -2147483649 is outside int32"),
        (lambda s: s.texts.append(GdsText(1, "a", (1 << 31, 0))),
         "structure 'top': TEXT 'a' x 2147483648 is outside int32"),
    ])
    def test_coordinate_outside_int32_rejected(self, edit, message):
        self.assert_write_rejects(edit, message)

    @pytest.mark.parametrize("edit, message", [
        (lambda s: setattr(s, "name", "caf\u00e9"),
         "structure 'caf\u00e9': name 'caf\u00e9' is not ASCII"),
        (lambda s: s.srefs.append(GdsSRef("\u00e9t\u00e9", (0, 0))),
         "structure 'top': SREF name '\u00e9t\u00e9' is not ASCII"),
        (lambda s: s.texts.append(GdsText(1, "\u03bc", (0, 0))),
         "structure 'top': TEXT string '\u03bc' is not ASCII"),
    ])
    def test_non_ascii_name_rejected(self, edit, message):
        self.assert_write_rejects(edit, message)
        with pytest.raises(
            ValueError,
            match="library 'lib\u00e9': name 'lib\u00e9' is not ASCII",
        ):
            write_gds(GdsLibrary("lib\u00e9"))

    @pytest.mark.parametrize("edit, message", [
        (lambda s: setattr(s, "name", "n" * 65531),
         "name of 65531 bytes exceeds the 65530-byte record limit"),
        (lambda s: s.texts.append(GdsText(1, "t" * 70000, (0, 0))),
         "structure 'top': TEXT string of 70000 bytes exceeds the "
         "65530-byte record limit"),
    ])
    def test_overlong_name_rejected(self, edit, message):
        self.assert_write_rejects(edit, message)
        library = GdsLibrary("lib")
        library.add(GdsStruct("n" * 65530))
        assert read_gds(write_gds(library)).structs[0].name == "n" * 65530

    def test_ring_over_one_record_rejected(self):
        ring = [(x, 0) for x in range(8191)] + [(0, 1)]
        self.assert_write_rejects(
            lambda s: s.add_boundary(1, 0, ring),
            "structure 'top': BOUNDARY 1 has 8192 points, more than one XY "
            "record holds (8191)",
        )

    @staticmethod
    def assert_write_rejects(edit, message):
        library = GdsLibrary("lib")
        library.add(GdsStruct("leaf"))
        top = library.add(GdsStruct("top"))
        top.add_rect(1, 0, 0, 0, 10, 10)
        top.srefs.append(GdsSRef("leaf", (0, 0)))
        write_gds(library)
        edit(top)
        with pytest.raises(ValueError) as error:
            write_gds(library)
        assert message in str(error.value)

    def test_rows_edit_in_place(self):
        struct = GdsStruct("s")
        struct.add_rect(1, 0, 0, 0, 4, 2)
        struct.add_boundary(2, 0, [(0, 0), (3, 1), (1, 5)])
        struct.add_rect(3, 1, 5, 5, 6, 6)
        struct.move_rect(1, 10, -1)
        assert struct.rects[1].tolist() == [2, 0, 10, -1, 13, 4]
        assert struct.rings == {1: ((10, -1), (13, 0), (11, 4))}
        struct.remove_rect(0)
        assert struct.rects.tolist() == [
            [2, 0, 10, -1, 13, 4], [3, 1, 5, 5, 6, 6],
        ]
        assert struct.rings == {0: ((10, -1), (13, 0), (11, 4))}
        for index in (-1, 2):
            with pytest.raises(IndexError, match=f"no row {index}"):
                struct.remove_rect(index)
            with pytest.raises(IndexError, match=f"no row {index}"):
                struct.move_rect(index, 1, 1)

    def test_flatten_rects_translates(self):
        library = GdsLibrary("lib")
        cell = library.add(GdsStruct("cell"))
        cell.add_rect_um(5, 0, 0, 0, 1, 1)
        top = library.add(GdsStruct("top"))
        top.srefs.append(GdsSRef("cell", (to_db(10), to_db(0))))
        rects = flatten_rects(library, "top", [(5, 0)])
        assert rects[(5, 0)].tolist() == [[10, 0, 11, 1]]


@pytest.fixture(scope="module")
def chip_design():
    pdk = get_pdk("edu130")
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    count = b.register("count", 8)
    count.next = mux(en, count + 1, count)
    b.output("q", count)
    mapped = synthesize(b.build(), pdk.library).mapped
    return implement(mapped, pdk), pdk


class TestChipAssembly:
    def test_gds_builds_and_roundtrips(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        data = write_gds(library)
        assert len(data) > 500
        parsed = read_gds(data)
        assert parsed.struct("counter").srefs  # placed cells

    def test_every_cell_placed_in_gds(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        top = library.struct("counter")
        assert len(top.srefs) == len(design.mapped.cells)

    def test_pin_labels_present(self, chip_design):
        design, pdk = chip_design
        top = build_chip_gds(design).struct("counter")
        texts = {t.text for t in top.texts}
        assert "en[0]" in texts
        assert "q[7]" in texts

    def test_die_outline_present(self, chip_design):
        design, pdk = chip_design
        top = build_chip_gds(design).struct("counter")
        outline_layer = pdk.layers.outline.gds_layer
        outlines = top.rects[top.rects[:, 0] == outline_layer]
        assert len(outlines) == 1


class TestDrc:
    def test_generated_chip_is_clean(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        report = check_drc(library, pdk.layers, "counter")
        assert report.clean, report.violations[:5]
        assert "CLEAN" in report.summary()

    def test_width_violation_detected(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        met1 = pdk.layers.by_name("met1")
        sliver = met1.min_width_um / 3.0
        library.struct("counter").add_rect_um(
            met1.gds_layer, met1.gds_datatype, 0.0, 0.0, 10.0, sliver
        )
        report = check_drc(library, pdk.layers, "counter")
        assert any(v.rule == "min_width" for v in report.violations)

    def test_spacing_violation_detected(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        met1 = pdk.layers.by_name("met1")
        w = met1.min_width_um
        gap = met1.min_spacing_um / 2.0
        top = library.struct("counter")
        # Two parallel wires far outside the real layout, too close together.
        top.add_rect_um(met1.gds_layer, 0, 1000.0, 1000.0, 1010.0, 1000.0 + w)
        top.add_rect_um(met1.gds_layer, 0, 1000.0, 1000.0 + w + gap,
                        1010.0, 1000.0 + 2 * w + gap)
        report = check_drc(library, pdk.layers, "counter")
        assert any(v.rule == "min_spacing" for v in report.violations)

    def test_sref_to_missing_structure_is_located(self, chip_design):
        _, pdk = chip_design
        library = GdsLibrary("t")
        top = library.add(GdsStruct("top"))
        top.srefs.append(GdsSRef("missing", (0, 0)))
        with pytest.raises(
            ValueError,
            match="structure 'top' places missing structure 'missing'",
        ):
            check_drc(library, pdk.layers, "top")

    def test_overlapping_rects_are_not_spacing_violations(self, chip_design):
        design, pdk = chip_design
        library = GdsLibrary("t")
        top = library.add(GdsStruct("top"))
        met1 = pdk.layers.by_name("met1")
        w = met1.min_width_um * 4
        top.add_rect_um(met1.gds_layer, 0, 0, 0, 10, w)
        top.add_rect_um(met1.gds_layer, 0, 5, 0, 15, w)
        report = check_drc(library, pdk.layers, "top")
        assert report.clean


# -- the fabric's linear lattice-line scan the bitmask replaced: oracle --


class ScanBand:
    """Lattice-line allocator that scans outward one line at a time."""

    def __init__(self, lo, hi):
        self.lo = -(-lo // Q) * Q
        self.hi = (hi // Q) * Q
        self.used = set()

    def alloc(self, preferred):
        if self.lo > self.hi:
            raise FabricError("lattice band is empty")
        want = min(max(preferred, self.lo), self.hi)
        want = (want + Q // 2) // Q * Q
        want = min(max(want, self.lo), self.hi)
        span = (self.hi - self.lo) // Q + 1
        for k in range(span + 1):
            for cand in ((want,) if k == 0 else (want + k * Q, want - k * Q)):
                if self.lo <= cand <= self.hi and cand not in self.used:
                    self.used.add(cand)
                    return cand
        raise FabricError(
            f"lattice band [{self.lo}, {self.hi}] exhausted "
            f"({len(self.used)} lines in use)"
        )


def alloc_outcome(band, preferred):
    """The line ``band`` hands out for ``preferred``, or its error text."""
    try:
        return band.alloc(preferred)
    except FabricError as error:
        return str(error)


li_coord = st.builds(
    lambda bucket, jitter: bucket * _LiIndex.BUCKET + jitter,
    st.integers(-3, 3), st.sampled_from([-9, -1, 0, 1, 7, 500]),
)
li_rect = st.builds(
    lambda x, y, w, h, net: (x, y, x + w, y + h, net),
    li_coord, li_coord, st.sampled_from([0, 2, 14, 1024, 2500]),
    st.sampled_from([0, 2, 14, 1024, 2500]), st.integers(0, 3),
)


class TestFabricKernels:
    """The fabric's band allocator and li index answer exactly like the
    linear scan and the brute-force overlap test."""

    @given(lo=st.integers(-40, 40), width=st.integers(-8, 60),
           preferred=st.lists(st.integers(-80, 120), min_size=1,
                              max_size=12))
    @example(lo=4, width=0, preferred=[4])  # one line
    @example(lo=5, width=2, preferred=[0])  # no lattice line inside
    @settings(max_examples=300, deadline=None)
    def test_band_matches_linear_scan(self, lo, width, preferred):
        fast, scan = _Band(lo, lo + width), ScanBand(lo, lo + width)
        lines = max(0, (scan.hi - scan.lo) // Q + 1)
        # Past exhaustion: every further call raises the same text.
        for step in range(lines + 2):
            want = preferred[step % len(preferred)]
            assert alloc_outcome(fast, want) == alloc_outcome(scan, want)
        assert len(scan.used) == lines

    @given(rects=st.lists(li_rect, max_size=30),
           queries=st.lists(li_rect, min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_li_index_matches_brute_force(self, rects, queries):
        index = _LiIndex()
        for rect in rects:
            index.add(*rect)
        for x0, y0, x1, y1, net in queries:
            expected = any(
                other != net
                and ax0 <= x1 and x0 <= ax1 and ay0 <= y1 and y0 <= ay1
                for ax0, ay0, ax1, ay1, other in rects
            )
            assert index.conflict(x0, y0, x1, y1, net) == expected
