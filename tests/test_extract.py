"""Tests for GDS-in signoff: extraction, connectivity LVS, trojans.

The principle under test: the exported GDSII *bytes* are the only
source of truth.  Everything here parses those bytes back, re-derives
the netlist from geometry alone and checks it against the mapped
netlist — and the must-fail half plants seeded trojans that the check
has to catch.
"""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import os
import pickle
import random
import struct as struct_mod
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
import repro.extract.compare as compare_module
import repro.extract.geom as geom
import repro.extract.identify as identify_module
import repro.extract.netlist as netlist_module
from repro.cli import main
from repro.core import COMMERCIAL
from repro.core.flow import FlowResult, run_flow
from repro.core.options import FlowOptions
from repro.core.signoff import run_signoff
from repro.extract import (
    TROJAN_KINDS,
    compare_netlists,
    extract_netlist,
    identify_masters,
    infer_top,
    master_fingerprint,
    mutate_gds,
    reference_fingerprints,
    run_lvs,
    touches,
)
from repro.extract.geom import components, rect_array, touching_pairs
from repro.extract.netlist import ExtractedInstance, ExtractionResult
from repro.ip.catalog import catalogue, generate
from repro.layout import build_chip_gds, flatten_rects, read_gds, write_gds
from repro.layout.gds import GdsLibrary, GdsSRef, GdsStruct, GdsText
from repro.layout.chip import cell_master_struct
from repro.layout.lvs import LvsReport, check_lvs
from repro.pdk import get_pdk, make_edu045, make_edu130, make_edu180
from repro.pnr import implement
from repro.synth import synthesize
from repro.synth.mapped import MappedNetlist

from gds_reference import (
    RefLibrary,
    RefStruct,
    rect_ring,
    reference_flatten,
    reference_mutate,
    reference_read,
    reference_write,
    to_reference,
)


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
#: The LVS gate's example-script designs: ``(name, script, builder)``.
EXAMPLE_DESIGNS = (
    ("examples/quickstart", "quickstart", "build_counter"),
    ("examples/research_node_access", "research_node_access",
     "build_research_datapath"),
    ("examples/tiny_soc", "tiny_soc", "build_soc"),
)


def example_module(script, builder):
    """The design one of the example scripts' builders makes."""
    spec = importlib.util.spec_from_file_location(
        f"example_{script}", EXAMPLES / f"{script}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, builder)()


@pytest.fixture(scope="module")
def pdk():
    return get_pdk("edu130")


@pytest.fixture(scope="module")
def design_stacks():
    """PDK name -> ``(design, mapped netlist, chip library)`` for every
    catalogue design, then the three example-script designs of the LVS
    gate (``examples/lvs_designs.py``), built once per module on first
    use."""
    built = {}

    def stacks(pdk_name):
        if pdk_name not in built:
            pdk = get_pdk(pdk_name)
            modules = [(name, generate(name).module) for name in catalogue()]
            modules += [
                (name, example_module(script, builder))
                for name, script, builder in EXAMPLE_DESIGNS
            ]
            built[pdk_name] = []
            for name, module in modules:
                mapped = synthesize(module, pdk.library, verify=False).mapped
                built[pdk_name].append(
                    (name, mapped, build_chip_gds(implement(mapped, pdk)))
                )
        return built[pdk_name]

    return stacks


@pytest.fixture(scope="module")
def catalogue_layouts(design_stacks):
    """PDK name -> ``(design, chip library)`` for every catalogue design."""

    def layouts(pdk_name):
        return [
            (name, library)
            for name, _, library in design_stacks(pdk_name)[:len(catalogue())]
        ]

    return layouts


@pytest.fixture(scope="module")
def counter_stack(pdk):
    """(mapped, design, gds bytes) for the catalogue counter."""
    mapped = synthesize(generate("counter").module, pdk.library).mapped
    design = implement(mapped, pdk)
    data = write_gds(build_chip_gds(design))
    return mapped, design, data


def records(data):
    """Yield ``(offset, record type)`` of every record in a stream."""
    offset = 0
    while offset < len(data):
        (length,) = struct_mod.unpack_from(">H", data, offset)
        yield offset, data[offset + 2]
        offset += length


class TestGdsHardening:
    """Malformed streams must raise ValueError — never IndexError or
    struct.error — with the offending record's byte offset."""

    def test_truncations_never_crash(self, counter_stack):
        _, _, data = counter_stack
        for cut in range(0, min(len(data), 4000), 7):
            try:
                read_gds(data[:cut])
            except ValueError as error:  # the only acceptable exception
                assert "offset" in str(error)

    def test_garbage_never_crashes(self):
        rng = random.Random(7)
        for _ in range(50):
            blob = bytes(rng.randrange(256) for _ in range(200))
            try:
                read_gds(blob)
            except ValueError as error:
                assert "offset" in str(error)

    def test_bitflips_never_crash(self, counter_stack):
        _, _, data = counter_stack
        rng = random.Random(11)
        for _ in range(50):
            blob = bytearray(data)
            pos = rng.randrange(len(blob))
            blob[pos] ^= 1 << rng.randrange(8)
            try:
                read_gds(bytes(blob))
            except ValueError as error:
                assert "offset" in str(error)

    def test_error_carries_offset(self):
        with pytest.raises(ValueError, match="offset 0"):
            read_gds(b"\x00\x08\x04\x02")  # 8-byte record, 4-byte stream

    def test_invalid_record_length(self):
        # Record length below the 4-byte header is structurally invalid.
        with pytest.raises(ValueError, match="length"):
            read_gds(struct_mod.pack(">HBB", 2, 0x00, 0x02) + b"\x00" * 8)

    def test_sref_without_xy_rejected(self, counter_stack):
        _, _, data = counter_stack
        # Excise the first XY record that follows an SREF header.
        sref = data.find(b"\x00\x04\x0a\x00")  # 4-byte SREF record
        assert sref >= 0
        offset = sref
        while True:
            (length,) = struct_mod.unpack_from(">H", data, offset)
            rtype = data[offset + 2]
            if rtype == 0x10:  # XY
                blob = data[:offset] + data[offset + length:]
                break
            offset += length
        with pytest.raises(ValueError, match="no XY"):
            read_gds(blob)

    def test_boundary_without_xy_rejected(self):
        library = GdsLibrary("lib")
        library.add(GdsStruct("top")).add_rect_um(10, 0, 0.0, 0.0, 1.0, 1.0)
        data = write_gds(library)
        xy = next(offset for offset, rtype in records(data) if rtype == 0x10)
        (length,) = struct_mod.unpack_from(">H", data, xy)
        # ENDEL now starts where the excised XY record did.
        with pytest.raises(
            ValueError,
            match=f"BOUNDARY element ending at offset {xy} has no XY",
        ):
            read_gds(data[:xy] + data[xy + length:])

    @pytest.mark.parametrize("rtype, name", [
        (0x02, "LIBNAME"), (0x06, "STRNAME"), (0x12, "SNAME"),
        (0x19, "STRING"),
    ])
    def test_non_ascii_name_rejected(self, rtype, name):
        library = GdsLibrary("lib")
        library.add(GdsStruct("leaf"))
        top = library.add(GdsStruct("top"))
        top.srefs.append(GdsSRef("leaf", (0, 0)))
        top.texts.append(GdsText(1, "a", (0, 0)))
        blob = bytearray(write_gds(library))
        offset = next(o for o, r in records(bytes(blob)) if r == rtype)
        blob[offset + 4] = 0xE9
        with pytest.raises(
            ValueError, match=f"{name} record at offset {offset} is not ASCII"
        ):
            read_gds(bytes(blob))

    def test_endstr_without_struct_skipped(self):
        # ENDSTR with no open structure parses to an empty library.
        blob = (
            struct_mod.pack(">HBB", 4, 0x07, 0x00)  # ENDSTR
            + struct_mod.pack(">HBB", 4, 0x04, 0x00)  # ENDLIB
        )
        assert read_gds(blob).structs == []

    def test_units_mismatch_rejected(self, counter_stack):
        _, _, data = counter_stack
        units = data.find(b"\x00\x14\x03\x05")  # 20-byte UNITS record
        assert units >= 0
        blob = bytearray(data)
        blob[units + 4] = 0x45  # corrupt the first real8's exponent
        with pytest.raises(ValueError, match="UNITS"):
            read_gds(bytes(blob))

    def test_roundtrip_every_catalogue_design(self, catalogue_layouts):
        for _, library in catalogue_layouts("edu130"):
            parsed = read_gds(write_gds(library))
            assert [s.name for s in parsed.structs] == [
                s.name for s in library.structs
            ]
            for original, copy in zip(library.structs, parsed.structs):
                assert np.array_equal(copy.rects, original.rects)
                assert copy.rings == original.rings
                assert copy.srefs == original.srefs
                assert copy.texts == original.texts


# -- the record-by-record GDS code the rectangle table replaced: oracle --


def assert_matches_reference(library, top_name):
    """``library`` writes, parses and flattens exactly as the point-ring
    reference code does, and its stream reads back to itself."""
    data = write_gds(library)
    reference = to_reference(library)
    assert data == reference_write(reference)
    parsed = read_gds(data)
    assert to_reference(parsed) == reference
    assert reference_read(data) == reference
    assert write_gds(parsed) == data
    keys = sorted({
        (layer, datatype)
        for s in library.structs for layer, datatype in s.rects[:, :2].tolist()
    })
    expected = reference_flatten(reference, top_name)
    for flat in (flatten_rects(library, top_name, keys),
                 flatten_rects(parsed, top_name, keys)):
        for key in keys:
            assert np.array_equal(
                flat[key], expected.get(key, np.empty((0, 4)))
            ), key


def read_outcome(read, blob):
    """What ``read`` makes of ``blob``: a reference library or the
    located error it raised."""
    try:
        library = read(blob)
    except ValueError as error:
        assert "offset" in str(error)
        return str(error)
    return library if isinstance(library, RefLibrary) else to_reference(
        library
    )


def mixed_library() -> GdsLibrary:
    """Rectangle runs broken by rings, SREFs and TEXTs: a small stream
    whose every byte the corruption tests can reach."""
    library = GdsLibrary("mixed")
    leaf = library.add(GdsStruct("leaf"))
    leaf.add_rect(1, 0, 0, 0, 40, 20)
    leaf.add_boundary(2, 0, [(0, 0), (0, 5), (5, 5), (5, 0), (0, 0)])
    leaf.add_rect(3, 1, 10, 4, 14, 8)
    top = library.add(GdsStruct("top"))
    for index in range(20):
        if index in (5, 6, 13):
            top.add_boundary(10, 1, [(index, 0), (index + 9, 3), (0, 7)])
        top.add_rect(10 + index % 3, index % 2, index, -index, 3 * index, 9)
    top.srefs.append(GdsSRef("leaf", (100, -50)))
    top.srefs.append(GdsSRef("leaf", (-7, 300)))
    top.texts.append(GdsText(60, "pin", (3, 4)))
    return library


def probe_blocks(struct_def) -> list[int]:
    """The block sizes ``read_gds`` decodes with ``np.frombuffer`` while
    parsing a stream of one structure."""
    blocks = []
    frombuffer = np.frombuffer

    def spy(data, dtype, count, offset):
        blocks.append(count)
        return frombuffer(data, dtype, count, offset)

    data = write_gds(GdsLibrary("probe", [struct_def]))
    with mock.patch.object(np, "frombuffer", spy):
        assert read_gds(data).structs == [struct_def]
    return blocks


coord = st.one_of(
    st.integers(-3, 3), st.integers(-(1 << 31), (1 << 31) - 1)
)
gds_layer = st.integers(-(1 << 15), (1 << 15) - 1)
soup_element = st.one_of(
    # Any two corners: reversed, zero-area and negative rects.
    st.tuples(st.just("rect"), gds_layer, gds_layer, coord, coord, coord,
              coord),
    # A rectangle ring drawn the other way round.
    st.tuples(st.just("clockwise"), gds_layer, gds_layer, coord, coord,
              coord, coord),
    st.tuples(st.just("ring"), gds_layer, gds_layer,
              st.lists(st.tuples(coord, coord), min_size=1, max_size=9)),
)


def add_element(struct, reference, element):
    """Draw one soup element into a table struct and its reference."""
    kind, layer, datatype, *shape = element
    if kind == "rect":
        struct.add_rect(layer, datatype, *shape)
        ring = rect_ring(*shape)
    else:
        if kind == "clockwise":
            x0, y0, x1, y1 = shape
            ring = ((x0, y0), (x0, y1), (x1, y1), (x1, y0), (x0, y0))
        else:
            ring = tuple(shape[0])
        struct.add_boundary(layer, datatype, list(ring))
    reference.boundaries.append((layer, datatype, ring))


class TestRectangleTable:
    """The rectangle table packs, parses and flattens byte for byte and
    bit for bit like the point-ring code in ``gds_reference``."""

    @pytest.mark.parametrize("pdk_name", ["edu130", "edu180"])
    def test_catalogue_matches_reference(self, pdk_name, catalogue_layouts):
        for _, library in catalogue_layouts(pdk_name):
            assert_matches_reference(library, infer_top(library).name)

    def test_mutant_of_every_kind_matches_reference(self, counter_stack):
        _, _, data = counter_stack
        for kind in TROJAN_KINDS:
            mutant = mutate_gds(data, seed=0, kind=kind)
            assert mutant == reference_mutate(data, 0, kind)
            library = read_gds(mutant[0])
            assert_matches_reference(library, infer_top(library).name)

    @pytest.mark.parametrize("run", [1, 15, 16, 17, 47, 48, 49, 130])
    def test_runs_around_probe_blocks(self, run):
        library = GdsLibrary("runs")
        top = library.add(GdsStruct("top"))
        for index in range(run):
            top.add_rect(1, 0, index, 0, index + 1, 2)
        top.add_boundary(1, 0, [(0, 0), (1, 1), (2, 0), (0, 0)])
        for index in range(run):
            top.add_rect(2, 0, -index, 0, 0, index)
        top.texts.append(GdsText(60, "end", (0, 0)))
        assert len(top.rings) == 1
        assert_matches_reference(library, "top")

    def test_run_probe_stays_linear(self):
        """A long run takes a logarithmic number of probes, and each short
        run between rings decodes one bounded block."""
        long_run = GdsStruct("long")
        for index in range(4096):
            long_run.add_rect(1, 0, index, 0, index + 1, 1)
        blocks = probe_blocks(long_run)
        assert len(blocks) <= 10
        assert sum(blocks) <= 2 * 4096 + 16
        short_runs = GdsStruct("short")
        for index in range(500):
            short_runs.add_rect(1, 0, index, 0, index + 1, 1)
            short_runs.add_boundary(1, 0, [(index, 0), (0, 1), (0, 0)])
        assert sum(probe_blocks(short_runs)) <= 16 * 1000

    @given(cell=st.lists(soup_element, max_size=24),
           placed=st.lists(soup_element, max_size=8),
           refs=st.lists(st.tuples(coord, coord), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_soups_match_reference(self, cell, placed, refs):
        library = GdsLibrary("soup")
        reference = RefLibrary("soup")
        for name, elements in (("CELL", cell), ("TOP", placed)):
            struct = library.add(GdsStruct(name))
            ref = RefStruct(name)
            reference.structs.append(ref)
            for element in elements:
                add_element(struct, ref, element)
        for position in refs:
            library.structs[1].srefs.append(GdsSRef("CELL", position))
            reference.structs[1].srefs.append(GdsSRef("CELL", position))
        assert to_reference(library) == reference
        assert_matches_reference(library, "TOP")

    def test_corrupt_streams_read_like_reference(self):
        data = write_gds(mixed_library())
        assert read_outcome(read_gds, data) == reference_read(data)
        for cut in range(len(data)):
            blob = data[:cut]
            assert read_outcome(read_gds, blob) == read_outcome(
                reference_read, blob
            ), cut
        rng = random.Random(3)
        for _ in range(400):
            blob = bytearray(data)
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            blob = bytes(blob)
            assert read_outcome(read_gds, blob) == read_outcome(
                reference_read, blob
            )


# -- the bucket-grid touch search the array kernel replaced: test oracle --


class UnionFind:
    """Disjoint sets over ``range(n)`` with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


class RectIndex:
    """Spatial grid over rectangles for near-linear touch queries."""

    def __init__(self, bucket=4096):
        self.bucket = bucket
        self.cells = defaultdict(list)
        self.rects = []
        self.ids = []

    def add(self, shape_id, rect):
        index = len(self.rects)
        self.rects.append(rect)
        self.ids.append(shape_id)
        b = self.bucket
        for bx in range(rect[0] // b, rect[2] // b + 1):
            for by in range(rect[1] // b, rect[3] // b + 1):
                self.cells[(bx, by)].append(index)

    def touching(self, rect):
        """Yield ``(shape_id, rect)`` of every indexed rect touching
        ``rect`` (deduplicated)."""
        b = self.bucket
        seen = set()
        for bx in range(rect[0] // b, rect[2] // b + 1):
            for by in range(rect[1] // b, rect[3] // b + 1):
                for index in self.cells.get((bx, by), ()):
                    if index in seen:
                        continue
                    seen.add(index)
                    other = self.rects[index]
                    if touches(rect, other):
                        yield self.ids[index], other


def connect_touching(uf, shapes_a, index_b):
    """Union every shape in ``shapes_a`` with every touching shape of
    ``index_b`` (shape ids are union-find element ids)."""
    for sid, rect in shapes_a:
        for other_id, _ in index_b.touching(rect):
            if other_id != sid:
                uf.union(sid, other_id)


def oracle_pairs(a, b):
    """Every ``(i, j)`` with ``a[i]`` touching ``b[j]``, by bucket grid."""
    index = RectIndex()
    for j, rect in enumerate(b):
        index.add(j, tuple(rect))
    return {
        (i, j) for i, rect in enumerate(a)
        for j, _ in index.touching(tuple(rect))
    }


def kernel_pairs(a, b):
    """The same pair set from the array kernel, all batches joined."""
    return {
        (i, j)
        for ia, jb in touching_pairs(rect_array(a), rect_array(b))
        for i, j in zip(ia.tolist(), jb.tolist())
    }


def recorded_touch_calls(source, pdk):
    """Extract ``source`` and return the ``(a, b)`` rect arrays of every
    touch search extraction ran, in call order."""
    calls = []

    def spy(a, b):
        calls.append((a.tolist(), b.tolist()))
        return touching_pairs(a, b)

    with mock.patch.object(netlist_module, "touching_pairs", spy):
        extract_netlist(source, pdk)
    return calls


def assert_kernel_matches_oracle(source, pdk):
    calls = recorded_touch_calls(source, pdk)
    # li, met1, met2 with themselves; lic with li and met1; via1 with
    # met1 and met2; then the port-label points against li.
    assert len(calls) == 8
    for a, b in calls:
        assert kernel_pairs(a, b) == oracle_pairs(a, b)


rect_coord = st.builds(
    lambda cell, jitter: cell * 1000 + jitter,
    st.integers(-6, 6), st.sampled_from([-1, 0, 0, 1]),
)
# 0 makes zero-width rects; 5000 and 9000 outrun the old 4096 nm bucket.
rect_size = st.sampled_from([0, 2, 1000, 2000, 5000, 9000])
rect_soup = st.lists(
    st.builds(
        lambda x, y, w, h: (x, y, x + w, y + h),
        rect_coord, rect_coord, rect_size, rect_size,
    ),
    max_size=40,
).map(lambda rects: rects + rects[: len(rects) // 4])  # duplicates


class TestTouchKernel:
    """The array kernel finds exactly the pairs the bucket-grid search
    found, and numbers nets exactly as union-find did."""

    @pytest.mark.parametrize("pdk_name", ["edu130", "edu180"])
    def test_catalogue_layers_match_oracle(self, pdk_name, catalogue_layouts):
        pdk = get_pdk(pdk_name)
        for _, library in catalogue_layouts(pdk_name):
            assert_kernel_matches_oracle(library, pdk)

    def test_mutant_layers_match_oracle(self, counter_stack, pdk):
        _, _, data = counter_stack
        for kind in TROJAN_KINDS:
            for seed in range(3):
                mutant, _ = mutate_gds(data, seed=seed, kind=kind)
                assert_kernel_matches_oracle(mutant, pdk)

    @given(a=rect_soup, b=rect_soup, batch=st.sampled_from([1, 7, 1 << 20]))
    @example(
        # Runs past the 4096 nm bucket in both orientations on one layer,
        # a shared corner, a duplicate, and zero-size negative points.
        a=[(0, 0, 9000, 2), (4000, -5000, 4002, 5000), (9000, 2, 9002, 900),
           (0, 0, 9000, 2), (-3000, -3000, -3000, -3000)],
        b=[(9000, 2, 9000, 2), (-3000, -3001, -2999, -3000), (4002, 5000,
           4002, 9000)],
        batch=1,
    )
    @settings(max_examples=100, deadline=None)
    def test_rect_soups_match_oracle(self, a, b, batch):
        with mock.patch.object(geom, "_BATCH", batch):
            assert kernel_pairs(a, a) == oracle_pairs(a, a)
            assert kernel_pairs(a, b) == oracle_pairs(a, b)
            assert kernel_pairs(b, a) == oracle_pairs(b, a)

    @given(
        metal=rect_soup, cuts=rect_soup, batch=st.sampled_from([1, 1 << 20])
    )
    @settings(max_examples=60, deadline=None)
    def test_components_number_nets_like_union_find(self, metal, cuts, batch):
        # Shape ids: metal first, then cuts; cuts join metal only.
        sids_metal = list(range(len(metal)))
        sids_cut = list(range(len(metal), len(metal) + len(cuts)))
        n = len(metal) + len(cuts)
        uf = UnionFind(n)
        index = RectIndex()
        for sid, rect in zip(sids_metal, metal):
            index.add(sid, rect)
        connect_touching(uf, list(zip(sids_metal, metal)), index)
        connect_touching(uf, list(zip(sids_cut, cuts)), index)
        lowest, net_of_root = {}, {}
        for sid in range(n):
            lowest.setdefault(uf.find(sid), sid)
            net_of_root.setdefault(uf.find(sid), len(net_of_root))

        with mock.patch.object(geom, "_BATCH", batch):
            metal_array, cut_array = rect_array(metal), rect_array(cuts)
            ids_metal, ids_cut = np.array(sids_metal), np.array(sids_cut)
            root = components(n, [
                *((ids_metal[i], ids_metal[j])
                  for i, j in touching_pairs(metal_array, metal_array)),
                *((ids_cut[i], ids_metal[j])
                  for i, j in touching_pairs(cut_array, metal_array)),
            ])
        assert root.tolist() == [lowest[uf.find(s)] for s in range(n)]
        # Lowest-id order is union-find's first-appearance net order.
        is_root = root == np.arange(n)
        assert (np.cumsum(is_root) - 1)[root].tolist() == [
            net_of_root[uf.find(s)] for s in range(n)
        ]


class TestIdentify:
    def test_reference_fingerprints_distinct(self):
        for pdk_name in ("edu045", "edu130", "edu180"):
            pdk = get_pdk(pdk_name)
            table = reference_fingerprints(pdk)
            assert len(table) == len(pdk.library.cells)

    def test_reference_table_built_once_per_pdk(self):
        for make in (make_edu045, make_edu130, make_edu180):
            pdk = get_pdk(make.__name__.removeprefix("make_"))
            table = reference_fingerprints(pdk)
            assert reference_fingerprints(pdk) is table
            # A PDK built outside get_pdk fingerprints its own library.
            fresh = make()
            fresh_table = reference_fingerprints(fresh)
            assert fresh_table is not table
            assert {fp: c.name for fp, c in fresh_table.items()} == {
                fp: c.name for fp, c in table.items()
            }
            for cell in fresh_table.values():
                assert fresh.library.cells[cell.name] is cell

    def test_reference_table_never_crosses_pdks(self, monkeypatch):
        # Every PDK on one id: what CPython does when it hands a collected
        # PDK's address to the next one allocated.
        monkeypatch.setattr(identify_module, "id", lambda obj: 0,
                            raising=False)
        pdk = get_pdk("edu180")
        cells = dict(pdk.library.cells)
        del cells["INV_X1"]
        full = dataclasses.replace(pdk)
        assert len(reference_fingerprints(full)) == len(pdk.library.cells)
        del full
        gc.collect()
        trimmed = dataclasses.replace(
            pdk, library=dataclasses.replace(pdk.library, cells=cells)
        )
        table = reference_fingerprints(trimmed)
        assert len(table) == len(cells)
        assert "INV_X1" not in {cell.name for cell in table.values()}

    def test_fingerprint_ignores_label_texts(self, pdk):
        cell = pdk.library.cells["INV_X1"]
        label = pdk.layers.by_name("label").gds_layer
        a = cell_master_struct(cell, pdk)
        b = cell_master_struct(cell, pdk)
        for text in b.texts:
            if text.layer == label:
                text.text = "TOTALLY_DIFFERENT"
        exclude = frozenset((label,))
        assert master_fingerprint(a, exclude) == master_fingerprint(b, exclude)

    def test_renamed_masters_still_identified(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        library = read_gds(data)
        renames = {}
        for index, struct in enumerate(library.structs):
            if struct.name == mapped.name:
                continue
            renames[struct.name] = f"obf_{index}"
            struct.name = f"obf_{index}"
        for struct in library.structs:
            for sref in struct.srefs:
                sref.struct_name = renames.get(sref.struct_name,
                                               sref.struct_name)
        top = library.struct(mapped.name)
        mapping, mismatches = identify_masters(library, top, pdk)
        assert not mismatches
        assert {cell.name for cell in mapping.values()} == {
            inst.cell.name for inst in mapped.cells
        }
        # ...and the full LVS run stays clean end to end.
        report = run_lvs(write_gds(library), mapped, pdk)
        assert report.clean, report.mismatches[:5]

    def test_tampered_master_flagged(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        library = read_gds(data)
        victim = next(
            s for s in library.structs if s.name in pdk.library.cells
        )
        victim.move_rect(0, 2, 0)
        _, mismatches = identify_masters(
            library, library.struct(mapped.name), pdk
        )
        assert any("tampered" in m for m in mismatches)

    def test_infer_top(self, counter_stack):
        mapped, _, data = counter_stack
        assert infer_top(read_gds(data)).name == mapped.name


class TestExtraction:
    def test_counter_extracts_clean(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        extraction = extract_netlist(data, pdk)
        assert extraction.clean, extraction.mismatches[:5]
        assert len(extraction.instances) == len(mapped.cells)
        used_nets = {
            net for inst in mapped.cells for net in inst.pins.values()
        } | {
            net for ports in (mapped.inputs, mapped.outputs)
            for nets in ports.values() for net in nets
        }
        assert extraction.n_nets == len(used_nets)
        assert set(extraction.ports) == (
            set(mapped.inputs) | set(mapped.outputs)
        )
        assert "cells" in extraction.summary()

    def test_every_pin_has_a_net(self, counter_stack, pdk):
        _, _, data = counter_stack
        for inst in extract_netlist(data, pdk).instances:
            expected = set(inst.cell.inputs)
            if inst.cell.output:
                expected.add(inst.cell.output)
            assert set(inst.pins) == expected

    def test_compare_accepts_self(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        extraction = extract_netlist(data, pdk)
        mismatches, pairing = compare_netlists(extraction, mapped)
        assert not mismatches
        assert len(pairing) == len(mapped.cells)

    def test_foreign_geometry_is_floating(self, counter_stack, pdk):
        _, _, data = counter_stack
        library = read_gds(data)
        top = infer_top(library)
        top.add_rect_um(10, 1, 1.0, 1.0, 3.0, 1.002)  # stray met1 wire
        extraction = extract_netlist(library, pdk)
        assert any("floating" in m for m in extraction.mismatches)


class TestLvsReport:
    def test_json_roundtrip(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        report = run_lvs(data, mapped, pdk)
        assert report.clean
        assert report.mode == "connectivity"
        assert report.lec_equivalent is True
        back = LvsReport.from_json(report.to_json())
        assert back.to_dict() == report.to_dict()
        assert back.clean

    def test_census_wrapper_still_works(self, counter_stack):
        _, design, data = counter_stack
        report = check_lvs(read_gds(data), design)
        assert report.clean
        assert report.mode == "census"
        assert "LVS CLEAN" in report.summary()

    def test_unreadable_stream_is_a_mismatch(self, counter_stack, pdk):
        mapped, _, _ = counter_stack
        report = run_lvs(b"\x00\x01garbage", mapped, pdk)
        assert not report.clean
        assert any("unreadable" in m for m in report.mismatches)


class TestTrojans:
    def test_every_kind_caught(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        for kind in TROJAN_KINDS:
            mutant, description = mutate_gds(data, seed=0, kind=kind)
            report = run_lvs(mutant, mapped, pdk)
            assert not report.clean, f"{kind} not caught: {description}"
            assert kind in description

    def test_swap_cells_defeats_census_but_not_lvs(self, counter_stack, pdk):
        mapped, design, data = counter_stack
        mutant, _ = mutate_gds(data, seed=0, kind="swap_cells")
        census = check_lvs(read_gds(mutant), design)
        assert census.clean  # the census-invisible trojan...
        report = run_lvs(mutant, mapped, pdk)
        assert not report.clean  # ...is exactly what LVS v2 exists for

    def test_deterministic_per_seed(self, counter_stack):
        _, _, data = counter_stack
        assert mutate_gds(data, seed=3) == mutate_gds(data, seed=3)

    def test_unknown_kind_rejected(self, counter_stack):
        _, _, data = counter_stack
        with pytest.raises(ValueError):
            mutate_gds(data, kind="melt_the_chip")


class TestFlowIntegration:
    @pytest.fixture(scope="class")
    def flow_result(self, pdk):
        module = generate("gray_counter").module
        return run_flow(module, pdk, FlowOptions(extract_lvs=True))

    def test_flow_gate_populates_report(self, flow_result):
        assert flow_result.ok
        assert flow_result.lvs is not None
        assert flow_result.lvs.clean
        assert flow_result.lvs.lec_equivalent is True

    def test_result_json_fixed_point(self, flow_result):
        text = flow_result.to_json()
        assert FlowResult.from_json(text).to_json() == text

    def test_signoff_prefers_connectivity_verdict(self, flow_result):
        report = run_signoff(flow_result)
        item = next(i for i in report.items if i.name == "lvs_clean")
        assert item.passed
        assert "nets" in item.detail  # connectivity-grade summary

    def test_extract_spans_emitted(self, flow_result):
        names = {span.name for span in flow_result.trace}
        assert {"extract.lvs", "extract.identify", "extract.flatten",
                "extract.connect", "extract.compare",
                "extract.lec"} <= names


class TestCli:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["lvs", "--ip", "lfsr", "--pdk", "edu130"]) == 0
        assert "LVS CLEAN" in capsys.readouterr().out

    def test_trojan_exits_one(self, capsys, tmp_path):
        path = tmp_path / "lvs.json"
        code = main([
            "lvs", "--ip", "lfsr", "--pdk", "edu130",
            "--trojan", "delete_via", "--json", str(path),
        ])
        assert code == 1
        report = LvsReport.from_json(path.read_text())
        assert not report.clean

    def test_usage_errors_exit_two(self, capsys):
        assert main(["lvs"]) == 2
        assert main(["lvs", "--ip", "no_such_ip"]) == 2
        assert main(["lvs", "--ip", "lfsr", "--trojan", "bogus"]) == 2


# -- the per-side md5 digest refinement the joint classes replaced: oracle --


def digest(payload):
    return hashlib.md5(repr(payload).encode()).digest()


class DigestView:
    """One side of the comparison, refined on its own with md5 digests
    until its own signature count stops growing."""

    def __init__(self, cells, ports):
        self.cells = cells
        self.nets = set(ports.values())
        for _, pins in cells:
            self.nets.update(pins.values())
        port_refs = {}
        for label, net in ports.items():
            port_refs.setdefault(net, []).append(label)
        self.port_refs = {
            net: tuple(sorted(labels)) for net, labels in port_refs.items()
        }
        self.net_sig = {}
        self.cell_sig = []

    def refine_round(self):
        self.cell_sig = [
            digest((kind, tuple(sorted(
                (pin, self.net_sig[net]) for pin, net in pins.items()
            ))))
            for kind, pins in self.cells
        ]
        touch = {net: [] for net in self.nets}
        for sig, (_, pins) in zip(self.cell_sig, self.cells):
            for pin, net in pins.items():
                touch[net].append((sig, pin))
        self.net_sig = {
            net: digest((self.net_sig[net], tuple(sorted(touch[net]))))
            for net in self.nets
        }

    def refine(self):
        self.net_sig = {
            net: digest(("net", self.port_refs.get(net, ())))
            for net in self.nets
        }
        classes = 0
        for _ in range(compare_module.MAX_ROUNDS):
            self.refine_round()
            now = len(set(self.net_sig.values())) + len(set(self.cell_sig))
            if now == classes:
                break
            classes = now


def digest_views(extraction, mapped):
    """Both sides refined by the digest oracle: extracted, mapped."""
    views = (
        DigestView([(i.cell.name, i.pins) for i in extraction.instances],
                   compare_module._extracted_port_map(extraction)),
        DigestView([(i.cell.name, i.pins) for i in mapped.cells],
                   compare_module._port_map(mapped)),
    )
    for view in views:
        view.refine()
    return views


def digest_clean(extraction, mapped):
    """The oracle's verdict: same ports, same signature multisets."""
    ext, ref = digest_views(extraction, mapped)
    return (
        set(compare_module._extracted_port_map(extraction))
        == set(compare_module._port_map(mapped))
        and Counter(ext.net_sig.values()) == Counter(ref.net_sig.values())
        and Counter(ext.cell_sig) == Counter(ref.cell_sig)
    )


def digest_pairs(extraction, mapped):
    """The oracle's pairing as ``(extracted index, mapped index)`` pairs:
    each signature group's members zipped in netlist order."""
    groups = [{}, {}]
    for side, view in enumerate(digest_views(extraction, mapped)):
        for index, sig in enumerate(view.cell_sig):
            groups[side].setdefault(sig, []).append(index)
    return {
        pair for sig, members in groups[0].items()
        for pair in zip(members, groups[1].get(sig, ()))
    }


def index_pairs(extraction, mapped, pairing):
    ext_index = {id(inst): i for i, inst in enumerate(extraction.instances)}
    ref_index = {id(inst): i for i, inst in enumerate(mapped.cells)}
    return {(ext_index[id(e)], ref_index[id(r)]) for e, r in pairing}


def partition(labels):
    """Each member's first fellow member: equal lists, equal partitions."""
    first = {}
    return [first.setdefault(label, index)
            for index, label in enumerate(labels)]


def joint_partitions(extraction, mapped):
    """Per side, the cell and the net partition of the joint refinement."""
    joint = compare_module._Joint(extraction, mapped)
    joint.refine()
    cells, nets = joint.cell_class.tolist(), joint.net_class.tolist()
    c, n = joint.cell_split, joint.net_split
    return [(partition(cells[:c]), partition(nets[:n])),
            (partition(cells[c:]), partition(nets[n:]))]


def digest_partitions(extraction, mapped):
    return [
        (partition(view.cell_sig),
         partition([view.net_sig[net] for net in sorted(view.nets)]))
        for view in digest_views(extraction, mapped)
    ]


def assert_matches_digest_oracle(extraction, mapped):
    """A clean compare whose partitions and pairs are the oracle's."""
    mismatches, pairing = compare_netlists(extraction, mapped)
    assert not mismatches, mismatches[:5]
    assert joint_partitions(extraction, mapped) == digest_partitions(
        extraction, mapped
    )
    pairs = index_pairs(extraction, mapped, pairing)
    assert len(pairs) == len(pairing) == len(mapped.cells)
    assert pairs == digest_pairs(extraction, mapped)


def twin_extraction(mapped, rng):
    """``mapped`` as an extraction with renumbered nets and shuffled
    instances."""
    nets = {net for inst in mapped.cells for net in inst.pins.values()}
    for ports in (mapped.inputs, mapped.outputs):
        for bits in ports.values():
            nets.update(bits)
    fresh = rng.sample(range(3 * len(nets) + 1), len(nets))
    renumber = dict(zip(sorted(nets), fresh))
    order = list(range(len(mapped.cells)))
    rng.shuffle(order)
    return ExtractionResult(
        top=mapped.name,
        instances=[
            ExtractedInstance(
                f"x{index}", mapped.cells[index].cell,
                {pin: renumber[net]
                 for pin, net in mapped.cells[index].pins.items()},
            )
            for index in order
        ],
        n_nets=len(nets),
        ports={
            port: [renumber[net] for net in bits]
            for ports in (mapped.inputs, mapped.outputs)
            for port, bits in ports.items()
        },
    )


#: Run in a fresh interpreter: extract and compare a pickled clean layout
#: and a trojaned one, print mismatches and pairing names as JSON.
HASH_SEED_PROBE = """
import json, pickle, sys
from pathlib import Path
from repro.extract import compare_netlists, extract_netlist
from repro.pdk import get_pdk
mapped, clean, trojaned = pickle.loads(Path(sys.argv[1]).read_bytes())
pdk = get_pdk("edu130")
_, pairing = compare_netlists(extract_netlist(clean, pdk), mapped)
mismatches, _ = compare_netlists(extract_netlist(trojaned, pdk), mapped)
print(json.dumps([mismatches, [[e.name, r.name] for e, r in pairing]]))
"""


@pytest.fixture(scope="module")
def mapped_designs(pdk):
    """Design name -> its edu130 mapped netlist, synthesized once."""
    built = {}

    def mapped(name):
        if name not in built:
            built[name] = synthesize(
                generate(name).module, pdk.library, verify=False,
            ).mapped
        return built[name]

    return mapped


class TestJointRefinement:
    """The joint integer classes partition and pair exactly like the
    per-side md5 digest refinement they replaced, and reach its
    verdict."""

    @pytest.mark.parametrize("pdk_name", ["edu130", "edu180"])
    def test_lvs_designs_match_digest_oracle(self, pdk_name, design_stacks):
        pdk = get_pdk(pdk_name)
        stacks = design_stacks(pdk_name)
        assert len(stacks) == 17
        for _, mapped, library in stacks:
            assert_matches_digest_oracle(extract_netlist(library, pdk), mapped)

    def test_tinycpu_commercial_matches_digest_oracle(self, pdk):
        flow = run_flow(generate("tinycpu").module, pdk,
                        FlowOptions(preset=COMMERCIAL, seed=1))
        mapped = flow.synthesis.mapped
        extraction = extract_netlist(flow.gds_bytes, pdk)
        assert len(mapped.cells) == 497
        assert_matches_digest_oracle(extraction, mapped)

    def test_mutant_verdicts_match_digest_oracle(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        for kind in TROJAN_KINDS:
            for seed in range(3):
                mutant, _ = mutate_gds(data, seed=seed, kind=kind)
                extraction = extract_netlist(mutant, pdk)
                mismatches, pairing = compare_netlists(extraction, mapped)
                assert (not mismatches) == digest_clean(extraction, mapped)
                assert bool(pairing) == (not mismatches)

    def test_pin_names_split_cells(self, pdk):
        # Two NAND2s on the same two nets, each missing a different
        # input: equal net classes pin for pin, different pin names.
        nand = pdk.library.cells["NAND2_X1"]
        a, b = nand.inputs
        mapped = MappedNetlist("pins", pdk.library)
        mapped.add_cell(nand, {a: 0, nand.output: 1})
        mapped.add_cell(nand, {b: 0, nand.output: 1})
        mapped.inputs, mapped.outputs = {"i": [0]}, {"o": [1]}
        extraction = twin_extraction(mapped, random.Random(0))
        assert_matches_digest_oracle(extraction, mapped)
        assert joint_partitions(extraction, mapped)[1][0] == [0, 1]

    @given(design=st.sampled_from(["counter", "lfsr", "alu", "seven_seg"]),
           rng=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_renumbered_twin_compares_clean(self, design, rng,
                                            mapped_designs):
        mapped = mapped_designs(design)
        extraction = twin_extraction(mapped, rng)
        assert_matches_digest_oracle(extraction, mapped)
        mismatches, pairing = compare_netlists(extraction, mapped)
        assert all(e.cell is r.cell for e, r in pairing)
        # One pin rewired, possibly onto a fresh net: the oracle's verdict.
        inst = rng.choice(extraction.instances)
        nets = sorted({n for i in extraction.instances
                       for n in i.pins.values()})
        inst.pins[rng.choice(sorted(inst.pins))] = rng.choice(
            nets + [max(nets) + 1]
        )
        mismatches, pairing = compare_netlists(extraction, mapped)
        assert (not mismatches) == digest_clean(extraction, mapped)
        assert bool(pairing) == (not mismatches)

    def test_degenerate_inputs(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        extraction = extract_netlist(data, pdk)
        empty = MappedNetlist("empty", pdk.library)
        wire = MappedNetlist("wire", pdk.library)
        wire.inputs, wire.outputs = {"a": [0]}, {"y": [0]}
        # Every placement unidentified: extraction keeps no instance.
        unplaced = dataclasses.replace(extraction, instances=[])
        mismatches, pairing = compare_netlists(unplaced, mapped)
        assert pairing == []
        assert any("layout cell" in m for m in mismatches)
        # No cells on either side.
        assert compare_netlists(ExtractionResult("empty"), empty) == ([], [])
        # Ports only: one wire clean, two wires not.
        assert compare_netlists(
            ExtractionResult("wire", n_nets=1, ports={"a": [7], "y": [7]}),
            wire,
        ) == ([], [])
        mismatches, pairing = compare_netlists(
            ExtractionResult("wire", n_nets=2, ports={"a": [3], "y": [4]}),
            wire,
        )
        assert pairing == [] and mismatches == [
            "netlist net 0 {a[0], y[0]} has no matching layout net (1x)",
            "layout net 3 {a[0]} matches no netlist net (1x)",
            "layout net 4 {y[0]} matches no netlist net (1x)",
        ]
        # Cells against no cells, both ways round.
        assert compare_netlists(extraction, empty)[0]
        assert compare_netlists(ExtractionResult("empty"), mapped)[0]

    def test_messages_list_nets_and_cells_in_order(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        mutant, _ = mutate_gds(data, seed=0, kind="swap_cells")
        mismatches, _ = compare_netlists(extract_netlist(mutant, pdk), mapped)
        assert mismatches
        for prefix in ("netlist net ", "layout net "):
            examples = [int(m[len(prefix):].split()[0])
                        for m in mismatches if m.startswith(prefix)]
            assert examples == sorted(examples)
        names = [m.split()[2] for m in mismatches
                 if m.startswith("netlist cell ")]
        order = {inst.name: index for index, inst in enumerate(mapped.cells)}
        assert names and [order[n] for n in names] == sorted(
            order[n] for n in names
        )

    def test_verdicts_ignore_the_hash_seed(self, counter_stack, tmp_path):
        mapped, _, data = counter_stack
        trojaned, _ = mutate_gds(data, seed=0, kind="swap_cells")
        stacks = tmp_path / "counter.pkl"
        stacks.write_bytes(pickle.dumps((mapped, data, trojaned)))
        path = os.pathsep.join(filter(None, (
            str(Path(repro.__file__).parents[1]),
            os.environ.get("PYTHONPATH"),
        )))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", HASH_SEED_PROBE, str(stacks)],
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": path},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "2718")
        ]
        assert outputs[0] == outputs[1]
        mismatches, pairs = json.loads(outputs[0])
        assert mismatches and len(pairs) == len(mapped.cells)
