"""Extraction benchmark: GDS-in netlist recovery throughput.

Times the two halves of the GDS-in signoff path
(:mod:`repro.extract`) on a spread of catalogue designs:

* **extract_netlist** — stream parse + fingerprint identification +
  flatten + union-find connectivity, reported as shapes/s (the
  geometry-bound half).
* **compare_netlists** — the net-by-net connectivity comparison alone,
  on the extraction above (``compare_s``).
* **run_lvs** — the full gate: extraction, census pre-check, net-by-net
  comparison, and the LEC miter against the mapped netlist.

Every run must come back clean and LEC-equivalent — a fast extraction
that recovers the wrong netlist is a bug, not a result.  Writes
``BENCH_extract.json`` and exits nonzero on any unclean verdict.

Usage::

    python benchmarks/bench_extract.py [BENCH_extract.json]
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.extract import compare_netlists, extract_netlist, run_lvs
from repro.ip.catalog import generate
from repro.layout import build_chip_gds, write_gds
from repro.pdk import get_pdk
from repro.pnr import implement
from repro.synth import synthesize

DESIGNS = ("counter", "lfsr", "alu", "fir", "tinycpu", "soc")


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_design(name, pdk):
    module = generate(name).module
    mapped = synthesize(module, pdk.library, verify=False).mapped
    physical = implement(mapped, pdk)
    data = write_gds(build_chip_gds(physical))
    pins = {pin.name for pin in physical.floorplan.io_pins}

    extraction, extract_s = _time(lambda: extract_netlist(data, pdk))
    _, compare_s = _time(lambda: compare_netlists(extraction, mapped))
    report, lvs_s = _time(lambda: run_lvs(
        data, mapped, pdk, expected_pins=pins))
    row = {
        "design": name,
        "cells": len(mapped.cells),
        "shapes": extraction.shapes,
        "nets": extraction.n_nets,
        "gds_kib": round(len(data) / 1024, 1),
        "extract_s": round(extract_s, 4),
        "shapes_per_sec": round(extraction.shapes / extract_s),
        "compare_s": round(compare_s, 4),
        "lvs_s": round(lvs_s, 4),
        "clean": report.clean,
        "lec_equivalent": report.lec_equivalent,
    }
    print(f"  {name:>10s}: {row['shapes']:>6d} shapes, "
          f"{row['nets']:>4d} nets, extract {extract_s:.3f}s "
          f"({row['shapes_per_sec']} shapes/s), "
          f"compare {compare_s:.3f}s, "
          f"lvs+lec {lvs_s:.3f}s, "
          f"{'CLEAN' if report.clean else 'DIRTY'}")
    return row


def main(argv):
    out_path = argv[1] if len(argv) > 1 else "BENCH_extract.json"
    pdk = get_pdk("edu130")

    print("GDS-in extraction benchmark (edu130):")
    rows = [bench_design(name, pdk) for name in DESIGNS]

    payload = {
        "pdk": "edu130",
        "designs": rows,
        "total_shapes": sum(r["shapes"] for r in rows),
        "total_extract_s": round(sum(r["extract_s"] for r in rows), 4),
        "total_compare_s": round(sum(r["compare_s"] for r in rows), 4),
        "total_lvs_s": round(sum(r["lvs_s"] for r in rows), 4),
    }
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"JSON written to {out_path}")

    failures = [
        f"{r['design']}: not clean" for r in rows if not r["clean"]
    ] + [
        f"{r['design']}: LEC not equivalent" for r in rows
        if r["lec_equivalent"] is not True
    ]
    if failures:
        print("\nBENCH FAILED:\n  " + "\n  ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
