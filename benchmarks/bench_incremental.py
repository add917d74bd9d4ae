"""Interactive edit-loop benchmark: Workspace.edit vs full rebuild.

Opens a :class:`repro.inter.Workspace` on the catalogue's largest
design (the composed ``soc``) and measures the cost of one-module edits
— the seven-segment decoder re-encode that ``repro edit --demo`` also
applies — against a full from-scratch ``run_flow``:

* **Speedup** — the best of three real edits (recode, revert, recode;
  every one changes logic and re-verifies) against one full flat flow
  over the same design.  Hash-diff dirty sets, memoized shard
  synthesis, region-stable placement and verified-replay routing are
  what make the gap.
* **Byte identity** — the incremental result must equal a from-scratch
  rebuild of the edited design bit for bit (GDS compared), because
  every eco engine is deterministic-modulo-memo.  A fast-but-different
  edit path would be a bug, not an optimization.
* **Proof** — every edit must be proven by the full LEC (no fallback
  rebuilds on the happy path).
* **Replay** — each edit's replayed and live-routed net counts, read
  from the workspace's ``inter.route.*`` counters.

Writes ``BENCH_incremental.json`` and exits nonzero if the edit speedup
drops below the CI floor (10x), any edit falls back, or the GDS
diverges from the from-scratch rebuild.

Usage::

    python benchmarks/bench_incremental.py [BENCH_incremental.json]
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import FlowOptions, run_flow
from repro.inter import Workspace
from repro.ip import make_soc
from repro.ip.soc import sevenseg_recode_rtl
from repro.obs.metrics import MetricsRegistry
from repro.pdk import get_pdk

CI_FLOOR = 10.0
CLOCK_PERIOD_PS = 6_000.0
EDIT_MODULE = "sevenseg"


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _route_counts(metrics: MetricsRegistry) -> dict[str, int]:
    """Nets the workspace's router has replayed and routed live so far."""
    return {
        kind: int(metrics.counter(f"inter.route.{kind}").value)
        for kind in ("replayed", "routed")
    }


def main(argv: list[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_incremental.json"
    pdk = get_pdk("edu130")
    soc = make_soc().module
    options = FlowOptions(clock_period_ps=CLOCK_PERIOD_PS)

    classic, t_classic = _time(lambda: run_flow(soc, pdk, options=options))
    assert classic.ok, "full flow failed on the bench design"
    cells = len(classic.synthesis.mapped.cells)
    print(f"full rebuild: {t_classic * 1e3:8.0f} ms  ({cells} cells)")

    metrics = MetricsRegistry()
    ws, t_open = _time(
        lambda: Workspace.open(soc, pdk, options=options, metrics=metrics)
    )
    assert ws.result.ok, "workspace open failed on the bench design"
    print(f"open:         {t_open * 1e3:8.0f} ms")

    recoded = sevenseg_recode_rtl()
    original = ws.rtl_of(EDIT_MODULE)
    edits = []
    for index, rtl in enumerate((recoded, original, recoded)):
        before = _route_counts(metrics)
        report, t_edit = _time(lambda: ws.edit(EDIT_MODULE, rtl))
        after = _route_counts(metrics)
        replayed = after["replayed"] - before["replayed"]
        routed = after["routed"] - before["routed"]
        assert not report.clean, "bench edit canonicalized to a no-op"
        assert report.fallback is None, (
            f"edit {index} fell back to a full rebuild: {report.fallback}"
        )
        assert report.lec is not None and report.lec.equivalent, (
            f"edit {index} was not proven by the full LEC"
        )
        edits.append(
            {
                "edit_ms": round(t_edit * 1e3, 3),
                "dirty": sorted(report.dirty),
                "cones": len(report.lec.cones),
                "replayed": replayed,
                "routed": routed,
            }
        )
        print(
            f"edit {index}:       {t_edit * 1e3:8.0f} ms  "
            f"dirty={sorted(report.dirty)} cones={len(report.lec.cones)} "
            f"replayed={replayed} routed={routed}"
        )

    best_edit_s = min(e["edit_ms"] for e in edits) / 1e3
    speedup = t_classic / best_edit_s
    print(f"speedup: {speedup:.1f}x (floor {CI_FLOOR}x)")

    # The final workspace state holds the recoded design; a from-scratch
    # rebuild of exactly that design must produce identical bytes.
    cold, t_cold = _time(
        lambda: Workspace.open(ws.design, pdk, options=options)
    )
    identical = ws.result.gds_bytes == cold.result.gds_bytes
    print(f"from-scratch rebuild of edited design: {t_cold * 1e3:.0f} ms, "
          f"GDS identical: {identical}")

    record = {
        "design": soc.name,
        "cells": cells,
        "full_rebuild_ms": round(t_classic * 1e3, 3),
        "open_ms": round(t_open * 1e3, 3),
        "edits": edits,
        "best_edit_ms": round(best_edit_s * 1e3, 3),
        "speedup": round(speedup, 2),
        "ci_floor": CI_FLOOR,
        "gds_identical": identical,
        "ok": bool(identical and speedup >= CI_FLOOR),
    }
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")

    if not identical:
        print("FAIL: incremental GDS diverges from from-scratch rebuild",
              file=sys.stderr)
        return 1
    if speedup < CI_FLOOR:
        print(f"FAIL: edit speedup {speedup:.1f}x below floor {CI_FLOOR}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
