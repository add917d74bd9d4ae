"""GDS-in signoff for every example design — the layout CI gate.

For each design built by the example scripts and every IP in the
catalogue: synthesize, implement, stream out GDSII, then treat those
*bytes* as the only source of truth — re-extract the netlist from
geometry alone (``repro.extract``), LVS it net-by-net against the
mapped netlist and prove equivalence with the formal LEC miter.  Each
design's routing overflow goes in the report too.  Writes one JSON
report and exits nonzero on any mismatch; a placed cell outside the
core stops the run earlier, with the ``PlacementError`` that placement's
containment check raises.

With ``--mutate`` it also runs the trojan drill: for every trojan class
(:data:`repro.extract.TROJAN_KINDS`) a seeded layout mutation is
planted in the counter's GDS and the check *must* fail.  A layout
signoff that passes a trojaned mask is worse than none.

Usage::

    python examples/lvs_designs.py [report.json]
    python examples/lvs_designs.py --mutate [report.json]
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.extract import TROJAN_KINDS, mutate_gds, run_lvs  # noqa: E402
from repro.ip.catalog import catalogue, generate  # noqa: E402
from repro.layout import build_chip_gds, write_gds  # noqa: E402
from repro.pdk import get_pdk  # noqa: E402
from repro.pnr import implement  # noqa: E402
from repro.synth import synthesize  # noqa: E402

from quickstart import build_counter  # noqa: E402
from research_node_access import build_research_datapath  # noqa: E402
from tiny_soc import build_soc  # noqa: E402


def example_modules():
    yield "examples/quickstart", build_counter()
    yield "examples/research_node_access", build_research_datapath()
    yield "examples/tiny_soc", build_soc()
    for name in catalogue():
        yield f"ip/{name}", generate(name).module


def lvs_all(pdk):
    """Signoff gate: every design's GDS bytes must extract and verify."""
    designs = []
    failed = []
    for name, module in example_modules():
        mapped = synthesize(module, pdk.library).mapped
        design = implement(mapped, pdk)
        data = write_gds(build_chip_gds(design))
        report = run_lvs(data, mapped, pdk)
        verdict = "CLEAN" if report.clean else "FAIL"
        print(f"{name:35s} {verdict:6s} {report.summary()} "
              f"overflow={design.routing.overflow}")
        for mismatch in report.mismatches[:5]:
            print(f"  {mismatch}")
        if not report.clean:
            failed.append(name)
        designs.append({
            "design": name,
            "gds_bytes": len(data),
            "route_overflow": design.routing.overflow,
            "report": report.to_dict(),
        })
    return designs, failed


def must_fail_trojaned(pdk):
    """Trojan drill: every mutation class must be caught.

    Some seeds are inapplicable to a given layout (e.g. no via to
    delete); seeds are tried in order until one applies.  An applicable
    mutant that passes LVS is a gate failure.
    """
    module = generate("counter").module
    mapped = synthesize(module, pdk.library).mapped
    data = write_gds(build_chip_gds(implement(mapped, pdk)))
    drills = []
    all_caught = True
    for kind in TROJAN_KINDS:
        caught = None
        for seed in range(16):
            try:
                mutant, description = mutate_gds(data, seed=seed, kind=kind)
            except ValueError:
                continue
            report = run_lvs(mutant, mapped, pdk)
            caught = not report.clean
            print(f"trojan {kind:12s} seed={seed} "
                  f"{'CAUGHT' if caught else 'MISSED'}: {description}")
            drills.append({
                "kind": kind,
                "seed": seed,
                "caught": caught,
                "description": description,
                "mismatches": len(report.mismatches),
            })
            break
        if caught is None:
            print(f"trojan {kind:12s} not applicable to this layout")
            all_caught = False
        elif not caught:
            all_caught = False
    return drills, all_caught


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("-")]
    mutate = "--mutate" in argv
    report_path = args[0] if args else None
    pdk = get_pdk("edu130")

    designs, failed = lvs_all(pdk)
    drills, guard_ok = must_fail_trojaned(pdk) if mutate else ([], None)

    if report_path:
        payload = {
            "designs": designs,
            "passed": not failed,
            "failed": failed,
        }
        if guard_ok is not None:
            payload["trojan_drills"] = drills
            payload["trojan_guard"] = guard_ok
        directory = os.path.dirname(report_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(report_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"report written to {report_path}")

    if failed:
        print(f"LVS gate FAILED for: {', '.join(failed)}")
        return 1
    if guard_ok is False:
        print("trojan drill FAILED: a planted layout trojan passed LVS")
        return 1
    print(f"LVS gate passed: {len(designs)} designs verified from GDS bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
