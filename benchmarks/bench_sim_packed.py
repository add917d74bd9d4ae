"""Word-parallel simulation benchmark: packed vs scalar throughput.

Measures the speedup of the 64-lane bit-packed engines
(:mod:`repro.sim.bitsim`) over eager scalar simulation on the three
workloads they accelerate.  The scalar side is ``tests/sim_reference.py``:
the eager gate and mapped simulators, the lockstep equivalence loop
over them and the one-witness replay.

* **Random-vector equivalence** — ``check_equivalence`` with
  ``engine="packed"`` vs the reference lockstep loop on catalogue
  designs, against both gate-level (``lower``) and mapped
  implementations.  The headline number is the geometric mean over the
  gate-level workloads, where the packed path is not bound by the
  scalar RTL reference.  Results must stay byte-identical to the
  reference — a fast path that changes answers is a bug, not an
  optimization.
* **Batched LEC replay** — ``replay_counterexamples`` (one lane per
  witness) vs one reference replay per counterexample.
* **Stuck-at fault simulation** — ``simulate_faults``, one pass of a
  wide simulator with one 64-lane block per 63 faults, vs the chunked
  reference (``simulate_faults_chunked``: one 64-lane run per chunk)
  on scan-inserted tinycpu.  The ``FaultSimReport`` must be identical.

Writes ``BENCH_sim.json`` and exits nonzero if any equivalence workload
speeds up less than the CI floor (5x) or any engine disagrees with its
reference.

Usage::

    python benchmarks/bench_sim_packed.py [BENCH_sim.json]
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from repro.formal import check_lec, mutate_netlist, replay_counterexamples
from repro.ip.catalog import generate
from repro.pdk import get_pdk
from repro.sim.bitsim import LANES
from repro.synth import (
    check_equivalence,
    insert_scan_chain,
    lower,
    simulate_faults,
    synthesize,
)
from sim_reference import (
    check_equivalence_scalar,
    replay_counterexample_scalar,
    simulate_faults_chunked,
)

CYCLES = 256
SEED = 2025
CI_FLOOR = 5.0
#: Gate-level workloads carry the headline: the packed path there is
#: dominated by packed evaluation, not the scalar RTL reference.
HEADLINE_DESIGNS = ("alu", "multiplier", "fir", "tinycpu")
MAPPED_DESIGNS = ("counter", "fir", "tinycpu")


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def bench_equivalence(library):
    """Packed vs reference random-vector equivalence, same results
    required."""
    rows = []
    for name in HEADLINE_DESIGNS:
        module = generate(name).module
        rows.append((name, "gates", module, lower(module)))
    for name in MAPPED_DESIGNS:
        module = generate(name).module
        mapped = synthesize(module, library, verify=False).mapped
        rows.append((name, "mapped", module, mapped))

    workloads = []
    for name, impl_kind, module, impl in rows:
        scalar, scalar_s = _time(lambda: check_equivalence_scalar(
            module, impl, cycles=CYCLES, seed=SEED))
        packed, packed_s = _time(lambda: check_equivalence(
            module, impl, cycles=CYCLES, seed=SEED, engine="packed"))
        identical = scalar.to_json() == packed.to_json()
        vectors = CYCLES * len(module.inputs)
        workloads.append({
            "design": name,
            "impl": impl_kind,
            "cycles": CYCLES,
            "passed": packed.passed,
            "identical_json": identical,
            "scalar_s": round(scalar_s, 4),
            "packed_s": round(packed_s, 4),
            "speedup": round(scalar_s / packed_s, 2),
            "packed_vectors_per_sec": round(vectors / packed_s),
        })
        print(f"equiv {name:12s} {impl_kind:6s} "
              f"scalar {scalar_s:7.3f}s  packed {packed_s:7.3f}s  "
              f"{scalar_s / packed_s:6.1f}x  identical={identical}")
    return workloads


def bench_replay(library):
    """Batched packed replay vs per-counterexample scalar replay.

    LEC emits one or two witnesses per failing check, and a batch of
    any size replays on one packed implementation simulator, so the
    packed path's win comes from amortizing simulator construction
    across a *wide* batch on one netlist.  The wide batch here tiles a
    genuine witness across all fault lanes — every lane does the full
    load/settle/step, so the throughput is what any 63-witness batch
    would see.
    """
    module = generate("multiplier").module
    mapped = synthesize(module, library, verify=False).mapped
    mutant, _ = mutate_netlist(mapped, seed=0)
    result = check_lec(module, mutant)
    assert not result.equivalent, "mutation guard: seed 0 must break LEC"
    batch = (result.counterexamples * LANES)[:LANES - 1]

    scalar, scalar_s = _time(lambda: [
        replay_counterexample_scalar(module, mutant, cex) for cex in batch
    ])
    packed, packed_s = _time(
        lambda: replay_counterexamples(module, mutant, batch)
    )
    identical = all(
        (a is None) == (b is None) for a, b in zip(scalar, packed)
    )
    reproduced = sum(1 for m in packed if m is not None)
    print(f"replay {len(batch)} witnesses (1 packed word): "
          f"scalar {scalar_s:.3f}s  packed {packed_s:.3f}s  "
          f"{scalar_s / packed_s:.1f}x  identical={identical}")
    return {
        "design": "multiplier",
        "witnesses": len(batch),
        "reproduced": reproduced,
        "scalar_s": round(scalar_s, 4),
        "packed_s": round(packed_s, 4),
        "speedup": round(scalar_s / packed_s, 2),
        "identical_verdicts": identical,
    }


def bench_fault_sim(library):
    """The one-pass fault simulator vs the chunked reference on the
    largest catalogue IP, same report required."""
    module = generate("tinycpu").module
    mapped = synthesize(module, library, verify=False).mapped
    insert_scan_chain(mapped)
    reference, reference_s = _time(
        lambda: simulate_faults_chunked(mapped, scanned=True))
    report, packed_s = _time(lambda: simulate_faults(mapped, scanned=True))
    identical = report == reference
    print(f"faults tinycpu: {report.total_faults} faults, "
          f"coverage {report.coverage:.3f}: reference {reference_s:.3f}s  "
          f"packed {packed_s:.3f}s  {reference_s / packed_s:.1f}x  "
          f"identical={identical}")
    return {
        "design": "tinycpu",
        "total_faults": report.total_faults,
        "coverage": round(report.coverage, 4),
        "patterns": report.patterns,
        "reference_s": round(reference_s, 4),
        "packed_s": round(packed_s, 4),
        "speedup": round(reference_s / packed_s, 2),
        "faults_per_sec": round(report.total_faults / packed_s),
        "identical": identical,
    }


def main(argv):
    out_path = argv[1] if len(argv) > 1 else "BENCH_sim.json"
    library = get_pdk("edu130").library

    workloads = bench_equivalence(library)
    replay = bench_replay(library)
    faults = bench_fault_sim(library)

    headline = [w["speedup"] for w in workloads if w["impl"] == "gates"]
    geomean = math.exp(sum(math.log(s) for s in headline) / len(headline))
    payload = {
        "lanes": LANES,
        "cycles": CYCLES,
        "seed": SEED,
        "workloads": workloads,
        "speedup_random_vector_equivalence": round(geomean, 2),
        "min_equivalence_speedup": min(w["speedup"] for w in workloads),
        "ci_floor": CI_FLOOR,
        "replay": replay,
        "fault_sim": faults,
    }
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nheadline speedup (gate-level geomean): {geomean:.1f}x")
    print(f"JSON written to {out_path}")

    failures = []
    for w in workloads:
        if not w["identical_json"]:
            failures.append(f"{w['design']}/{w['impl']}: results differ")
        if w["speedup"] < CI_FLOOR:
            failures.append(
                f"{w['design']}/{w['impl']}: {w['speedup']}x < "
                f"{CI_FLOOR}x floor"
            )
    if not replay["identical_verdicts"]:
        failures.append("replay: packed verdicts differ from scalar")
    if not faults["identical"]:
        failures.append("faults: report differs from the chunked reference")
    if failures:
        print("\nBENCH FAILED:\n  " + "\n  ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
