"""Command-line interface: the one-stop front door (Recommendation 7).

``python -m repro <command>`` exposes the enablement platform without
writing any Python — list PDKs and IP, generate Liberty/LEF collateral,
and run the full RTL→GDSII flow on any catalogue IP:

.. code-block:: console

   $ python -m repro pdks
   $ python -m repro ips
   $ python -m repro flow --ip counter --pdk edu130 --out build/
   $ python -m repro flow --ip counter --trace build/trace.jsonl
   $ python -m repro flow --ip alu --continue-on-error --checkpoint-dir ckpt/
   $ python -m repro edit --demo --json build/edit.json
   $ python -m repro cloud --servers 3 --jobs 24 --mtbf-min 120 --seed 7
   $ python -m repro campaign --designs 200 --tenants 4 --seed 7 \\
         --json build/campaign.json
   $ python -m repro trace build/trace.jsonl
   $ python -m repro lint --ip counter --json build/lint.json
   $ python -m repro lint --demo --waive 'net.high-fanout'
   $ python -m repro lint --ip counter --formal
   $ python -m repro prove --ip counter --pdk edu130 --json build/lec.json
   $ python -m repro liberty edu130 > edu130.lib
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .core.flow import run_flow
from .core.options import FlowOptions
from .core.reporting import full_report
from .formal import (
    LecError,
    lec_flow,
    prove_facts,
    refine_lint_report,
    replay_counterexamples,
)
from .hdl.ir import HdlError
from .hdl.verilog import to_verilog
from .hdl.verilog_parser import VerilogParseError, parse_verilog
from .ip.base import quality_score
from .ip.catalog import GENERATORS, catalogue, generate
from .layout.defio import from_physical, write_def
from .lint import (
    LintError,
    Waiver,
    lint_design,
    load_waiver_file,
    make_defective_module,
    make_defective_netlist,
)
from .obs import Tracer, get_metrics, load_trace, render_trace, write_trace
from .pdk.lef import write_library_lef
from .pdk.liberty import write_liberty
from .pdk.pdks import get_pdk, list_pdks
from .synth import synthesize


def _cmd_pdks(args) -> int:
    print(f"{'name':8s} {'nm':>5s} {'metals':>6s} {'open':>5s} "
          f"{'NDA':>4s} {'mm2 EUR':>9s} {'days':>5s}")
    for name in list_pdks():
        pdk = get_pdk(name)
        print(
            f"{name:8s} {pdk.node.feature_nm:5.0f} "
            f"{pdk.node.metal_layers:6d} {str(pdk.is_open):>5s} "
            f"{str(pdk.terms.nda_required):>4s} "
            f"{pdk.terms.mpw_cost_per_mm2_eur:9.0f} "
            f"{pdk.terms.total_turnaround_days:5d}"
        )
    return 0


def _cmd_cells(args) -> int:
    library = get_pdk(args.pdk).library
    print(f"{'cell':12s} {'area um2':>9s} {'cap fF':>7s} "
          f"{'tp ps':>7s} {'leak nW':>8s}")
    for name in sorted(library.cells):
        cell = library.cells[name]
        print(f"{name:12s} {cell.area_um2:9.3f} {cell.input_cap_ff:7.2f} "
              f"{cell.intrinsic_ps:7.2f} {cell.leakage_nw:8.4f}")
    return 0


def _cmd_ips(args) -> int:
    print(f"{'ip':18s} {'quality':>8s} {'verified':>9s}  description")
    for name in catalogue():
        ip = generate(name)
        description = ip.collateral.description.split(";")[0]
        print(f"{name:18s} {quality_score(ip):8.2f} "
              f"{ip.verification.name:>9s}  {description[:60]}")
    return 0


def _read_verilog(path: str, parse=parse_verilog):
    """``parse`` applied to the text of the Verilog file at ``path``, or
    ``None`` when the file cannot be read or its Verilog does not parse
    or elaborate: a usage error, printed as ``error: <path>: <message>``.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        message = getattr(exc, "strerror", None) or str(exc)
    else:
        try:
            return parse(text)
        except (VerilogParseError, HdlError) as exc:
            message = str(exc)
    print(f"error: {path}: {message}", file=sys.stderr)
    return None


def _design(args, sources: str = "--ip or --verilog"):
    """The module ``--verilog`` or ``--ip`` names, or ``None`` after a
    usage error is printed.  The module elaborates: the parser and the
    catalogue generators both validate what they build."""
    if args.verilog:
        return _read_verilog(args.verilog)
    if not args.ip:
        print(f"error: one of {sources} is required", file=sys.stderr)
    elif args.ip not in GENERATORS:
        print(f"error: unknown IP {args.ip!r}; try: python -m repro ips",
              file=sys.stderr)
    else:
        return generate(args.ip).module
    return None


def _cmd_flow(args) -> int:
    module = _design(args)
    if module is None:
        return 2
    if args.verilog:
        print(f"parsed {module.name} from {args.verilog}")
    else:
        testbench = generate(args.ip).verify(cycles=args.verify_cycles)
        print(f"testbench: {testbench.summary()}")
        if not testbench.passed:
            return 1

    pdk = get_pdk(args.pdk)
    store = None
    if args.checkpoint_dir:
        from .resil import DirectoryStore

        store = DirectoryStore(args.checkpoint_dir)
    options = FlowOptions(
        preset=args.preset,
        clock_period_ps=args.period_ps,
        seed=args.seed,
        continue_on_error=args.continue_on_error,
        checkpoints=store,
    )
    tracer = Tracer() if args.trace else None
    result = run_flow(module, pdk, options, tracer=tracer)
    print(result.summary())
    for failure in result.failures:
        print(f"  failure {failure}", file=sys.stderr)
    if store is not None:
        print(f"checkpoints: {store.hits} hit(s), {store.misses} miss(es)")

    if args.trace:
        directory = os.path.dirname(args.trace)
        if directory:
            os.makedirs(directory, exist_ok=True)
        write_trace(args.trace, tracer, metrics=get_metrics())
        print(f"trace written to {args.trace} ({len(tracer.spans)} spans)")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, module.name)
        with open(base + ".v", "w") as handle:
            handle.write(to_verilog(module))
        with open(base + ".rpt", "w") as handle:
            handle.write(full_report(result))
        if result.physical is not None:
            with open(base + ".def", "w") as handle:
                handle.write(write_def(from_physical(result.physical)))
        if result.gds_bytes is not None:
            with open(base + ".gds", "wb") as handle:
                handle.write(result.gds_bytes)
        print(f"collaterals written to {base}.*")
    return 0 if result.ok else 1


def _cmd_edit(args) -> int:
    """Interactive edit loop: open a Workspace, apply one module edit.

    Stdout is deterministic (no wall-clock times); ``--json`` captures
    the machine-readable report including millisecond timings.
    """
    import json
    import time

    from .inter import Workspace

    if args.demo:
        if args.module or args.rtl:
            print("error: --demo replaces --module/--rtl", file=sys.stderr)
            return 2
        if args.ip != "soc":
            print("error: --demo edits the catalogue 'soc' IP",
                  file=sys.stderr)
            return 2
        module_name = "sevenseg"
    elif args.module and args.rtl:
        module_name = args.module
    else:
        print("error: either --demo or both --module and --rtl are required",
              file=sys.stderr)
        return 2

    if args.ip not in GENERATORS:
        print(f"error: unknown IP {args.ip!r}; try: python -m repro ips",
              file=sys.stderr)
        return 2
    ip = generate(args.ip)
    pdk = get_pdk(args.pdk)
    options = FlowOptions(
        preset=args.preset, clock_period_ps=args.period_ps, seed=args.seed
    )

    start = time.perf_counter()
    ws = Workspace.open(ip.module, pdk, options=options)
    open_ms = (time.perf_counter() - start) * 1e3
    print(f"opened {ip.module.name} on {args.pdk}: "
          f"{len(ws.result.synthesis.mapped.cells)} cells")

    start = time.perf_counter()
    if args.demo:
        from .ip.soc import sevenseg_recode_rtl

        report = ws.edit(module_name, sevenseg_recode_rtl())
    else:
        report = _read_verilog(
            args.rtl, lambda text: ws.edit(module_name, text)
        )
        if report is None:
            return 2
    edit_ms = (time.perf_counter() - start) * 1e3
    cones = 0 if report.lec is None else len(report.lec.cones)
    if report.clean:
        print(f"edit {module_name}: clean (no logic change)")
    else:
        print(f"edit {module_name}: dirty={sorted(report.dirty)} "
              f"cones={cones} fallback={report.fallback or 'none'}")
        if report.lec is not None:
            verdict = "equivalent" if report.lec.equivalent else "DIVERGES"
            print(f"lec: {verdict}")
    print(report.result.summary())

    proven = report.lec is None or report.lec.equivalent
    ok = report.result.ok and proven
    if args.json:
        directory = os.path.dirname(args.json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(
                {
                    "design": ip.module.name,
                    "pdk": args.pdk,
                    "module": module_name,
                    "clean": report.clean,
                    "dirty": sorted(report.dirty),
                    "cones": cones,
                    "fallback": report.fallback,
                    "lec_equivalent": None if report.lec is None
                    else report.lec.equivalent,
                    "open_ms": round(open_ms, 3),
                    "edit_ms": round(edit_ms, 3),
                    "ok": ok,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"report written to {args.json}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, ip.module.name)
        if report.result.gds_bytes is not None:
            with open(base + ".gds", "wb") as handle:
                handle.write(report.result.gds_bytes)
            print(f"layout written to {base}.gds")
    return 0 if ok else 1


def _cmd_lint(args) -> int:
    """Static analysis with the signoff exit-code contract.

    The return code is nonzero only for unwaived ``error``-severity
    findings; warnings and info never fail the command unless
    ``--strict`` promotes warnings to errors.
    """
    try:
        waivers = tuple(Waiver.parse(spec) for spec in args.waive) + (
            load_waiver_file(args.waiver_file) if args.waiver_file else ()
        )
    except (LintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.demo:
        module = make_defective_module()
        report = lint_design(
            module,
            netlist=make_defective_netlist(),
            waivers=waivers,
        )
    else:
        module = _design(args, "--ip, --verilog or --demo")
        if module is None:
            return 2

        mapped = None
        if not args.rtl_only:
            mapped = synthesize(module, get_pdk(args.pdk).library).mapped
        report = lint_design(module, mapped=mapped, waivers=waivers)

    if args.formal:
        # SAT refinement: prove or refute the const-expr / dead-mux-arm
        # suspicions.  Needs an elaborable module — the solver reasons
        # about semantics, which a non-validating design does not have.
        try:
            module.validate()
        except HdlError as exc:
            print(f"note: formal refinement skipped, RTL does not "
                  f"elaborate ({exc})", file=sys.stderr)
        else:
            report = refine_lint_report(report, prove_facts(module))

    if args.strict:
        report = report.promote_warnings()

    if args.json == "-":
        print(report.to_json())
    else:
        print(report.render())
        if args.json:
            directory = os.path.dirname(args.json)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(args.json, "w") as handle:
                handle.write(report.to_json())
            print(f"lint report written to {args.json}")
    return 1 if report.errors else 0


def _cmd_prove(args) -> int:
    """SAT-based LEC of the synthesis pipeline, lint-style exit codes.

    Returns 0 when every stage is proved equivalent, 1 when any cone has
    a counterexample or exhausted the solver budget, 2 on usage errors.
    Counterexamples are replayed in simulation (the RTL interpreter
    against a packed gate-level simulator, one lane per witness) so the
    formal verdict is cross-checked against simulation semantics.
    """
    module = _design(args)
    if module is None:
        return 2

    synth = synthesize(module, get_pdk(args.pdk).library)
    try:
        report = lec_flow(module, synth, max_conflicts=args.max_conflicts)
    except LecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    implementations = {
        "post_opt": synth.netlist,
        "post_mapping": synth.mapped,
    }
    if args.json == "-":
        print(report.to_json())
        return 0 if report.passed else 1
    print(report.summary())
    for stage, check in report.checks.items():
        # All replayable witnesses of a stage go through one packed
        # batch (each occupies a simulation lane) instead of one
        # simulator pair per counterexample.
        replayable = [
            verdict.counterexample
            for verdict in check.cones
            if verdict.counterexample is not None
            and verdict.counterexample.kind in ("output", "state")
            and implementations.get(stage) is not None
        ]
        replays = {}
        if replayable:
            replays = dict(zip(
                map(id, replayable),
                replay_counterexamples(
                    module, implementations[stage], replayable
                ),
            ))
        for verdict in check.cones:
            if verdict.status == "equal":
                continue
            print(f"  {stage} {verdict.cone}: {verdict.status}")
            cex = verdict.counterexample
            if cex is None:
                continue
            print(f"    inputs={cex.inputs} state={cex.state} "
                  f"expect={cex.expect} got={cex.got}")
            if id(cex) in replays:
                confirmed = replays[id(cex)] is not None
                print(f"    simulation replay: "
                      f"{'reproduces' if confirmed else 'DOES NOT reproduce'}")

    if args.json:
        directory = os.path.dirname(args.json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"LEC report written to {args.json}")
    return 0 if report.passed else 1


def _cmd_lvs(args) -> int:
    """GDS-in signoff: extract a netlist from stream bytes and LVS it.

    Implements the design, streams out GDSII, then treats those *bytes*
    as the only source of truth: the netlist is re-extracted from
    geometry alone, compared net-by-net against the mapped netlist and
    LEC-proved equivalent.  ``--trojan`` plants one seeded layout
    mutation first — the run must then fail, which makes this the
    self-test of the whole extraction stack.  Exit codes follow lint:
    0 clean, 1 mismatches found, 2 usage errors.
    """
    from .extract import TROJAN_KINDS, mutate_gds, run_lvs
    from .layout.chip import build_chip_gds
    from .layout.gds import write_gds
    from .pnr.physical import implement

    module = _design(args)
    if module is None:
        return 2
    if args.trojan is not None and args.trojan not in TROJAN_KINDS:
        print(f"error: unknown trojan kind {args.trojan!r}; "
              f"known: {', '.join(TROJAN_KINDS)}", file=sys.stderr)
        return 2

    pdk = get_pdk(args.pdk)
    mapped = synthesize(module, pdk.library).mapped
    design = implement(mapped, pdk)
    data = write_gds(build_chip_gds(design))
    print(f"streamed {len(data)} bytes of GDSII for {mapped.name}")
    if args.trojan is not None:
        try:
            data, description = mutate_gds(
                data, seed=args.seed, kind=args.trojan
            )
        except ValueError as exc:
            print(f"error: trojan not applicable: {exc}", file=sys.stderr)
            return 2
        print(f"planted {description}")

    report = run_lvs(data, mapped, pdk)
    if args.json == "-":
        print(report.to_json())
        return 0 if report.clean else 1
    print(report.summary())
    for mismatch in report.mismatches:
        print(f"  {mismatch}")
    if args.json:
        directory = os.path.dirname(args.json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"LVS report written to {args.json}")
    return 0 if report.clean else 1


def _cmd_cloud(args) -> int:
    """Fault-injected cloud capacity simulation (deterministic per seed).

    Everything printed to stdout is a pure function of the flags, so CI
    can run the same simulation twice and ``diff`` the outputs to prove
    seeded fault injection is deterministic; progress messages go to
    stderr.
    """
    from .core.cloud import CloudPlatform
    from .resil import ExponentialBackoff, FaultModel

    tracer = Tracer() if args.trace else None
    fault_model = FaultModel(
        seed=args.seed,
        mtbf_min=args.mtbf_min if args.mtbf_min > 0 else float("inf"),
        mttr_min=args.mttr_min,
        preemption_prob=args.preempt,
        fatal_prob=args.fatal,
    )
    platform = CloudPlatform(
        servers=args.servers,
        tracer=tracer,
        fault_model=fault_model,
        retry_policy=ExponentialBackoff(max_attempts=args.max_attempts),
    )
    # The workload is drawn from its own seeded stream so the same flags
    # always submit the same jobs.
    workload = random.Random(args.seed)
    for index in range(args.jobs):
        duration = round(workload.uniform(10.0, 240.0), 3)
        submit = round(workload.uniform(0.0, args.window_min), 3)
        deadline = None
        if args.deadlines:
            deadline = round(submit + duration * workload.uniform(2.0, 6.0), 3)
        platform.submit(
            f"user{index % 5}", duration, submit, deadline_min=deadline
        )
    stats = platform.run()

    print(f"servers={args.servers} jobs={args.jobs} seed={args.seed} "
          f"mtbf_min={fault_model.mtbf_min:g} preempt={args.preempt:g}")
    for job in platform.jobs():
        finish = f"{job.finish_min:.3f}" if job.finish_min is not None else "-"
        print(f"job {job.job_id:3d} {job.user:6s} {job.outcome:8s} "
              f"attempts={job.attempts} retries={job.retries} "
              f"finish={finish}")
    print(f"completed={stats.jobs} failed={stats.failed} "
          f"retries={stats.retries} preemptions={stats.preemptions} "
          f"faults={stats.faults} deadline_misses={stats.deadline_misses}")
    print(f"mean_wait_min={stats.mean_wait_min:.3f} "
          f"p95_wait_min={stats.p95_wait_min:.3f} "
          f"utilization={stats.utilization:.4f} "
          f"makespan_min={stats.makespan_min:.3f}")

    if args.trace:
        directory = os.path.dirname(args.trace)
        if directory:
            os.makedirs(directory, exist_ok=True)
        write_trace(args.trace, tracer, metrics=platform.metrics)
        print(f"trace written to {args.trace} ({len(tracer.spans)} spans)",
              file=sys.stderr)
    return 0


#: Synthetic campaign design pool: small catalogue IPs with parameter
#: variants, weighted duplicate-heavy (the classroom distribution — most
#: students submit the assignment design, a few go off-script).
_CAMPAIGN_POOL = (
    # (ip name, params, draw weight)
    ("counter", {"width": 4}, 8),
    ("counter", {"width": 6}, 6),
    ("counter", {"width": 8}, 4),
    ("gray_counter", {"width": 4}, 4),
    ("gray_counter", {"width": 6}, 2),
    ("shift_register", {"width": 4, "depth": 4}, 3),
    ("lfsr", {"width": 8}, 2),
    ("priority_encoder", {"width": 4}, 2),
    ("pwm", {"width": 6}, 2),
    ("seven_seg", {}, 1),
)


def synth_campaign_workload(campaign, designs: int, tenants: int,
                            seed: int) -> None:
    """Submit a seeded duplicate-heavy workload into ``campaign``.

    A pure function of ``(designs, tenants, seed)``: the same flags
    always submit the same modules with the same tenants, priorities
    and deadlines, so two runs are diffable end to end.  Tenant load is
    deliberately skewed (tenant 0 submits roughly half the campaign) to
    exercise fair-share scheduling.
    """
    rng = random.Random(seed)
    modules = {}
    weighted = [
        entry for entry in _CAMPAIGN_POOL for _ in range(entry[2])
    ]
    for _ in range(designs):
        name, params, _ = rng.choice(weighted)
        ident = (name, tuple(sorted(params.items())))
        if ident not in modules:
            modules[ident] = generate(name, **params).module
        # Skewed tenant draw: uni0 gets weight ~len(tenants).
        weights = [tenants] + [1] * (tenants - 1)
        tenant = rng.choices(range(tenants), weights=weights)[0]
        deadline = round(rng.uniform(60.0, 2_000.0), 3)
        campaign.submit(
            f"uni{tenant}", modules[ident], "edu130",
            priority=rng.choice((0, 0, 0, 1)),
            deadline_min=deadline,
        )


def _cmd_campaign(args) -> int:
    """Multi-tenant campaign over a seeded synthetic workload.

    Mirrors the ``repro cloud`` contract: everything on stdout is a
    pure function of the flags (dispatch order, cache hits, simulated
    latency), so CI can diff two runs byte-for-byte; wall-clock numbers
    go to stderr and the ``--json`` report.
    """
    from .campaign import Campaign

    if args.designs < 1:
        print("error: --designs must be at least 1", file=sys.stderr)
        return 2
    if args.tenants < 1:
        print("error: --tenants must be at least 1", file=sys.stderr)
        return 2
    campaign = Campaign(workers=args.workers, seed=args.seed)
    synth_campaign_workload(campaign, args.designs, args.tenants, args.seed)
    report = campaign.run()

    print(f"designs={args.designs} tenants={args.tenants} "
          f"workers={args.workers} seed={args.seed}")
    for job in sorted(campaign.queue.jobs(), key=lambda j: j.order):
        print(f"job {job.order:4d} {job.tenant:6s} "
              f"{job.module.name:16s} {job.key[:10]} "
              f"{'hit ' if job.cache_hit else 'miss'} "
              f"sim_start={job.sim_start_min:9.3f} "
              f"sim_finish={job.sim_finish_min:9.3f}")
    print(report.render())
    print(f"wall: elapsed_s={report.elapsed_s:.3f} "
          f"throughput_jobs_per_s={report.throughput_jobs_per_s:.2f}",
          file=sys.stderr)

    if args.json:
        directory = os.path.dirname(args.json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"campaign report written to {args.json}", file=sys.stderr)
    return 0 if report.failed == 0 else 1


def _cmd_trace(args) -> int:
    try:
        data = load_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(render_trace(data, unit=args.unit))
    except BrokenPipeError:  # e.g. piped into head
        return 0
    return 0


def _cmd_liberty(args) -> int:
    print(write_liberty(get_pdk(args.pdk).library), end="")
    return 0


def _cmd_lef(args) -> int:
    print(write_library_lef(get_pdk(args.pdk).library), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="chip-design enablement toolkit (DATE 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("pdks", help="list the built-in PDKs").set_defaults(
        fn=_cmd_pdks
    )

    cells = sub.add_parser("cells", help="list a PDK's standard cells")
    cells.add_argument("pdk", choices=list_pdks())
    cells.set_defaults(fn=_cmd_cells)

    sub.add_parser(
        "ips", help="list the IP catalogue with quality scores"
    ).set_defaults(fn=_cmd_ips)

    flow = sub.add_parser("flow", help="run the full flow on a catalogue IP")
    flow.add_argument("--ip", help="catalogue IP name")
    flow.add_argument("--verilog", help="path to a Verilog file to run instead")
    flow.add_argument("--pdk", default="edu130", choices=list_pdks())
    flow.add_argument("--preset", default="open",
                      choices=("open", "commercial"))
    flow.add_argument("--period-ps", type=float, default=5_000.0)
    flow.add_argument("--verify-cycles", type=int, default=200)
    flow.add_argument("--seed", type=int, default=1,
                      help="placement/backend seed")
    flow.add_argument("--continue-on-error", action="store_true",
                      help="record stage failures instead of aborting; "
                      "produce the best partial result")
    flow.add_argument("--checkpoint-dir", metavar="DIR",
                      help="save/resume per-stage checkpoints under DIR")
    flow.add_argument("--out", help="directory for collateral files")
    flow.add_argument("--trace",
                      help="write a JSONL trace of the run to this path")
    flow.set_defaults(fn=_cmd_flow)

    edit = sub.add_parser(
        "edit",
        help="open an incremental Workspace and apply one module edit",
    )
    edit.add_argument("--ip", default="soc", help="catalogue IP name")
    edit.add_argument("--pdk", default="edu130", choices=list_pdks())
    edit.add_argument("--preset", default="open",
                      choices=("open", "commercial"))
    edit.add_argument("--period-ps", type=float, default=6_000.0)
    edit.add_argument("--seed", type=int, default=1,
                      help="placement/backend seed")
    edit.add_argument("--module", help="name of the module to replace")
    edit.add_argument("--rtl", metavar="FILE",
                      help="Verilog file with the module's new body")
    edit.add_argument("--demo", action="store_true",
                      help="apply the built-in seven-segment re-encode "
                      "edit to the catalogue SoC")
    edit.add_argument("--json", metavar="FILE",
                      help="write the edit report (with timings) as JSON")
    edit.add_argument("--out", help="directory for the edited GDS")
    edit.set_defaults(fn=_cmd_edit)

    cloud = sub.add_parser(
        "cloud",
        help="simulate shared-compute capacity with failure injection",
    )
    cloud.add_argument("--servers", type=int, default=4)
    cloud.add_argument("--jobs", type=int, default=24)
    cloud.add_argument("--seed", type=int, default=7,
                       help="seeds both the workload and the fault model")
    cloud.add_argument("--window-min", type=float, default=480.0,
                       help="submission window in simulated minutes")
    cloud.add_argument("--mtbf-min", type=float, default=0.0,
                       help="mean minutes between server faults "
                       "(0 disables fault strikes)")
    cloud.add_argument("--mttr-min", type=float, default=30.0,
                       help="server repair time after a fault")
    cloud.add_argument("--preempt", type=float, default=0.0,
                       help="per-execution preemption probability")
    cloud.add_argument("--fatal", type=float, default=0.0,
                       help="probability a fault is fatal to the job")
    cloud.add_argument("--max-attempts", type=int, default=4,
                       help="retry budget per job")
    cloud.add_argument("--deadlines", action="store_true",
                       help="attach a deadline to every job")
    cloud.add_argument("--trace",
                       help="write a JSONL trace (simulated minutes)")
    cloud.set_defaults(fn=_cmd_cloud)

    lint = sub.add_parser(
        "lint",
        help="static analysis: RTL + netlist rule checks with waivers",
    )
    lint.add_argument("--ip", help="catalogue IP name")
    lint.add_argument("--verilog", help="path to a Verilog file to lint")
    lint.add_argument("--demo", action="store_true",
                      help="lint the built-in defective demo designs")
    lint.add_argument("--pdk", default="edu130", choices=list_pdks(),
                      help="library used for the netlist lint target")
    lint.add_argument("--rtl-only", action="store_true",
                      help="skip synthesis and the netlist lint target")
    lint.add_argument("--json", nargs="?", const="-", metavar="PATH",
                      help="write the JSON report to PATH (or stdout)")
    lint.add_argument("--waive", action="append", default=[],
                      metavar="RULE[@LOCATION]",
                      help="waive findings matching the glob (repeatable)")
    lint.add_argument("--waiver-file",
                      help="file of RULE[@LOCATION]  # reason lines")
    lint.add_argument("--strict", action="store_true",
                      help="promote warnings to errors")
    lint.add_argument("--formal", action="store_true",
                      help="SAT-refine findings: proved facts promote to "
                      "error, refuted suspicions are dropped")
    lint.set_defaults(fn=_cmd_lint)

    prove = sub.add_parser(
        "prove",
        help="SAT-based logic equivalence check: RTL vs gates vs cells",
    )
    prove.add_argument("--ip", help="catalogue IP name")
    prove.add_argument("--verilog", help="path to a Verilog file to prove")
    prove.add_argument("--pdk", default="edu130", choices=list_pdks(),
                       help="library the design is mapped onto")
    prove.add_argument("--max-conflicts", type=int, default=100_000,
                       help="CDCL conflict budget per cone (exhaustion "
                       "reports 'unknown', never 'equivalent')")
    prove.add_argument("--json", nargs="?", const="-", metavar="PATH",
                       help="write the JSON report to PATH (or stdout)")
    prove.set_defaults(fn=_cmd_prove)

    lvs = sub.add_parser(
        "lvs",
        help="GDS-in signoff: extract a netlist from the stream bytes, "
        "LVS it against the mapped netlist and prove equivalence",
    )
    lvs.add_argument("--ip", help="catalogue IP name")
    lvs.add_argument("--verilog", help="path to a Verilog file to check")
    lvs.add_argument("--pdk", default="edu130", choices=list_pdks(),
                     help="PDK to implement on")
    lvs.add_argument("--trojan", metavar="KIND",
                     help="plant one seeded layout trojan first "
                     "(rogue_gate, reroute, delete_via, swap_cells); "
                     "the check must then fail")
    lvs.add_argument("--seed", type=int, default=0,
                     help="trojan seed (with --trojan)")
    lvs.add_argument("--json", nargs="?", const="-", metavar="PATH",
                     help="write the JSON report to PATH (or stdout)")
    lvs.set_defaults(fn=_cmd_lvs)

    campaign = sub.add_parser(
        "campaign",
        help="run a seeded multi-tenant design campaign with fair-share "
        "scheduling and the global result cache",
    )
    campaign.add_argument("--designs", type=int, default=40,
                          help="number of design submissions to synthesize")
    campaign.add_argument("--tenants", type=int, default=4,
                          help="number of tenants (universities) submitting")
    campaign.add_argument("--workers", type=int, default=0,
                          help="process-pool size (0/1 = serial in-process)")
    campaign.add_argument("--seed", type=int, default=7,
                          help="seeds the workload and the scheduler")
    campaign.add_argument("--json", metavar="PATH",
                          help="write the full report (incl. wall-clock "
                          "throughput) to PATH")
    campaign.set_defaults(fn=_cmd_campaign)

    trace = sub.add_parser(
        "trace", help="render a JSONL trace file as a timeline + profile"
    )
    trace.add_argument("file", help="trace file from 'flow --trace'")
    trace.add_argument("--unit", default="ms", choices=("s", "ms", "us"),
                       help="time unit for the rendered tables")
    trace.set_defaults(fn=_cmd_trace)

    liberty = sub.add_parser("liberty", help="emit a PDK's Liberty file")
    liberty.add_argument("pdk", choices=list_pdks())
    liberty.set_defaults(fn=_cmd_liberty)

    lef = sub.add_parser("lef", help="emit a PDK's LEF file")
    lef.add_argument("pdk", choices=list_pdks())
    lef.set_defaults(fn=_cmd_lef)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
