"""Repo benchmark: four user workloads, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload class_signoff --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare OLD NEW

A run sets up the workload, times the start-up of fresh processes that
only set it up (the median counts), runs its seeded job list serially
in one process with a host-speed probe between jobs (``hostspeed``: job
times are reported adjusted to the host's speed, and as wall time under
``wall.*``), checks every job's output after the timed phase, and
prints a header, every metric by name with its unit, the failure log
and, as the last line, one JSON object.  With
``--trace 0`` the JSON carries the end-to-end metrics; with ``--trace 1``
the per-layer metrics, from a pass with every layer entry point wrapped
followed by an untraced pass of the same jobs (the tracing overhead).
Full records land in ``perfbench/out/``; ``--compare`` ranks the
per-layer self-time differences between two sets of traced records.

The exit code is 1 when a job fails other than by the documented
``gray_counter`` defect, or a whole-run check fails, and 2 on a usage
error or a checkout without the ``src/repro`` sources.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from jobs import GENERATORS, Outcome  # noqa: E402
from tracing import JOB_SPAN, Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Cold process start-ups per run, this process's included; setup_s
#: reports their median.
STARTUPS = 3
#: Host probes right after each start-up, for its host factor.
STARTUP_PROBES = 8
#: A tail percentile is reported only with ten or more samples beyond it.
P90_MIN_JOBS = 100
#: Least share of traced job time the layers below the entry points must
#: claim.
MIN_ATTRIBUTED_PCT = 90.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_min": "1/min",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
    "area_um2": "um2",
}
#: Span name -> per-layer metric: mean self seconds per job.
LAYER_TIMES = {
    "core.flow": "core.flow_self_s",
    "campaign": "campaign.self_s",
    "resil": "resil.checkpoint_s",
    "lint": "lint_s",
    "synth": "synth_s",
    "sim": "sim_s",
    "formal": "formal_s",
    "pnr": "pnr.self_s",
    "pnr.floorplan": "pnr.floorplan_s",
    "pnr.place": "pnr.place_s",
    "pnr.cts": "pnr.cts_s",
    "pnr.route": "pnr.route_s",
    "sta": "sta_s",
    "power": "power_s",
    "layout.build": "layout.build_s",
    "layout.drc": "layout.drc_s",
    "layout.gds_write": "layout.gds_write_s",
    "layout.gds_read": "layout.gds_read_s",
    "extract.lvs": "extract.lvs_self_s",
    "extract.netlist": "extract.netlist_s",
    "extract.compare": "extract.compare_s",
    "inter.edit": "inter.edit_self_s",
    "python.gc": "python.gc_s",
}
#: Entry points whose self time is whatever their nested wrappers miss
#: (with the benchmark's own job span): not attributed to a layer.
CATCH_ALL = (JOB_SPAN, "campaign", "core.flow", "inter.edit")
#: Per-layer metric -> (unit, what it sums over the run's successful jobs).
LAYER_COUNTS = {
    "synth.cells": ("count", "cells"),
    "pnr.route_iterations": ("count", "route_iterations"),
    "pnr.route_overflow": ("count", "route_overflow"),
    "layout.gds_bytes": ("bytes", "gds_bytes"),
    "inter.dirty_modules": ("count", "dirty_modules"),
    "sim.faults": ("count", "faults"),
    "formal.counterexamples": ("count", "counterexamples"),
    "resil.resumed_jobs": ("count", "resumed"),
}
QOR_UNITS = {
    "wirelength_um": "um",
    "power_uw": "uW",
    "fmax_mhz": "MHz",
    "fault_coverage": "ratio",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES.values()},
    "setup.import_s": "s",
    "inter.open_s": "s",
    **{name: unit for name, (unit, _) in LAYER_COUNTS.items()},
    "campaign.hit_ratio": "ratio",
    "inter.fallbacks": "count",
    **QOR_UNITS,
    "trace.overhead_pct": "%",
    "trace.attributed_pct": "%",
}


def percentile(latencies: list[float], failed: list[bool], q: float) -> float:
    """Interpolated ``q``-quantile of job latency.  A failed job ranks
    above every successful one, as if it missed every latency limit."""
    ranked = sorted(t for t, bad in zip(latencies, failed) if not bad)
    ranked += [math.inf] * sum(failed)
    position = q * (len(ranked) - 1)
    low, high = ranked[math.floor(position)], ranked[math.ceil(position)]
    if math.isinf(high):
        raise RuntimeError(f"too many failed jobs for a p{q * 100:.0f}")
    return low + (high - low) * (position - math.floor(position))


def summarize(outcomes) -> dict[str, float]:
    """Quality-of-results sums over successful jobs (pure functions of
    the seed: they must repeat exactly)."""
    good = [o.qor for o in outcomes if o.status == "ok"]
    total = {key: sum(q.get(key, 0) for q in good) for key in (
        "area_um2", "wirelength_um", "power_uw", "cells", "route_iterations",
        "route_overflow", "gds_bytes", "dirty_modules", "faults",
        "faults_detected", "counterexamples", "resumed", "cache_hits")}
    fmax = [q["fmax_mhz"] for q in good if "fmax_mhz" in q]
    total["fmax_mhz"] = (
        math.exp(statistics.fmean(map(math.log, fmax))) if fmax else 0.0
    )
    total["fault_coverage"] = (
        total["faults_detected"] / total["faults"] if total["faults"] else 0.0
    )
    total["fallbacks"] = sum(o.qor.get("fallbacks", 0) for o in outcomes)
    return total


class Pass:
    """One set-up workload stepping through its job list.  A pass given a
    recorder runs each job with the layer wrappers installed, and only
    then: its twin untraced pass can step in between."""

    def __init__(self, workload, jobs, recorder=None):
        self.workload, self.jobs, self.recorder = workload, jobs, recorder
        self.latencies: list[float] = []
        #: (start, end) of every job, on the ``perf_counter`` clock.
        self.spans: list[tuple[float, float]] = []
        self.outcomes = []

    def step(self, index: int) -> None:
        """Run, time and digest job ``index``."""
        recorder = self.recorder
        if recorder is not None:
            recorder.install()
            recorder.job = index
        t0 = time.perf_counter()
        try:
            if recorder is None:
                raw = self.workload.run(index)
            else:
                with recorder.span(JOB_SPAN):
                    raw = self.workload.run(index)
        except Exception as exc:  # a crashing job is a failed job
            error = exc
        else:
            error = None
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.spans.append((t0, t1))
        if recorder is not None:
            recorder.job = None
            recorder.restore()
        if error is None:
            self.outcomes.append(self.workload.digest(index, raw))
        else:
            outcome = Outcome(self.jobs[index], index)
            outcome.crashed(error)
            self.outcomes.append(outcome)

    def check(self) -> list[str]:
        """Run every output check; returns whole-run problems."""
        for outcome in self.outcomes:
            if outcome.status == "ok":
                problem = self.workload.check(outcome)
                if problem is not None:
                    outcome.fail("wrong", "OutputCheck", problem)
                outcome.keep = None
            elif outcome.error_type is None:
                self.workload.replay_error(outcome)
            if outcome.status != "ok":
                outcome.known_defect = self.workload.known_defect(outcome)
        return self.workload.finish()

    @property
    def failed(self) -> list[bool]:
        return [o.status != "ok" for o in self.outcomes]


def set_up(factory, generator, args):
    """Build the workload; returns it, its job list and the seconds taken."""
    t0 = time.perf_counter()
    jobs = generator(args.seed, args.seconds)
    workload = factory(jobs)
    return workload, jobs, time.perf_counter() - t0


def fresh_startup(args) -> tuple[float, float]:
    """Import and set-up seconds of a fresh process that only sets the
    workload up: imports, then PDK, inputs and whatever a first call
    builds once."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    timings = json.loads(done.stdout.splitlines()[-1])
    return timings["import_s"], timings["setup_s"]


def startups(args, factory, generator, import_s):
    """This process's set-up and ``STARTUPS - 1`` fresh ones, each followed
    by a burst of host probes.  Returns the workload, its jobs and a row
    per start-up: import and set-up seconds, and the host factor around
    the start-up."""
    probes = hostspeed.Probes()
    t0 = time.perf_counter()
    workload, jobs, setup_s = set_up(factory, generator, args)
    parts, spans = [(import_s, setup_s)], [(t0, t0 + setup_s)]
    probes.burst(STARTUP_PROBES)
    for _ in range(STARTUPS - 1):
        t0 = time.perf_counter()
        parts.append(fresh_startup(args))
        spans.append((t0, time.perf_counter()))
        probes.burst(STARTUP_PROBES)
    rows = [
        {"import_s": i, "setup_s": s, "host_factor": probes.factor_near(*span)}
        for (i, s), span in zip(parts, spans)
    ]
    return workload, jobs, rows


def header(args, n_jobs: int) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            done = None
        if done is not None and done.returncode == 0:
            git_rev = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": n_jobs,
        "samples": {
            "setup_s": STARTUPS,
            "job_s_p50": n_jobs,
            "job_s_p90": n_jobs if n_jobs >= P90_MIN_JOBS
            else f"not reported ({n_jobs} < {P90_MIN_JOBS} jobs)",
        },
    }


def failure_log(outcomes) -> list[dict]:
    return [
        {
            "job": o.index, "design": o.job.design,
            "params": dict(o.job.params), "kind": o.job.kind,
            "status": o.status, "error_type": o.error_type,
            "message": o.message, "known_defect": o.known_defect,
            "traceback": o.traceback,
        }
        for o in outcomes if o.status != "ok"
    ]


def judge(record: dict) -> bool:
    """Correct: every whole-run check passed and every failed job is the
    documented defect."""
    return not record["run_problems"] and all(
        entry["known_defect"] for entry in record["failures"]
    )


def emit(record: dict, shown: dict, correct: bool, attempted: int, failed: int):
    """Print the header, every metric, the failure log, then the JSON line."""
    OUT.mkdir(exist_ok=True)
    head = record["header"]
    stem = f"{head['workload']}-seed{head['seed']}-trace{head['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as handle:
            for row in spans:
                handle.write(json.dumps(row) + "\n")
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for key, value in head.items():
        print(f"# {key}: {value}")
    for name, metric in record["metrics"].items():
        print(f"{name:24s} {metric['value']:>16.6g} {metric['unit']}")
    for entry in record["failures"]:
        known = " (known defect)" if entry["known_defect"] else ""
        print(f"FAILED job {entry['job']} {entry['design']} {entry['params']} "
              f"[{entry['kind']}]{known} {entry['error_type']}: "
              f"{entry['message']}")
    for problem in record["run_problems"]:
        print(f"FAILED run check: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: record["metrics"][name] for name in shown},
    }))


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(args, factory, generator, import_s) -> dict:
    """End-to-end numbers.  Times are host-adjusted (``hostspeed``): a
    job's wall time by the host factor the probes measured around it,
    raised to the workload's sensitivity; a start-up's by the factor
    around it.  The wall-clock values are printed and recorded as
    ``wall.*``."""
    workload, jobs, starts = startups(args, factory, generator, import_s)
    timed = Pass(workload, jobs)
    probes = hostspeed.Probes()
    probes.burst(2)
    for index in range(len(jobs)):
        timed.step(index)
        probes.between(timed.latencies[-1])
    probes.burst(2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factors = [probes.factor_near(*span) for span in timed.spans]
    adjusted = [
        hostspeed.adjust(t, factor, workload.host_sensitivity)
        for t, factor in zip(timed.latencies, factors)
    ]
    problems = timed.check()
    qor = summarize(timed.outcomes)
    failed = timed.failed
    successes = failed.count(False)
    metrics = {
        "setup_s": metric(statistics.median(
            (row["import_s"] + row["setup_s"]) / row["host_factor"]
            for row in starts
        ), "s"),
        "jobs_per_min": metric(successes / sum(adjusted) * 60, "1/min"),
        "job_s_p50": metric(percentile(adjusted, failed, 0.5), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "area_um2": metric(qor["area_um2"], "um2"),
    }
    if len(jobs) >= P90_MIN_JOBS:
        metrics["job_s_p90"] = metric(percentile(adjusted, failed, 0.9), "s")
    metrics["job_fail_ratio"] = metric(sum(failed) / len(jobs), "ratio")
    for name, unit in QOR_UNITS.items():
        metrics[name] = metric(qor[name], unit)
    metrics["host.factor"] = metric(probes.factor(), "ratio")
    metrics["wall.setup_s"] = metric(statistics.median(
        row["import_s"] + row["setup_s"] for row in starts
    ), "s")
    metrics["wall.jobs_per_min"] = metric(
        successes / sum(timed.latencies) * 60, "1/min"
    )
    metrics["wall.job_s_p50"] = metric(
        percentile(timed.latencies, failed, 0.5), "s"
    )
    head = header(args, len(jobs))
    head["samples"]["host_probes"] = len(probes.samples)
    return {
        "header": head,
        "metrics": metrics,
        "startups": starts,
        "qor": qor,
        "jobs": job_rows(timed, factors),
        "failures": failure_log(timed.outcomes),
        "run_problems": problems,
    }


def job_rows(timed: Pass, factors=None) -> list[dict]:
    rows = [
        {"job": o.index, "label": o.job.label, "kind": o.job.kind,
         "seconds": t, "status": o.status}
        for o, t in zip(timed.outcomes, timed.latencies)
    ]
    for row, factor in zip(rows, factors or ()):
        row["host_factor"] = factor
    return rows


def traced_run(args, factory, generator, import_s) -> dict:
    """Per-layer numbers.  A traced and an untraced copy of the workload
    take turns job by job, so the host's drift hits both alike and their
    paired job times give the tracing overhead."""
    recorder = Recorder()
    recorder.install()
    try:
        workload, jobs, _ = set_up(factory, generator, args)
    finally:
        recorder.restore()
    plain_workload, _, _ = set_up(factory, generator, args)
    traced = Pass(workload, jobs, recorder)
    plain = Pass(plain_workload, jobs)
    for index in range(len(jobs)):
        pair = (traced, plain) if index % 2 == 0 else (plain, traced)
        for timed in pair:
            timed.step(index)
    # Median of per-job ratios: a collector pause or host hiccup in one
    # job would swing a ratio of sums.
    overhead_pct = 100 * (statistics.median(
        t / p for t, p in zip(traced.latencies, plain.latencies)
    ) - 1)
    problems = []
    if summarize(plain.outcomes) != summarize(traced.outcomes):
        problems.append("tracing changed the quality-of-results numbers")
    plain = plain_workload = None
    problems += traced.check()
    qor = summarize(traced.outcomes)

    n = len(jobs)
    self_s = recorder.self_times()
    unknown = set(self_s) - set(LAYER_TIMES) - {JOB_SPAN}
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {unknown}")
    job_total = sum(recorder.durations(JOB_SPAN, job=True))
    attributed_pct = 100 * (
        1 - sum(self_s.get(name, 0.0) for name in CATCH_ALL) / job_total
    )
    if attributed_pct < MIN_ATTRIBUTED_PCT:
        problems.append(
            f"layers claim only {attributed_pct:.1f}% of traced job time "
            f"(< {MIN_ATTRIBUTED_PCT:.0f}%)"
        )
    (open_s,) = recorder.durations("inter.open", job=False) or (0.0,)
    metrics = {
        name: metric(self_s.get(span, 0.0) / n, "s")
        for span, name in LAYER_TIMES.items()
    }
    metrics["setup.import_s"] = metric(import_s, "s")
    metrics["inter.open_s"] = metric(open_s, "s")
    for name, (unit, key) in LAYER_COUNTS.items():
        metrics[name] = metric(qor[key], unit)
    metrics["campaign.hit_ratio"] = metric(qor["cache_hits"] / n, "ratio")
    metrics["inter.fallbacks"] = metric(qor["fallbacks"], "count")
    for name, unit in QOR_UNITS.items():
        metrics[name] = metric(qor[name], unit)
    metrics["trace.overhead_pct"] = metric(overhead_pct, "%")
    metrics["trace.attributed_pct"] = metric(attributed_pct, "%")
    return {
        "header": header(args, n),
        "metrics": metrics,
        "qor": qor,
        "jobs": job_rows(traced),
        "failures": failure_log(traced.outcomes),
        "run_problems": problems,
        "spans": list(recorder.rows()),
    }


def load_layers(path: Path) -> list[dict]:
    """Traced records (files or a directory of them)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if r["header"]["trace"] == 1]


def compare(old_path: str, new_path: str) -> int:
    """Rank per-layer self-time differences, per workload, between two
    sets of traced records (files or directories)."""
    sides = []
    for path in (Path(old_path), Path(new_path)):
        by_workload: dict[str, list[dict]] = {}
        for record in load_layers(path):
            # A record from before a layer metric existed lacks it.
            by_workload.setdefault(record["header"]["workload"], []).append(
                {name: record["metrics"][name]["value"]
                 for name in LAYER_TIMES.values() if name in record["metrics"]}
            )
        if not by_workload:
            print(f"no traced records in {path}", file=sys.stderr)
            return 2
        sides.append(by_workload)
    old, new = sides
    for workload in sorted(set(old) & set(new)):
        print(f"== {workload}: {len(old[workload])} old vs "
              f"{len(new[workload])} new traced runs (median s/job)")
        layers = sorted(set().union(*old[workload], *new[workload]))
        rows = []
        for layer in layers:
            before = statistics.median(r.get(layer, 0.0) for r in old[workload])
            after = statistics.median(r.get(layer, 0.0) for r in new[workload])
            rows.append((after - before, layer, before, after))
        rows.sort(key=lambda row: -abs(row[0]))
        for delta, layer, before, after in rows:
            if before:
                share = f"{100 * delta / before:+7.1f}%"
            else:
                share = "    new" if after else ""
            print(f"  {layer:24s} {before:10.5f} -> {after:10.5f}  "
                  f"{delta:+10.5f} s  {share}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the start-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"--workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    factory, generator = WORKLOADS[args.workload], GENERATORS[args.workload]
    import_s = time.perf_counter() - START
    if args.setup_only:
        setup_s = set_up(factory, generator, args)[2]
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0
    run = traced_run if args.trace else untraced_run
    record = run(args, factory, generator, import_s)
    correct = judge(record)
    shown = PER_LAYER_UNITS if args.trace else END_TO_END
    emit(record, shown, correct, record["header"]["jobs"],
         len(record["failures"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
