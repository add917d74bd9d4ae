"""Self-tests of the benchmark's own parts.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import gc
import inspect
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SECONDS = 25


@pytest.mark.parametrize("name", sorted(jobs.GENERATORS))
def test_job_lists_are_pure_functions_of_the_seed(name):
    generate = jobs.GENERATORS[name]
    assert generate(7, SECONDS) == generate(7, SECONDS)
    assert generate(7, SECONDS) != generate(8, SECONDS)


def test_class_signoff_shares_and_no_accidental_duplicates():
    for seed in range(20):
        cohort = jobs.class_signoff_jobs(seed, SECONDS)
        kinds = [job.kind for job in cohort]
        assert abs(kinds.count("resubmit") / len(cohort) - 0.2) < 0.01
        assert abs(kinds.count("reclock") / len(cohort) - 0.1) < 0.01
        fresh = [job for job in cohort if job.kind == "fresh"]
        requests = [(j.design, j.params, j.clock_period_ps)
                    for j in cohort if j.kind != "resubmit"]
        assert len(set(requests)) == len(requests)
        widths = {dict(j.params)["width"] for j in fresh
                  if j.design == "gray_counter"}
        assert widths == set(range(2, 17))
        for position, job in enumerate(cohort):
            if job.kind == "fresh":
                continue
            earlier = [j for j in cohort[:position] if j.kind == "fresh"]
            assert (job.design, job.params, job.user) in {
                (j.design, j.params, j.user) for j in earlier
            }


def test_every_cohort_resubmits_the_same_designs():
    def follow_ups(seed):
        return sorted((j.design, j.params, j.kind)
                      for j in jobs.class_signoff_jobs(seed, SECONDS))
    assert all(follow_ups(seed) == follow_ups(0) for seed in range(1, 5))


def test_other_job_lists_have_no_duplicates():
    for seed in range(20):
        sweep = jobs.cpu_closure_jobs(seed, SECONDS)
        assert len({job.seed for job in sweep}) == len(sweep)
        suite = jobs.verify_sim_jobs(seed, SECONDS)
        assert len({(j.design, j.params) for j in suite}) == len(suite)


def test_soc_edits_change_logic_revert_and_cover_every_module():
    for seed in range(20):
        chain = jobs.soc_edit_jobs(seed, 3 * SECONDS)
        current = {module: 0 for module in jobs.SOC_VARIANTS}
        for job in chain:
            variant = dict(job.params)["variant"]
            assert variant != current[job.design]
            current[job.design] = variant
        assert set(current.values()) == {0}
        per_round = 2 * len(jobs.SOC_VARIANTS)
        for start in range(0, len(chain), per_round):
            modules = {job.design for job in chain[start:start + per_round]}
            assert modules == set(jobs.SOC_VARIANTS)


def test_wrappers_restore_every_original():
    targets = [tracing._resolve(module, path) for module, path, _ in tracing.TARGETS]
    originals = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    callbacks = list(gc.callbacks)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            assert inspect.getattr_static(owner, attr) is not original
        assert len(gc.callbacks) == len(callbacks) + 1
    finally:
        recorder.restore()
    for (owner, attr), original in zip(targets, originals):
        assert inspect.getattr_static(owner, attr) is original
    assert gc.callbacks == callbacks


def test_full_collections_are_spans_of_their_own():
    recorder = tracing.Recorder()
    recorder.job = 0
    recorder.install(targets=())
    try:
        with recorder.span("layer"):
            gc.collect()
    finally:
        recorder.restore()
    layer, collection = recorder.spans
    assert collection.name == tracing.GC_SPAN and collection.parent == 0
    assert collection.end >= collection.start
    self_s = recorder.self_times()
    assert self_s["layer"] == pytest.approx(
        (layer.end - layer.start) - (collection.end - collection.start)
    )


def test_self_time_subtracts_nested_wrapped_calls():
    recorder = tracing.Recorder()
    recorder.job = 0
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent is None
    self_s = recorder.self_times()
    assert self_s["inner"] == pytest.approx(inner.end - inner.start)
    assert self_s["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )


def test_host_factor_comes_from_the_probes_around_a_job():
    probes = hostspeed.Probes()
    ref = hostspeed.PROBE_REF_S
    probes.samples = [(0.0, ref), (0.5, ref), (10.0, 2 * ref),
                      (10.2, 2 * ref), (10.4, 2 * ref), (30.0, 3 * ref)]
    # Probes within NEAR_S of the job's ends.
    assert probes.factor_near(10.5, 11.0) == pytest.approx(2.0)
    assert probes.factor_near(11.0, 29.0) == pytest.approx(2.0)
    # None near a long job: the nearest probe on each side.
    assert probes.factor_near(12.0, 28.0) == pytest.approx(2.5)
    assert probes.factor_near(40.0, 41.0) == pytest.approx(3.0)
    assert hostspeed.adjust(2.0, 1.21, 0.5) == pytest.approx(2.0 / 1.1)
    assert hostspeed.adjust(2.0, 1.21, 0.0) == 2.0


def test_probe_schedule_follows_job_time():
    probes = hostspeed.Probes()
    for _ in range(8):
        probes.between(0.125 * hostspeed.PROBE_EVERY_S)
    assert len(probes.samples) == 1
    probes.between(4.5 * hostspeed.PROBE_EVERY_S)
    assert len(probes.samples) == 5


def test_failed_jobs_rank_above_every_success():
    latencies = [1.0, 2.0, 3.0, 0.1]
    assert run.percentile(latencies, [False, False, False, True], 0.5) == 2.5
    with pytest.raises(RuntimeError):
        run.percentile(latencies, [True, True, True, False], 0.5)
    assert math.isclose(run.percentile([1.0, 2.0], [False, False], 0.9), 1.9)


def test_gds_trojan_fails_the_class_signoff_output_check():
    from repro.extract import mutate_gds
    from workloads import ClassSignoff

    job = jobs.Job("counter", (("step", 1), ("width", 4)), user="student000")
    workload = ClassSignoff([job])
    outcome = workload.digest(0, workload.run(0))
    assert outcome.status == "ok"
    assert workload.check(outcome) is None
    mutant, _ = mutate_gds(outcome.keep.gds_bytes, seed=0, kind="swap_cells")
    outcome.keep = dataclasses.replace(outcome.keep, gds_bytes=mutant)
    assert workload.check(outcome) is not None


def run_jobs(workload_class, job_list) -> dict:
    """Step and check ``job_list`` as a run does; returns what the
    verdict reads."""
    timed = run.Pass(workload_class(job_list), job_list)
    for index in range(len(job_list)):
        timed.step(index)
    problems = timed.check()
    return {"failures": run.failure_log(timed.outcomes),
            "run_problems": problems}


def test_only_the_documented_defect_is_tolerated():
    from workloads import ClassSignoff

    record = run_jobs(ClassSignoff, [
        jobs.Job("gray_counter", (("width", 7),), user="student000"),
    ])
    (entry,) = record["failures"]
    assert entry["error_type"] == "FabricError" and entry["known_defect"]
    assert "layout/fabric.py" in entry["traceback"]
    assert run.judge(record)

    workload = ClassSignoff([])
    for design, width, error_type in [("gray_counter", 8, "FabricError"),
                                      ("gray_counter", 7, "FlowError"),
                                      ("counter", 7, "FabricError")]:
        outcome = jobs.Outcome(jobs.Job(design, (("width", width),)), 0)
        outcome.fail("error", error_type, "")
        assert not workload.known_defect(outcome)


def test_a_replay_must_reproduce_the_campaign_failure(monkeypatch):
    import repro.campaign.executor as executor
    from workloads import ClassSignoff

    def lost(*args, **kwargs):
        raise RuntimeError("worker lost")

    monkeypatch.setattr(executor, "run_flow", lost)
    record = run_jobs(ClassSignoff, [
        jobs.Job("gray_counter", (("width", 7),), user="student000"),
    ])
    (entry,) = record["failures"]
    assert entry["error_type"] == "unknown (FabricError on replay)"
    assert entry["message"] == "worker lost" and not entry["known_defect"]
    assert not run.judge(record)


def test_a_failing_gate_inside_the_flow_fails_the_run(monkeypatch):
    import repro.core.flow as flow
    from repro.layout.drc import DrcViolation
    from workloads import ClassSignoff

    real = flow.check_drc

    def dirty(*args, **kwargs):
        report = real(*args, **kwargs)
        report.violations.append(
            DrcViolation("min_width", "met1", "injected", None)
        )
        return report

    monkeypatch.setattr(flow, "check_drc", dirty)
    record = run_jobs(ClassSignoff, [
        jobs.Job("counter", (("step", 1), ("width", 4)), user="student000"),
    ])
    (entry,) = record["failures"]
    assert entry["error_type"] == "FlowError" and not entry["known_defect"]
    assert not run.judge(record)


def test_compare_ranks_layer_deltas_per_workload(tmp_path, capsys):
    def record(workload, seed, route_s, drc_s, gc_s=None):
        values = dict.fromkeys(run.LAYER_TIMES.values(), 0.0)
        values.update({"pnr.route_s": route_s, "layout.drc_s": drc_s,
                       "python.gc_s": gc_s})
        if gc_s is None:  # written before the metric existed
            del values["python.gc_s"]
        path = tmp_path / f"{seed}" / f"{workload}-seed{seed}-trace1.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            "header": {"workload": workload, "trace": 1},
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
        }))

    record("cpu_closure", 1, route_s=2.0, drc_s=0.10)
    record("cpu_closure", 2, route_s=1.5, drc_s=0.12, gc_s=0.05)
    assert run.compare(str(tmp_path / "1"), str(tmp_path / "2")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("== cpu_closure: 1 old vs 1 new")
    assert lines[1].split()[0] == "pnr.route_s" and "-25.0%" in lines[1]
    assert lines[2].split()[0] == "python.gc_s" and lines[2].endswith("new")
    assert lines[3].split()[0] == "layout.drc_s" and "+20.0%" in lines[3]
    (tmp_path / "empty").mkdir()
    assert run.compare(str(tmp_path / "1"), str(tmp_path / "empty")) == 2


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(jobs.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
