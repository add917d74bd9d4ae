"""Tests for repro.resil: fault injection, retry/backoff, checkpoints,
graceful degradation, and the FlowOptions request API."""

import math
import random

import pytest

import repro.core.flow as flow_module
import repro.pnr.physical as pnr_physical
import repro.pnr.placement as pnr_placement
from repro.core import (
    AccessTier,
    CloudPlatform,
    EnablementHub,
    FlowError,
    FlowOptions,
    FlowStep,
    HubError,
    User,
    run_flow,
    run_signoff,
)
from repro.core.presets import COMMERCIAL, OPEN
from repro.ip.digital import make_counter
from repro.layout.fabric import FabricError
from repro.pdk import get_pdk
from repro.resil import cachekey
from repro.resil import (
    DirectoryStore,
    ExponentialBackoff,
    FaultInjector,
    FaultModel,
    FlowFailure,
    InjectedFault,
    MemoryStore,
    StageCheckpointer,
    flow_cache_key,
)

#: Stages a full flow run checkpoints, in order.
CHECKPOINT_STAGES = (
    "synthesis", "floorplan", "placement", "clock_tree", "routing",
)


def counter_module(width: int = 4):
    return make_counter(width).module


def faulty_platform(seed: int = 7, **model_kwargs) -> CloudPlatform:
    defaults = dict(mtbf_min=90.0, mttr_min=20.0, preemption_prob=0.05)
    defaults.update(model_kwargs)
    return CloudPlatform(
        servers=3, fault_model=FaultModel(seed=seed, **defaults)
    )


def schedule(platform: CloudPlatform):
    return [
        (j.outcome, j.attempts, j.start_min, j.finish_min)
        for j in platform.jobs()
    ]


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(mtbf_min=0.0)
        with pytest.raises(ValueError):
            FaultModel(preemption_prob=1.5)

    def test_sampler_is_seed_deterministic(self):
        model = FaultModel(seed=11, mtbf_min=60.0, preemption_prob=0.1)
        sampler_a, sampler_b = model.sampler(), model.sampler()
        draws_a = [sampler_a.draw(30.0) for _ in range(50)]
        draws_b = [sampler_b.draw(30.0) for _ in range(50)]
        assert draws_a == draws_b

    def test_infinite_mtbf_never_strikes(self):
        sampler = FaultModel(seed=1).sampler()
        assert all(
            sampler.draw(1000.0) == ("ok", 1.0) for _ in range(100)
        )


class TestSeededFaultDeterminism:
    def submit_workload(self, platform):
        rng = random.Random(3)
        for i in range(20):
            platform.submit(
                f"u{i % 4}", rng.uniform(10, 120), rng.uniform(0, 240),
                deadline_min=500.0 if i % 3 == 0 else None,
            )

    def test_same_seed_same_schedule(self):
        runs = []
        for _ in range(2):
            platform = faulty_platform(seed=7)
            self.submit_workload(platform)
            platform.run()
            runs.append(schedule(platform))
        assert runs[0] == runs[1]

    def test_different_seed_differs(self):
        schedules = []
        for seed in (7, 8):
            platform = faulty_platform(seed=seed)
            self.submit_workload(platform)
            platform.run()
            schedules.append(schedule(platform))
        assert schedules[0] != schedules[1]

    def test_stats_count_fault_outcomes(self):
        platform = faulty_platform(seed=7)
        self.submit_workload(platform)
        stats = platform.run()
        assert stats.retries > 0
        assert stats.faults >= stats.retries
        assert stats.jobs + stats.failed == 20

    def test_fault_spans_traced(self):
        from repro.obs import Tracer

        tracer = Tracer()
        platform = CloudPlatform(
            servers=2, tracer=tracer,
            fault_model=FaultModel(seed=5, mtbf_min=30.0, mttr_min=10.0),
        )
        self.submit_workload(platform)
        platform.run()
        names = {s.name for s in tracer.spans}
        assert "cloud.job.fault" in names
        assert "resil.retry" in names


class TestExponentialBackoff:
    def test_raw_schedule_doubles_and_caps(self):
        policy = ExponentialBackoff(base_min=2.0, factor=2.0,
                                    max_backoff_min=10.0)
        assert [policy.raw_backoff_min(k) for k in (1, 2, 3, 4)] == [
            2.0, 4.0, 8.0, 10.0
        ]

    def test_jitter_stays_within_bounds(self):
        policy = ExponentialBackoff(base_min=4.0, jitter=0.25)
        rng = random.Random(0)
        for attempt in (1, 2, 3):
            raw = policy.raw_backoff_min(attempt)
            for _ in range(200):
                delay = policy.backoff_min(attempt, rng)
                assert raw * 0.75 <= delay <= raw * 1.25

    def test_no_rng_means_no_jitter(self):
        policy = ExponentialBackoff(base_min=3.0)
        assert policy.backoff_min(2) == 6.0

    def test_gives_up_after_max_attempts(self):
        policy = ExponentialBackoff(max_attempts=3)
        assert not policy.gives_up(2)
        assert policy.gives_up(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(jitter=1.5)
        with pytest.raises(ValueError):
            ExponentialBackoff(max_attempts=0)


class TestDeadlines:
    def test_deadline_aware_policy_abandons_hopeless_retry(self):
        platform = CloudPlatform(
            servers=1,
            fault_model=FaultModel(seed=2, mtbf_min=5.0, mttr_min=5.0),
        )
        platform.submit("u", 60.0, 0.0, deadline_min=30.0)
        stats = platform.run()
        job = platform.jobs()[0]
        assert job.outcome == "gave_up"
        assert stats.failed == 1

    def test_utilization_measured_from_first_submit(self):
        # Regression: a job submitted late must not dilute utilization
        # with the idle time before anything was submitted.
        platform = CloudPlatform(servers=1)
        platform.submit("u", 10.0, 100.0)
        stats = platform.run()
        assert stats.utilization == pytest.approx(1.0)


class TestCheckpointStores:
    def test_cache_key_depends_on_inputs(self):
        module = counter_module()
        base = flow_cache_key(module, "edu130", OPEN, 1)
        assert base == flow_cache_key(counter_module(), "edu130", OPEN, 1)
        assert base != flow_cache_key(module, "edu180", OPEN, 1)
        assert base != flow_cache_key(module, "edu130", COMMERCIAL, 1)
        assert base != flow_cache_key(module, "edu130", OPEN, 2)
        assert base != flow_cache_key(counter_module(6), "edu130", OPEN, 1)

    def test_directory_store_persists(self, tmp_path):
        store = DirectoryStore(tmp_path / "ckpt")
        StageCheckpointer(store, "key1").save("routing", [1.5, 2.5])
        again = DirectoryStore(tmp_path / "ckpt")
        ckpt = StageCheckpointer(again, "key1")
        assert ckpt.load("routing") == [1.5, 2.5]
        assert ckpt.load("floorplan") is None
        assert again.keys() == ["key1.routing"]


class TestFlowOptionsApi:
    def test_string_preset_coerced(self):
        assert FlowOptions(preset="commercial").preset is COMMERCIAL

    def test_replace(self):
        options = FlowOptions(seed=1)
        assert options.replace(seed=9).seed == 9
        assert options.seed == 1

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            run_flow(counter_module(), get_pdk("edu130"), seed=2)

    def test_positional_preset_is_legacy(self):
        # A bare FlowPreset was the legacy third argument; only a
        # FlowOptions (or None) is accepted there now.
        with pytest.raises(TypeError):
            run_flow(counter_module(), get_pdk("edu130"), COMMERCIAL)

    def test_mixing_options_and_legacy_rejected(self):
        with pytest.raises(TypeError):
            run_flow(counter_module(), get_pdk("edu130"),
                     FlowOptions(), seed=2)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            run_flow(counter_module(), get_pdk("edu130"), bogus=1)


class TestFaultInjector:
    def test_budgeted_trips(self):
        injector = FaultInjector("routing", times=2)
        assert injector.trip("routing")
        assert injector.trip("routing")
        assert not injector.trip("routing")
        assert not injector.trip("placement")

    def test_check_raises_with_stage(self):
        injector = FaultInjector("placement")
        with pytest.raises(InjectedFault) as exc:
            injector.check("placement")
        assert exc.value.stage == "placement"


class TestGracefulDegradation:
    def test_failed_stage_recorded_not_raised(self):
        result = run_flow(
            counter_module(), get_pdk("edu130"),
            FlowOptions(continue_on_error=True,
                        inject=FaultInjector("routing", times=99)),
        )
        assert result.partial and not result.ok
        assert [f.stage for f in result.failures] == ["routing"]
        assert result.failures[0].kind == "injected"
        routing = result.step(FlowStep.ROUTING)
        assert not routing.ok
        # Upstream stages still ran and are reported.
        assert result.step(FlowStep.PLACEMENT).ok
        assert result.synthesis is not None
        # Downstream stages that need routing are absent, not crashed.
        assert result.timing is None and result.gds_bytes is None

    def test_without_continue_on_error_raises(self):
        with pytest.raises(FlowError):
            run_flow(
                counter_module(), get_pdk("edu130"),
                FlowOptions(inject=FaultInjector("routing")),
            )

    def test_downstream_of_analysis_fault_still_runs(self):
        result = run_flow(
            counter_module(), get_pdk("edu130"),
            FlowOptions(continue_on_error=True,
                        inject=FaultInjector("static_timing_analysis")),
        )
        assert result.timing is None
        # Power, DRC and GDS export do not need STA: they all ran.
        assert result.power is not None
        assert result.drc is not None and result.drc.clean
        assert result.gds_bytes
        assert result.partial

    def test_partial_result_blocks_signoff(self):
        result = run_flow(
            counter_module(), get_pdk("edu130"),
            FlowOptions(continue_on_error=True,
                        inject=FaultInjector("routing", times=99)),
        )
        report = run_signoff(result)
        assert not report.ready_for_tapeout
        flow_complete = report.items[0]
        assert flow_complete.name == "flow_complete"
        assert not flow_complete.passed and not flow_complete.waivable

    def test_failure_kind_validated(self):
        with pytest.raises(ValueError):
            FlowFailure("routing", "boom", kind="mystery")


#: FlowResult artifacts, and the ones each drill point's fault leaves
#: ``None`` because they need its step.
ARTIFACTS = (
    "synthesis", "physical", "timing", "power", "drc", "gds_bytes", "ppa",
)
_BACKEND_NEEDS = ("physical", "timing", "power", "drc", "gds_bytes", "ppa")
DRILL_POINTS = {
    "synthesis": ARTIFACTS,
    "floorplanning": _BACKEND_NEEDS,
    "placement": _BACKEND_NEEDS,
    "clock_tree_synthesis": _BACKEND_NEEDS,
    "routing": _BACKEND_NEEDS,
    "static_timing_analysis": ("timing", "ppa"),
    "power_analysis": ("power", "ppa"),
    "design_rule_check": ("drc",),
    "gds_export": ("gds_bytes",),
}


class TestDrillMatrix:
    """Every drill point fails its own step, and only what needs it."""

    @pytest.mark.parametrize("stage", DRILL_POINTS)
    def test_continue_on_error(self, stage):
        result = run_flow(
            counter_module(), get_pdk("edu130"),
            FlowOptions(continue_on_error=True, inject=FaultInjector(stage)),
        )
        assert [(f.stage, f.kind) for f in result.failures] == [
            (stage, "injected")
        ]
        reported = [report.step for report in result.steps]
        faulted = reported.index(FlowStep(stage))
        assert not result.steps[faulted].ok
        assert all(report.ok for report in result.steps[:faulted])
        for name in ARTIFACTS:
            missing = getattr(result, name) is None
            assert missing == (name in DRILL_POINTS[stage]), name

    @pytest.mark.parametrize("stage", DRILL_POINTS)
    def test_raises_without_continue_on_error(self, stage):
        with pytest.raises(FlowError) as exc:
            run_flow(
                counter_module(), get_pdk("edu130"),
                FlowOptions(inject=FaultInjector(stage)),
            )
        assert str(exc.value) == f"injected fault at stage {stage!r}"


def _unbuildable_layout(physical):
    raise FabricError("no shorts-free li stub position for pin A at "
                      "(44.64, 12.0)")


def _placement_past_the_core(mapped, floorplan, **kwargs):
    """The real placement with its first cell pushed past the core."""
    placed = pnr_placement.place(mapped, floorplan, **kwargs).cells
    first = next(iter(placed.values()))
    first.x = floorplan.rows[0].x1
    return pnr_placement.finish_placement(mapped, floorplan, placed)


class TestLocatedEngineErrors:
    """An engine's located error is a FlowFailure at its step, never an
    escape: recorded with continue_on_error, a FlowError without."""

    def test_fabric_error_recorded(self, monkeypatch):
        monkeypatch.setattr(flow_module, "build_chip_gds", _unbuildable_layout)
        result = run_flow(
            counter_module(), get_pdk("edu130"),
            FlowOptions(continue_on_error=True, extract_lvs=True),
        )
        assert [(f.stage, f.kind) for f in result.failures] == [
            ("design_rule_check", "crash")
        ]
        assert result.failures[0].message == (
            "layout build failed: no shorts-free li stub position for pin A "
            "at (44.64, 12.0)"
        )
        assert not result.step(FlowStep.DESIGN_RULE_CHECK).ok
        # Nothing to export or re-extract; the analyses still ran.
        assert result.drc is None and result.gds_bytes is None
        assert result.lvs is None
        assert result.timing is not None and result.power is not None
        assert result.partial

    def test_fabric_error_raises_flow_error(self, monkeypatch):
        monkeypatch.setattr(flow_module, "build_chip_gds", _unbuildable_layout)
        with pytest.raises(FlowError, match="layout build failed: no "
                                            "shorts-free li stub"):
            run_flow(counter_module(), get_pdk("edu130"))

    def test_placement_error_recorded(self, monkeypatch):
        monkeypatch.setattr(pnr_physical, "place", _placement_past_the_core)
        result = run_flow(
            counter_module(), get_pdk("edu130"),
            FlowOptions(continue_on_error=True),
        )
        assert [(f.stage, f.kind) for f in result.failures] == [
            ("placement", "crash")
        ]
        message = result.failures[0].message
        assert message.startswith("placement failed: cell ")
        assert message.endswith("; cells outside: 1")
        assert result.step(FlowStep.FLOORPLANNING).ok
        assert not result.step(FlowStep.PLACEMENT).ok
        assert result.physical is None and result.gds_bytes is None

    def test_placement_error_raises_flow_error(self, monkeypatch):
        monkeypatch.setattr(pnr_physical, "place", _placement_past_the_core)
        with pytest.raises(FlowError, match="placement failed: cell .* is "
                                            "outside the core rows"):
            run_flow(counter_module(), get_pdk("edu130"))


@pytest.fixture(params=["MemoryStore", "DirectoryStore"])
def checkpoint_store(request, tmp_path):
    """An empty checkpoint store of each backend."""
    if request.param == "MemoryStore":
        return MemoryStore()
    return DirectoryStore(tmp_path / "ckpt")


class TestCheckpointResume:
    def test_resume_is_byte_identical(self, checkpoint_store):
        module, pdk = counter_module(), get_pdk("edu130")
        cold = run_flow(module, pdk, FlowOptions(seed=3))
        store = checkpoint_store
        first = run_flow(module, pdk,
                         FlowOptions(seed=3, checkpoints=store))
        resumed = run_flow(module, pdk,
                           FlowOptions(seed=3, checkpoints=store))
        assert first.gds_bytes == cold.gds_bytes
        assert resumed.gds_bytes == cold.gds_bytes
        assert store.hits == len(CHECKPOINT_STAGES)

    def test_interrupted_after_placement_resumes_identically(
        self, checkpoint_store
    ):
        module, pdk = counter_module(), get_pdk("edu130")
        cold = run_flow(module, pdk, FlowOptions(seed=3))
        store = checkpoint_store
        interrupted = run_flow(
            module, pdk,
            FlowOptions(seed=3, checkpoints=store, continue_on_error=True,
                        inject=FaultInjector("routing")),
        )
        assert interrupted.gds_bytes is None
        key = flow_cache_key(module, pdk.name, OPEN, 3)
        assert set(store.keys()) >= {
            f"{key}.{stage}" for stage in CHECKPOINT_STAGES[:4]
        }
        resumed = run_flow(module, pdk,
                           FlowOptions(seed=3, checkpoints=store))
        assert resumed.ok
        assert resumed.gds_bytes == cold.gds_bytes

    def test_resume_false_recomputes(self):
        module, pdk = counter_module(), get_pdk("edu130")
        store = MemoryStore()
        run_flow(module, pdk, FlowOptions(seed=3, checkpoints=store))
        hits_before = store.hits
        run_flow(module, pdk,
                 FlowOptions(seed=3, checkpoints=store, resume=False))
        assert store.hits == hits_before

    def test_different_seed_different_key(self):
        module, pdk = counter_module(), get_pdk("edu130")
        store = MemoryStore()
        run_flow(module, pdk, FlowOptions(seed=3, checkpoints=store))
        run_flow(module, pdk, FlowOptions(seed=4, checkpoints=store))
        assert store.hits == 0

    def test_store_of_another_output_version_misses(self, monkeypatch):
        # A store written by an engine with other outputs must not serve
        # its stage artifacts: the key carries the output version.
        module, pdk = counter_module(), get_pdk("edu130")
        store = MemoryStore()
        current = cachekey.OUTPUT_VERSION
        monkeypatch.setattr(cachekey, "OUTPUT_VERSION", current - 1)
        stale = flow_cache_key(module, pdk.name, OPEN, 3)
        run_flow(module, pdk, FlowOptions(seed=3, checkpoints=store))
        monkeypatch.setattr(cachekey, "OUTPUT_VERSION", current)
        assert flow_cache_key(module, pdk.name, OPEN, 3) != stale
        run_flow(module, pdk, FlowOptions(seed=3, checkpoints=store))
        assert store.hits == 0


class TestDrillsOnWarmStore:
    """Synthesis drills fire only when synthesis computes; every later
    drill fires at stage entry, before any checkpoint lookup."""

    @pytest.fixture(scope="class")
    def warm(self):
        store = MemoryStore()
        run_flow(counter_module(), get_pdk("edu130"),
                 FlowOptions(seed=3, checkpoints=store))
        return store

    def drill(self, store, stage):
        injector = FaultInjector(stage)
        result = run_flow(
            counter_module(), get_pdk("edu130"),
            FlowOptions(seed=3, checkpoints=store, continue_on_error=True,
                        inject=injector),
        )
        return result, injector

    def test_synthesis_drill_skipped_by_checkpoint_hit(self, warm):
        result, injector = self.drill(warm, "synthesis")
        assert result.ok and injector.armed
        assert result.step(FlowStep.SYNTHESIS).metrics["cached"] is True

    @pytest.mark.parametrize(
        "stage", [stage for stage in DRILL_POINTS if stage != "synthesis"]
    )
    def test_later_drills_fire(self, warm, stage):
        result, injector = self.drill(warm, stage)
        assert not injector.armed
        assert [(f.stage, f.kind) for f in result.failures] == [
            (stage, "injected")
        ]
        assert not result.step(FlowStep(stage)).ok


class TestCallTimeLookup:
    """run_flow and implement() look every layer entry point up when they
    call it, so a wrapper installed on the module or class sees it."""

    TARGETS = [
        ("repro.core.flow", name) for name in (
            "lint_module", "lint_mapped", "synthesize", "lec_flow",
            "implement", "build_chip_gds", "check_drc", "write_gds",
        )
    ] + [
        ("repro.pnr.physical", name) for name in (
            "make_floorplan", "place", "synthesize_clock_tree", "route",
        )
    ] + [("repro.extract", "run_lvs")]

    def test_wrappers_see_every_call(self, monkeypatch):
        import importlib

        calls = {}

        def count(owner, name, label):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[label] = calls.get(label, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for module_name, name in self.TARGETS:
            count(importlib.import_module(module_name), name,
                  f"{module_name}.{name}")
        for name in ("load", "save"):
            count(StageCheckpointer, name, f"StageCheckpointer.{name}")

        store = MemoryStore()
        options = FlowOptions(seed=3, formal_lec=True, extract_lvs=True,
                              checkpoints=store)
        module, pdk = counter_module(), get_pdk("edu130")
        assert run_flow(module, pdk, options).ok
        assert run_flow(module, pdk, options).ok
        assert store.hits == len(CHECKPOINT_STAGES)
        expected = {f"{m}.{n}" for m, n in self.TARGETS} | {
            "StageCheckpointer.load", "StageCheckpointer.save",
        }
        assert set(calls) == expected


class TestHubRetries:
    def make_hub(self, **kwargs) -> EnablementHub:
        hub = EnablementHub(**kwargs)
        hub.enroll(User("alice", "tu-kaiserslautern"),
                   AccessTier.INTERMEDIATE)
        return hub

    def test_transient_fault_retried_from_checkpoint(self):
        hub = self.make_hub()
        record = hub.run_design(
            "alice", counter_module(), "edu130",
            options=FlowOptions(seed=3, inject=FaultInjector("routing")),
        )
        assert record.attempts == 2
        assert [f.kind for f in record.failures] == ["crash"]
        assert record.result.ok
        # The retry resumed: every pre-routing stage came from checkpoint.
        assert hub.checkpoints.hits >= 4
        assert record.queued_minutes > 0

    def test_gives_up_after_policy_budget(self):
        hub = self.make_hub(
            retry_policy=ExponentialBackoff(max_attempts=2)
        )
        with pytest.raises(HubError, match="after 2 attempt"):
            hub.run_design(
                "alice", counter_module(), "edu130",
                options=FlowOptions(
                    seed=3, inject=FaultInjector("routing", times=99)
                ),
            )

    def test_deadline_blocks_retry(self):
        hub = self.make_hub()
        with pytest.raises(HubError, match="deadline"):
            hub.run_design(
                "alice", counter_module(), "edu130",
                options=FlowOptions(
                    seed=3, inject=FaultInjector("routing", times=99)
                ),
                deadline_minute=0.25,
            )

    def test_partial_job_cannot_tape_out(self):
        hub = self.make_hub()
        record = hub.run_design(
            "alice", counter_module(), "edu130",
            options=FlowOptions(
                seed=3, continue_on_error=True,
                inject=FaultInjector("routing", times=99),
            ),
        )
        assert record.result.partial
        with pytest.raises(HubError, match="signoff blocks"):
            hub.request_tapeout("alice", record)
