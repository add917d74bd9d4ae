"""Tests for repro.campaign: fair-share scheduling, the global result
cache, serial-vs-process-pool equivalence, and the shared cache key."""

import dataclasses

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    FairShareScheduler,
    FifoScheduler,
    evaluate_schedule,
    nearest_rank_p95,
    result_cache_key,
    result_signature,
)
from repro.campaign.cache import UNKEYED_FIELDS
from repro.core import (
    AccessTier,
    CampaignRequest,
    EnablementHub,
    FlowOptions,
    HubError,
    User,
    run_flow,
    run_signoff,
)
from repro.core.tiers import TIER_POLICIES
from repro.ip.digital import make_counter, make_gray_counter
from repro.lint import Waiver
from repro.obs.metrics import MetricsRegistry
from repro.pdk import get_pdk
from repro.resil import (
    DirectoryStore,
    FaultInjector,
    MemoryStore,
    StageCheckpointer,
    flow_cache_key,
)
from repro.resil import cachekey as cachekey_module
from repro.resil import checkpoint as checkpoint_module


def counter_module(width: int = 4):
    return make_counter(width).module


def gray_module(width: int = 4):
    return make_gray_counter(width).module


def build_campaign(copies: int = 3, tenants: int = 2, **kwargs) -> Campaign:
    """``copies`` duplicates each of two designs across ``tenants``."""
    campaign = Campaign(**kwargs)
    for index in range(copies):
        tenant = f"uni{index % tenants}"
        campaign.submit(tenant, counter_module(), "edu130")
        campaign.submit(tenant, gray_module(), "edu130")
    return campaign


# -- shared cache key -------------------------------------------------------


class TestCacheKey:
    def test_checkpoint_and_campaign_share_one_implementation(self):
        # The satellite contract: no drift is possible because the
        # checkpoint path re-exports the one shared function.
        assert checkpoint_module.flow_cache_key is cachekey_module.flow_cache_key
        assert flow_cache_key is cachekey_module.flow_cache_key

    def test_base_keys_identical_across_both_paths(self):
        module = counter_module()
        options = FlowOptions(seed=9)
        checkpoint_key = flow_cache_key(
            module, "edu130", options.preset, options.seed
        )
        campaign_base = cachekey_module.flow_cache_key(
            module, "edu130", options.preset, options.seed, extra=None
        )
        assert checkpoint_key == campaign_base
        # And the checkpointer binds exactly that key.
        ckpt = StageCheckpointer(store=None, key=checkpoint_key, resume=False)
        assert ckpt.key == campaign_base

    def test_extra_knobs_change_the_key(self):
        module = counter_module()
        preset = FlowOptions().preset
        base = flow_cache_key(module, "edu130", preset, 1)
        extended = flow_cache_key(
            module, "edu130", preset, 1, extra={"clock_period_ps": 5000.0}
        )
        assert base != extended
        # Empty extra stays byte-compatible with the historical key.
        assert flow_cache_key(module, "edu130", preset, 1, extra={}) == base

    def test_result_key_covers_every_result_affecting_knob(self):
        module = counter_module()
        base = result_cache_key(module, "edu130", FlowOptions())
        assert base == result_cache_key(module, "edu130", FlowOptions())
        # One non-default value per compared FlowOptions field: a new
        # field must be added here, and then either change the key or
        # be named in UNKEYED_FIELDS.
        changed = {
            "preset": "commercial",
            "clock_period_ps": 4_000.0,
            "strict_drc": False,
            "seed": 2,
            "lint_waivers": (Waiver("net.high-fanout"),),
            "strict_lint": True,
            "formal_lec": True,
            "extract_lvs": True,
            "continue_on_error": True,
            "resume": False,
        }
        compared = [
            f.name for f in dataclasses.fields(FlowOptions) if f.compare
        ]
        assert sorted(compared) == sorted(changed)
        keys = set()
        for name in compared:
            key = result_cache_key(
                module, "edu130", FlowOptions(**{name: changed[name]})
            )
            if key == base:
                assert name in UNKEYED_FIELDS, f"{name} is not keyed"
            else:
                keys.add(key)
        assert len(keys) == len(compared) - 1  # all but ``resume``

    def test_execution_only_knobs_do_not_change_the_key(self):
        module = counter_module()
        plain = result_cache_key(module, "edu130", FlowOptions())
        wired = result_cache_key(
            module, "edu130",
            FlowOptions(checkpoints=MemoryStore(), resume=False),
        )
        assert plain == wired
        assert "resume" in UNKEYED_FIELDS

    def test_rtl_edit_misses(self):
        options = FlowOptions()
        assert result_cache_key(
            counter_module(4), "edu130", options
        ) != result_cache_key(counter_module(5), "edu130", options)


# -- directory-backed result cache ------------------------------------------


class TestDirectoryResultCache:
    def test_round_trip_across_instances(self, tmp_path):
        result = run_flow(counter_module(), get_pdk("edu130"), FlowOptions())
        root = tmp_path / "results"
        DirectoryStore(root).put("k", result)
        loaded = DirectoryStore(root).get("k")
        assert loaded is not None
        assert result_signature(loaded) == result_signature(result)

    def test_lru_eviction_order(self, tmp_path):
        result = run_flow(counter_module(), get_pdk("edu130"), FlowOptions())
        cache = DirectoryStore(tmp_path, max_entries=2)
        cache.put("a", result)
        cache.put("b", result)
        cache.get("a")
        cache.put("c", result)
        assert set(cache.keys()) == {"a", "c"}
        assert cache.evictions == 1
        assert len(cache.keys()) == 2


# -- bounded checkpoint store (satellite) -----------------------------------


def save_stage(store, key, value):
    StageCheckpointer(store, key).save("synthesis", value)


def load_stage(store, key):
    return StageCheckpointer(store, key).load("synthesis")


class TestDirectoryCheckpointStoreLru:
    """A bounded DirectoryStore holding one stage checkpoint per key."""

    def test_unbounded_by_default(self, tmp_path):
        store = DirectoryStore(tmp_path)
        for index in range(10):
            save_stage(store, f"key{index}", {"n": index})
        assert store.evictions == 0
        assert len(store.keys()) == 10

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        store = DirectoryStore(tmp_path, max_entries=2)
        save_stage(store, "k1", 1)
        save_stage(store, "k2", 2)
        load_stage(store, "k1")  # refresh k1: k2 is the coldest
        save_stage(store, "k3", 3)
        assert store.evictions == 1
        assert load_stage(store, "k2") is None
        assert load_stage(store, "k1") == 1
        assert load_stage(store, "k3") == 3

    def test_eviction_strictly_follows_recency_order(self, tmp_path):
        store = DirectoryStore(tmp_path, max_entries=3)
        for key in ("a", "b", "c"):
            save_stage(store, key, key)
        for key in ("c", "b", "a"):  # reversed recency
            load_stage(store, key)
        save_stage(store, "d", "d")  # evicts c (coldest)
        save_stage(store, "e", "e")  # evicts b
        survivors = {
            key for key in ("a", "b", "c", "d", "e")
            if load_stage(store, key) is not None
        }
        assert survivors == {"a", "d", "e"}

    def test_max_bytes_budget(self, tmp_path):
        store = DirectoryStore(tmp_path, max_bytes=1)
        save_stage(store, "k1", list(range(100)))
        save_stage(store, "k2", list(range(100)))
        # The just-written entry always survives, the cold one goes.
        assert load_stage(store, "k1") is None
        assert load_stage(store, "k2") is not None

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DirectoryStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            DirectoryStore(tmp_path, max_bytes=0)


# -- scheduler invariants ---------------------------------------------------


def make_jobs(spec):
    """Jobs from (tenant, est_minutes, deadline_min) tuples, ids in order."""
    from repro.campaign import CampaignJob

    jobs = []
    for index, (tenant, est, deadline) in enumerate(spec):
        jobs.append(CampaignJob(
            job_id=index, tenant=tenant, module=None, pdk_name="edu130",
            options=None, est_minutes=est, deadline_min=deadline,
        ))
    return jobs


class TestScheduler:
    def test_same_seed_same_order(self):
        spec = [(f"uni{i % 3}", 10.0 + i, None) for i in range(20)]
        first = FairShareScheduler().order(make_jobs(spec), seed=42)
        second = FairShareScheduler().order(make_jobs(spec), seed=42)
        assert [j.job_id for j in first] == [j.job_id for j in second]

    def test_fifo_is_submission_order(self):
        spec = [("b", 10.0, None), ("a", 10.0, None), ("b", 10.0, None)]
        ordered = FifoScheduler().order(make_jobs(spec), seed=0)
        assert [j.job_id for j in ordered] == [0, 1, 2]

    def test_no_starvation_under_skewed_load(self):
        # Tenant "big" floods the queue before "small" submits anything;
        # fair share must still interleave small's jobs near the front.
        spec = [("big", 10.0, None)] * 30 + [("small", 10.0, None)] * 3
        ordered = FairShareScheduler().order(make_jobs(spec), seed=1)
        positions = [
            pos for pos, job in enumerate(ordered) if job.tenant == "small"
        ]
        assert max(positions) <= 6, positions
        # FIFO, by contrast, starves small behind every big job.
        fifo = FifoScheduler().order(make_jobs(spec), seed=1)
        fifo_positions = [
            pos for pos, job in enumerate(fifo) if job.tenant == "small"
        ]
        assert min(fifo_positions) == 30

    def test_edf_within_tenant(self):
        spec = [
            ("uni", 10.0, None),
            ("uni", 10.0, 50.0),
            ("uni", 10.0, 20.0),
        ]
        ordered = FairShareScheduler().order(make_jobs(spec), seed=0)
        assert [j.job_id for j in ordered] == [2, 1, 0]

    def test_deadline_aware_beats_fifo_on_misses(self):
        # Three long no-deadline jobs submitted before three short
        # tight-deadline ones: FIFO runs the longs first and misses
        # every deadline; EDF runs the shorts first and misses none.
        spec = (
            [("uni", 100.0, None)] * 3
            + [("uni", 10.0, 40.0), ("uni", 10.0, 50.0), ("uni", 10.0, 60.0)]
        )
        fifo = FifoScheduler().order(make_jobs(spec), seed=0)
        fifo_sim = evaluate_schedule(fifo, workers=1)
        fair = FairShareScheduler().order(make_jobs(spec), seed=0)
        fair_sim = evaluate_schedule(fair, workers=1)
        assert fifo_sim.deadline_misses == 3
        assert fair_sim.deadline_misses == 0
        assert fair_sim.deadline_misses < fifo_sim.deadline_misses

    def test_weights_shift_share(self):
        spec = [("a", 10.0, None)] * 4 + [("b", 10.0, None)] * 4
        ordered = FairShareScheduler(weights={"a": 3.0}).order(
            make_jobs(spec), seed=0
        )
        # Tenant a's triple weight front-loads its jobs.
        first_four = [job.tenant for job in ordered[:4]]
        assert first_four.count("a") >= 3

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FairShareScheduler(weights={"a": 0.0})


class TestEvaluateSchedule:
    def test_list_scheduling_across_workers(self):
        jobs = make_jobs([("u", 10.0, None)] * 4)
        sim = evaluate_schedule(jobs, workers=2)
        assert sim.makespan_min == 20.0
        assert [j.sim_start_min for j in jobs] == [0.0, 0.0, 10.0, 10.0]

    def test_cache_hits_billed_at_hit_cost(self):
        jobs = make_jobs([("u", 10.0, None)] * 3)
        jobs[1].cache_hit = True
        sim = evaluate_schedule(jobs, workers=1, cache_hit_minutes=0.5)
        assert jobs[1].sim_finish_min - jobs[1].sim_start_min == 0.5
        assert sim.makespan_min == 20.5

    def test_p95_nearest_rank(self):
        assert nearest_rank_p95([]) == 0.0
        assert nearest_rank_p95([5.0]) == 5.0
        waits = [float(v) for v in range(1, 21)]
        assert nearest_rank_p95(waits) == 19.0

    def test_per_tenant_rows(self):
        jobs = make_jobs([("a", 10.0, None), ("b", 20.0, None)])
        sim = evaluate_schedule(jobs, workers=1)
        assert sim.per_tenant["a"]["jobs"] == 1
        assert sim.per_tenant["b"]["service_min"] == 20.0

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            evaluate_schedule([], workers=0)


# -- engine + executor ------------------------------------------------------


class TestCampaignEngine:
    def test_duplicate_submissions_hit_the_cache(self):
        campaign = build_campaign(copies=4)
        report = campaign.run()
        assert report.jobs == 8
        assert report.unique_designs == 2
        assert report.cache_misses == 2
        assert report.cache_hits == 6
        assert report.completed == 8
        assert report.hit_rate == 0.75

    def test_same_seed_reproduces_the_deterministic_half(self):
        first = build_campaign(copies=3, seed=11).run()
        second = build_campaign(copies=3, seed=11).run()
        a, b = first.as_dict(), second.as_dict()
        for volatile in ("elapsed_s", "throughput_jobs_per_s"):
            a.pop(volatile), b.pop(volatile)
        assert a == b
        assert first.render() == second.render()

    def test_serial_and_pool_results_are_byte_identical(self):
        serial = build_campaign(copies=3, workers=0, seed=5)
        serial_report = serial.run()
        pooled = build_campaign(copies=3, workers=2, seed=5)
        pooled_report = pooled.run()
        key = lambda j: j.job_id
        serial_sigs = [
            result_signature(j.result)
            for j in sorted(serial.queue.jobs(), key=key)
        ]
        pooled_sigs = [
            result_signature(j.result)
            for j in sorted(pooled.queue.jobs(), key=key)
        ]
        assert serial_sigs == pooled_sigs
        assert serial_report.cache_hits == pooled_report.cache_hits
        assert serial_report.cache_misses == pooled_report.cache_misses

    def test_pool_gds_bytes_match_serial(self):
        serial = build_campaign(copies=1, workers=0)
        serial.run()
        pooled = build_campaign(copies=1, workers=2)
        pooled.run()
        for a, b in zip(serial.queue.jobs(), pooled.queue.jobs()):
            assert a.result.gds_bytes == b.result.gds_bytes

    def test_failed_jobs_are_recorded_not_cached(self):
        campaign = Campaign(seed=1)
        for _ in range(2):
            campaign.submit(
                "uni0", counter_module(), "edu130",
                options=FlowOptions(
                    inject=FaultInjector("synthesis", times=5)
                ),
            )
        report = campaign.run()
        assert report.failed == 2
        assert report.cache_misses == 2  # a failure is never memoized
        assert all(
            j.status == "failed" and j.error
            for j in campaign.queue.jobs()
        )

    def test_shared_cache_spans_campaigns(self):
        cache = MemoryStore()
        build_campaign(copies=2, cache=cache).run()
        second = build_campaign(copies=2, cache=cache)
        report = second.run()
        assert report.cache_hits == report.jobs  # warm from campaign one

    def test_metrics_flow_through_the_registry(self):
        metrics = MetricsRegistry()
        build_campaign(copies=2, metrics=metrics).run()
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["campaign.jobs"] == 4
        assert snapshot["counters"]["campaign.cache.hits"] == 2
        assert snapshot["counters"]["campaign.cache.misses"] == 2
        assert snapshot["gauges"]["campaign.cache_hit_rate"]["value"] == 0.5
        assert snapshot["histograms"]["campaign.queue_wait_min"]["count"] == 4

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError):
            Campaign().run()

    def test_options_threaded_through_unchanged(self):
        campaign = Campaign()
        options = FlowOptions(clock_period_ps=4_200.0, seed=3)
        campaign.submit("uni0", counter_module(), "edu130", options=options)
        campaign.run()
        job = campaign.queue.jobs()[0]
        assert job.result.clock_period_ps == 4_200.0
        assert job.options is options


# -- hub integration --------------------------------------------------------


def enrolled_hub(tier=AccessTier.INTERMEDIATE) -> EnablementHub:
    hub = EnablementHub()
    for name in ("alice", "bob"):
        hub.enroll(User(name, "tu-kaiserslautern"), tier)
    return hub


class TestHubCampaign:
    def test_policy_checked_before_any_execution(self):
        hub = enrolled_hub(tier=AccessTier.BEGINNER)
        requests = [
            CampaignRequest("alice", counter_module(), "edu130"),
        ]
        with pytest.raises(HubError):
            hub.run_campaign(requests)  # beginners stop at edu180
        assert hub.jobs == []
        assert len(hub.cloud.jobs()) == 0

    def test_unenrolled_user_rejected(self):
        hub = enrolled_hub()
        with pytest.raises(HubError):
            hub.run_campaign(
                [CampaignRequest("mallory", counter_module(), "edu130")]
            )

    def test_campaign_records_and_cloud_billing(self):
        hub = enrolled_hub()
        requests = [
            CampaignRequest("alice", counter_module(), "edu130"),
            CampaignRequest("bob", counter_module(), "edu130"),
            CampaignRequest("alice", gray_module(), "edu130"),
        ]
        report, records = hub.run_campaign(requests, seed=3)
        assert report.completed == 3
        assert report.cache_hits == 1  # the duplicate counter
        assert len(records) == 3
        assert len(hub.jobs) == 3
        assert all(r.result is not None for r in records)
        stats = hub.cloud.run()
        assert stats.jobs == 3
        assert set(stats.by_user) == {"alice", "bob"}
        assert stats.by_user["alice"]["jobs"] == 2

    def test_hub_cache_is_cross_campaign(self):
        hub = enrolled_hub()
        request = [CampaignRequest("alice", counter_module(), "edu130")]
        hub.run_campaign(request)
        report, records = hub.run_campaign(request)
        assert report.cache_hits == 1
        assert records[0].attempts == 0  # served from cache, no flow run

    def test_empty_campaign_rejected(self):
        with pytest.raises(HubError):
            enrolled_hub().run_campaign([])

    def test_lvs_request_is_not_served_a_result_without_lvs(self):
        hub = enrolled_hub()
        plain = CampaignRequest("alice", counter_module(), "edu130")
        hub.run_campaign([plain])
        lvs = CampaignRequest(
            "alice", counter_module(), "edu130",
            options=FlowOptions(extract_lvs=True),
        )
        _, (record,) = hub.run_campaign([lvs])
        assert record.attempts == 1
        assert record.result.lvs is not None

    def test_run_design_enforces_the_tier_die_area_limit(
        self, monkeypatch
    ):
        tight = dataclasses.replace(
            TIER_POLICIES[AccessTier.INTERMEDIATE], max_die_area_mm2=1e-6
        )
        monkeypatch.setitem(TIER_POLICIES, AccessTier.INTERMEDIATE, tight)
        hub = enrolled_hub()
        with pytest.raises(HubError, match="exceeds tier limit 1e-06 mm2"):
            hub.run_design("alice", counter_module(), "edu130")
        assert hub.jobs == []

    def test_campaign_enforces_the_tier_die_area_limit_per_record(
        self, monkeypatch
    ):
        tight = dataclasses.replace(
            TIER_POLICIES[AccessTier.INTERMEDIATE], max_die_area_mm2=1e-6
        )
        monkeypatch.setitem(TIER_POLICIES, AccessTier.INTERMEDIATE, tight)
        hub = EnablementHub()
        hub.enroll(User("alice", "tu-kaiserslautern"), AccessTier.INTERMEDIATE)
        hub.enroll(User("bob", "tu-kaiserslautern"), AccessTier.ADVANCED)
        requests = [
            CampaignRequest(user, counter_module(), "edu130")
            for user in ("alice", "bob", "alice")
        ]
        report, records = hub.run_campaign(requests)
        assert report.cache_hits == 2
        assert (report.completed, report.failed) == (1, 2)
        by_user = {}
        for record in records:
            by_user.setdefault(record.user, []).append(record)
        (bob,) = by_user["bob"]
        assert bob.result is not None and not bob.failures
        assert len(by_user["alice"]) == 2  # one run, one cache hit
        for record in by_user["alice"]:
            assert record.result is None
            (failure,) = record.failures
            assert failure.message.startswith("die area ")
            assert failure.message.endswith("exceeds tier limit 1e-06 mm2")

    def test_pool_campaign_after_serial_jobs_matches_serial(self):
        # The hub attaches its in-memory checkpoint store to every
        # request.  It pickles as an empty store, so pool workers start
        # cold (the re-clocked counter resumes only in the serial run)
        # and produce the same results.
        warmup = [CampaignRequest("alice", counter_module(), "edu130")]
        batch = [
            CampaignRequest("alice", counter_module(), "edu130"),
            CampaignRequest(
                "bob", counter_module(), "edu130",
                options=FlowOptions(clock_period_ps=4_000.0),
            ),
            CampaignRequest("bob", gray_module(), "edu130"),
            CampaignRequest("alice", gray_module(), "edu130"),
        ]
        runs = []
        for workers in (0, 2):
            hub = enrolled_hub()
            hub.run_campaign(warmup, seed=3)
            assert hub.checkpoints.keys()
            report, records = hub.run_campaign(
                batch, workers=workers, seed=3
            )
            runs.append((
                [result_signature(r.result) for r in records],
                [r.attempts for r in records],
                report.cache_hits,
                report.cache_misses,
            ))
        assert runs[0] == runs[1]
        assert runs[0][2:] == (2, 2)

    def test_signoff_leaves_the_shared_result_unchanged(self):
        hub = enrolled_hub()
        request = CampaignRequest("alice", counter_module(), "edu130")
        _, (first, hit) = hub.run_campaign([request, request])
        assert hit.attempts == 0
        (key,) = hub.result_cache.keys()
        cached = hub.result_cache.get(key)
        # The producer and every hit share the one cached instance.
        assert cached is first.result and cached is hit.result
        before = (cached.to_json(), cached.gds_bytes)
        run_signoff(hit.result)
        assert (cached.to_json(), cached.gds_bytes) == before


# -- CLI --------------------------------------------------------------------


class TestCampaignCli:
    def run_cli(self, capsys, argv):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    def test_deterministic_stdout(self, capsys):
        argv = ["campaign", "--designs", "12", "--tenants", "3",
                "--seed", "7"]
        code_a, out_a = self.run_cli(capsys, argv)
        code_b, out_b = self.run_cli(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "hit_rate=" in out_a

    def test_json_report_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "campaign.json"
        code, _ = self.run_cli(
            capsys,
            ["campaign", "--designs", "6", "--seed", "3",
             "--json", str(path)],
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["jobs"] == 6
        assert 0.0 <= data["cache_hit_rate"] <= 1.0
        assert "p95_wait_min" in data["sim"]

    def test_flag_validation(self, capsys):
        code, _ = self.run_cli(capsys, ["campaign", "--designs", "0"])
        assert code == 2
