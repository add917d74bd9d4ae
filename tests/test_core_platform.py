"""Tests for licensing gates, tiers, cloud, shuttles, enablement, hub."""

import pytest

from repro.core import (
    AccessTier,
    CloudPlatform,
    EnablementHub,
    FlowStep,
    HubError,
    ResidencyStatus,
    ShuttleProgram,
    ShuttleProject,
    User,
    access_friction,
    annual_effort_hours,
    availability_vs_enablement,
    backend_coverage,
    effort_breakdown,
    estimate_job_minutes,
    evaluate_access,
    get_template,
    policy_for,
    recommend_tier,
    tier_allows,
)
from repro.hdl import ModuleBuilder, mux
from repro.pdk import get_pdk


def fresh_student(**kwargs) -> User:
    defaults = dict(name="alice", institution="tu-kaiserslautern")
    defaults.update(kwargs)
    return User(**defaults)


def bound_calendar(monkeypatch, program: ShuttleProgram) -> list[int]:
    """Make ``program`` raise once its calendar grows a few times, so a
    booking that would extend it without end fails instead of hanging.
    Returns the list of extension sizes requested."""
    calls: list[int] = []
    extend = program._extend_calendar

    def bounded(count: int) -> None:
        calls.append(count)
        if len(calls) > 3:
            raise RuntimeError("shuttle calendar extended without bound")
        extend(count)

    monkeypatch.setattr(program, "_extend_calendar", bounded)
    return calls


class TestLicensing:
    def test_open_pdk_has_no_friction(self):
        user = fresh_student()
        for name in ("edu130", "edu180"):
            assert evaluate_access(user, get_pdk(name)).granted
            assert access_friction(user, get_pdk(name)) == 0

    def test_commercial_pdk_blocks_fresh_student(self):
        decision = evaluate_access(fresh_student(), get_pdk("edu045"))
        assert not decision.granted
        assert len(decision.blockers) >= 3

    def test_export_control(self):
        user = fresh_student(
            residency=ResidencyStatus.RESTRICTED,
            signed_ndas={"edu045"},
            completed_tapeouts=5,
            has_secured_funding=True,
            has_fixed_project_description=True,
            has_isolated_it=True,
        )
        decision = evaluate_access(user, get_pdk("edu045"))
        assert not decision.granted
        assert any("export control" in blocker for blocker in decision.blockers)

    def test_fully_qualified_group_gets_access(self):
        user = fresh_student(
            signed_ndas={"edu045"},
            completed_tapeouts=3,
            has_secured_funding=True,
            has_fixed_project_description=True,
            has_isolated_it=True,
        )
        assert evaluate_access(user, get_pdk("edu045")).granted


class TestTiers:
    def test_beginner_restricted_to_oldest_node(self):
        assert tier_allows(AccessTier.BEGINNER, "edu180")
        assert not tier_allows(AccessTier.BEGINNER, "edu130")
        assert not tier_allows(AccessTier.BEGINNER, "edu180", "commercial")

    def test_advanced_gets_everything(self):
        for pdk in ("edu180", "edu130", "edu045"):
            assert tier_allows(AccessTier.ADVANCED, pdk, "commercial")

    def test_recommendation(self):
        assert recommend_tier(0.5, False) is AccessTier.BEGINNER
        assert recommend_tier(2.5, False) is AccessTier.INTERMEDIATE
        assert recommend_tier(1.0, True) is AccessTier.ADVANCED

    def test_policies_have_pathways(self):
        for tier in AccessTier:
            assert policy_for(tier).recommended_pathway


class TestCloud:
    def test_single_job_no_wait(self):
        cloud = CloudPlatform(servers=2)
        cloud.submit("alice", duration_min=30.0, submit_min=0.0)
        stats = cloud.run()
        assert stats.jobs == 1
        assert stats.mean_wait_min == 0.0

    def test_contention_creates_queue(self):
        cloud = CloudPlatform(servers=1)
        for i in range(5):
            cloud.submit(f"user{i}", duration_min=60.0, submit_min=0.0)
        stats = cloud.run()
        assert stats.mean_wait_min > 0
        assert stats.makespan_min == pytest.approx(300.0)

    def test_more_servers_cut_waits(self):
        def waits(servers):
            cloud = CloudPlatform(servers=servers)
            for i in range(16):
                cloud.submit(f"u{i}", duration_min=30.0, submit_min=float(i))
            return cloud.run().mean_wait_min

        assert waits(8) <= waits(2) <= waits(1)

    def test_priority_order(self):
        cloud = CloudPlatform(servers=1)
        low = cloud.submit("low", duration_min=10.0, submit_min=0.0, priority=5)
        high = cloud.submit("high", duration_min=10.0, submit_min=0.0, priority=0)
        cloud.run()
        assert high.start_min <= low.start_min

    @pytest.mark.parametrize(
        "jobs,expected_wait",
        [
            # One server, unit jobs submitted together: sorted waits are
            # 0, 1, ..., n-1, so nearest-rank p95 (the ceil(0.95 n)-th
            # smallest) is directly readable.  n=20 exposed the old
            # off-by-one: int(0.95 * 20) == 19 indexed one rank too high.
            (1, 0.0),
            (19, 18.0),  # ceil(18.05) = 19th value
            (20, 18.0),  # ceil(19.0) = 19th value, NOT the 20th
            (100, 94.0),  # ceil(95.0) = 95th value
        ],
    )
    def test_p95_wait_nearest_rank(self, jobs, expected_wait):
        cloud = CloudPlatform(servers=1)
        for i in range(jobs):
            cloud.submit(f"u{i}", duration_min=1.0, submit_min=0.0)
        stats = cloud.run()
        assert stats.p95_wait_min == pytest.approx(expected_wait)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            CloudPlatform(servers=0)
        with pytest.raises(ValueError):
            CloudPlatform().submit("x", duration_min=0.0, submit_min=0.0)

    def test_job_estimate_grows_with_size(self):
        assert estimate_job_minutes(10_000) > estimate_job_minutes(100)


class TestShuttle:
    @pytest.fixture()
    def program(self):
        return ShuttleProgram(get_pdk("edu130"), runs_per_year=4,
                              capacity_mm2=10.0)

    def test_booking_earliest_run(self, program):
        quote = program.submit(ShuttleProject("p1", "alice", 2.0))
        assert quote.run_index == 0
        assert quote.launch_day == 91

    def test_turnaround_exceeds_course(self, program):
        # Section III-C: chips come back after a typical course ends.
        quote = program.submit(ShuttleProject("p1", "alice", 2.0))
        course_days = 90
        assert not program.meets_deadline(quote, course_days)

    def test_capacity_pushes_to_next_run(self, program):
        program.submit(ShuttleProject("big", "bob", 9.5))
        quote = program.submit(ShuttleProject("p2", "alice", 2.0))
        assert quote.run_index == 1

    def test_calendar_extends(self, program):
        for i in range(12):
            program.submit(ShuttleProject(f"p{i}", "x", 9.0))
        assert len(program.runs) >= 12

    def test_sharing_factor_large(self, program):
        # A shared seat is orders of magnitude cheaper than a mask set.
        assert program.sharing_factor(1.0) > 50

    def test_sponsorship_fund(self):
        # Fund covers exactly one 1 mm2 seat at 1100 EUR/mm2.
        program = ShuttleProgram(get_pdk("edu130"), sponsorship_fund_eur=1_500.0)
        quote = program.submit(
            ShuttleProject("student", "alice", 1.0, sponsored=True)
        )
        assert quote.sponsored
        assert quote.seat_cost_eur == 0.0
        # Fund exhausted: next sponsored seat pays.
        quote2 = program.submit(
            ShuttleProject("student2", "bob", 1.0, sponsored=True)
        )
        assert not quote2.sponsored
        assert quote2.seat_cost_eur > 0

    def test_invalid_project(self):
        with pytest.raises(ValueError):
            ShuttleProject("bad", "x", 0.0)

    def test_project_larger_than_a_run_rejected(self, program, monkeypatch):
        # No run holds 12 mm2, not even a fresh one: the booking must be
        # refused up front, not chase an ever-longer calendar.
        calls = bound_calendar(monkeypatch, program)
        with pytest.raises(ValueError, match=r"12\.0 mm2.*10\.0 mm2"):
            program.submit(ShuttleProject("huge", "bob", 12.0))
        assert calls == []
        assert all(not run.projects for run in program.runs)
        # A project that fills a run exactly still books.
        assert program.submit(ShuttleProject("full", "bob", 10.0)).run_index == 0

    @pytest.mark.parametrize("capacity", [0.0, -5.0])
    def test_nonpositive_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            ShuttleProgram(get_pdk("edu130"), capacity_mm2=capacity)


class TestEnablementModel:
    def test_templates_and_hub_reduce_effort(self):
        manual = annual_effort_hours("manual")
        templates = annual_effort_hours("templates")
        hub = annual_effort_hours("hub")
        assert hub < templates < manual

    def test_enablement_dominates_availability(self):
        split = availability_vs_enablement()
        assert split["enablement_share"] > 0.7

    def test_breakdown_sums_to_total(self):
        for strategy in ("manual", "templates", "hub"):
            breakdown = effort_breakdown(strategy)
            assert sum(breakdown.values()) == pytest.approx(
                annual_effort_hours(strategy), abs=1.0
            )

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            annual_effort_hours("magic")


class TestTemplates:
    def test_builtin_templates_valid(self):
        for name in ("digital_asic", "fpga_prototyping", "beginner_tinytapeout"):
            template = get_template(name)
            assert template.step_names()

    def test_asic_template_covers_backend(self):
        assert backend_coverage(get_template("digital_asic")) == 1.0

    def test_fpga_template_partial_backend(self):
        coverage = backend_coverage(get_template("fpga_prototyping"))
        assert 0.2 < coverage < 0.8

    def test_order_violation_rejected(self):
        from repro.core.templates import FlowTemplate, StepSpec

        bad = FlowTemplate(
            "bad", "wrong order",
            (StepSpec(FlowStep.ROUTING), StepSpec(FlowStep.PLACEMENT)),
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            get_template("analog_flow")


class TestHub:
    def build_tiny(self):
        b = ModuleBuilder("tiny")
        en = b.input("en", 1)
        count = b.register("count", 4)
        count.next = mux(en, count + 1, count)
        b.output("q", count)
        return b.build()

    def test_enroll_and_run(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.INTERMEDIATE)
        record = hub.run_design("alice", self.build_tiny(), "edu130")
        assert record.result.ok
        assert hub.jobs

    def test_unenrolled_rejected(self):
        hub = EnablementHub()
        with pytest.raises(HubError):
            hub.run_design("mallory", self.build_tiny(), "edu130")

    def test_tier_blocks_commercial_node(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.BEGINNER)
        with pytest.raises(HubError):
            hub.run_design("alice", self.build_tiny(), "edu045")

    def test_available_pdks_respect_gates(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.ADVANCED)
        available = hub.available_pdks("alice")
        assert "edu130" in available
        assert "edu045" not in available  # no NDA yet

    def test_access_decision_trail(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.BEGINNER)
        decision = hub.request_access("alice", "edu045")
        assert not decision.granted
        assert "tier" in decision.blockers[0]

    def test_shuttle_booking_through_hub(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.INTERMEDIATE)
        quote = hub.book_shuttle_seat("alice", "edu130", area_mm2=0.5)
        assert quote.launch_day > 0

    def test_every_booking_gets_its_own_project_name(self):
        # No flow job runs between the bookings, so a name numbered by
        # the job count would repeat.
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.INTERMEDIATE)
        first = hub.book_shuttle_seat("alice", "edu130", area_mm2=0.5)
        second = hub.book_shuttle_seat("alice", "edu130", area_mm2=0.5)
        assert first.project != second.project
        projects = [
            project.name
            for run in hub.shuttle("edu130").runs
            for project in run.projects
        ]
        assert sorted(projects) == sorted([first.project, second.project])

    def test_shuttle_area_capped_by_tier(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.BEGINNER)
        with pytest.raises(HubError):
            hub.book_shuttle_seat("alice", "edu180", area_mm2=5.0)

    def test_shuttle_seat_larger_than_a_run_rejected(self, monkeypatch):
        # Within the ADVANCED tier's 10 mm2, but over the program's 5 mm2
        # runs.
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.ADVANCED)
        program = hub.shuttle("edu130", capacity_mm2=5.0)
        bound_calendar(monkeypatch, program)
        with pytest.raises(ValueError, match=r"8\.0 mm2.*5\.0 mm2"):
            hub.book_shuttle_seat("alice", "edu130", area_mm2=8.0)

    def test_ip_is_ungated(self):
        hub = EnablementHub()
        assert "fifo" in hub.ip_catalogue()
        ip = hub.fetch_ip("counter", width=4)
        assert ip.verify(50).passed


class TestTapeoutRequest:
    def build_counter(self, width=6):
        b = ModuleBuilder("tapeout_me")
        en = b.input("en", 1)
        count = b.register("count", width)
        count.next = mux(en, count + 1, count)
        b.output("q", count)
        return b.build()

    def test_signoff_gated_booking(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.INTERMEDIATE)
        record = hub.run_design("alice", self.build_counter(), "edu130",
                                clock_period_ps=5_000.0)
        quote = hub.request_tapeout("alice", record)
        assert quote.launch_day > 0
        assert quote.seat_cost_eur >= 0

    def test_failing_signoff_blocks_booking(self):
        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.INTERMEDIATE)
        record = hub.run_design("alice", self.build_counter(), "edu130",
                                clock_period_ps=5_000.0)

        class Fake:
            passed = False
            mismatches = []

        original = record.result.synthesis.equivalence
        record.result.synthesis.equivalence = Fake()
        try:
            with pytest.raises(HubError, match="signoff"):
                hub.request_tapeout("alice", record)
        finally:
            record.result.synthesis.equivalence = original

    def test_jobless_record_rejected(self):
        from repro.core.hub import HubJobRecord

        hub = EnablementHub()
        hub.enroll(fresh_student(), AccessTier.INTERMEDIATE)
        empty = HubJobRecord(user="alice", design="x", pdk="edu130",
                             preset="open")
        with pytest.raises(HubError, match="no flow result"):
            hub.request_tapeout("alice", empty)
