"""The enablement hub: one front door to PDKs, flows, IP and shuttles.

This class is the paper's Recommendation 7 made concrete: a centralized
(cloud-backed) platform through which users at different tiers
(Recommendation 8) request technology access (Section III-C gates),
run the configured flow (Recommendation 4 templates) and book MPW seats
(Recommendation 6), with the open IP catalogue (Recommendation 5) a call
away.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..hdl.ir import Module
from ..ip.base import IpBlock
from ..ip.catalog import catalogue, generate
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import get_tracer
from ..pdk.pdks import Pdk, get_pdk, list_pdks
from ..resil.failure import FlowFailure
from ..resil.retry import ExponentialBackoff, RetryPolicy
from ..resil.store import MemoryStore, Store
from .cloud import CloudPlatform, estimate_job_minutes
from .flow import FlowError, FlowResult, run_flow
from .licensing import AccessDecision, User, evaluate_access
from .options import FlowOptions
from .shuttle import SeatQuote, ShuttleProgram, ShuttleProject
from .tiers import AccessTier, policy_for, tier_allows


class HubError(Exception):
    """Raised when a hub request violates policy."""


def _die_area_error(tier: AccessTier, result: FlowResult | None) -> str | None:
    """Why ``result``'s die is too large for ``tier``, or ``None``."""
    limit = policy_for(tier).max_die_area_mm2
    if (
        result is not None
        and result.physical is not None
        and result.physical.die_area_mm2 > limit
    ):
        return (
            f"die area {result.physical.die_area_mm2:.4f} mm2 exceeds "
            f"tier limit {limit} mm2"
        )
    return None


def _flow_minutes(result: FlowResult | None) -> float:
    """Cloud minutes billed for one flow run.  A ``continue_on_error``
    run may be partial: it is billed only for the cells it mapped."""
    cells = (
        len(result.synthesis.mapped.cells)
        if result is not None and result.synthesis is not None
        else 1
    )
    return estimate_job_minutes(cells)


@dataclass
class Enrollment:
    user: User
    tier: AccessTier


@dataclass
class CampaignRequest:
    """One tenant's design submission to :meth:`EnablementHub.run_campaign`.

    ``options`` wins over ``preset`` when both are given, mirroring
    :meth:`EnablementHub.run_design`.
    """

    user: str
    module: Module
    pdk: str
    preset: str = "open"
    options: FlowOptions | None = None
    priority: int = 0
    deadline_min: float | None = None
    est_minutes: float | None = None


@dataclass
class HubJobRecord:
    """Bookkeeping for one flow execution through the hub."""

    user: str
    design: str
    pdk: str
    preset: str
    result: FlowResult | None = None
    queued_minutes: float = 0.0
    #: Flow attempts it took to produce ``result`` (1 = first try).
    attempts: int = 0
    #: Failures from attempts that were retried (or swallowed by a
    #: ``continue_on_error`` run); empty on a clean first pass.
    failures: list[FlowFailure] = field(default_factory=list)
    #: Simulated deadline the job was submitted against, if any.
    deadline_minute: float | None = None


def _default_cloud() -> CloudPlatform:
    return CloudPlatform(servers=8)


@dataclass
class EnablementHub:
    """The central platform object.

    ``retry_policy`` governs how many times :meth:`run_design` re-runs a
    failing flow and how long (in simulated minutes) it backs off between
    attempts; ``checkpoints`` is the hub-wide store those retries resume
    from, so a retry recomputes only the stage that failed.
    ``result_cache`` memoizes whole flow results across tenants and
    campaigns (keyed by :func:`~repro.campaign.cache.result_cache_key`).
    """

    name: str = "eu-design-hub"
    cloud: CloudPlatform = field(default_factory=_default_cloud)
    retry_policy: RetryPolicy = field(default_factory=ExponentialBackoff)
    checkpoints: Store = field(default_factory=MemoryStore)
    result_cache: Store = field(default_factory=MemoryStore)
    tracer: object = None
    metrics: MetricsRegistry | None = None
    _users: dict[str, Enrollment] = field(default_factory=dict)
    _shuttles: dict[str, ShuttleProgram] = field(default_factory=dict)
    jobs: list[HubJobRecord] = field(default_factory=list)
    #: Seats booked so far; numbers each booking's project name.
    _bookings: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if self.tracer is None:
            self.tracer = get_tracer()
        if self.metrics is None:
            self.metrics = get_metrics()

    # -- enrollment & access -------------------------------------------------

    def enroll(self, user: User, tier: AccessTier) -> Enrollment:
        enrollment = Enrollment(user=user, tier=tier)
        self._users[user.name] = enrollment
        return enrollment

    def _enrollment(self, user_name: str) -> Enrollment:
        if user_name not in self._users:
            raise HubError(f"user {user_name!r} is not enrolled")
        return self._users[user_name]

    def available_pdks(self, user_name: str) -> list[str]:
        """PDKs this user can actually use: tier policy + legal gates."""
        enrollment = self._enrollment(user_name)
        usable = []
        for name in list_pdks():
            if not tier_allows(enrollment.tier, name):
                # Advanced preset access checked separately at run time.
                if name not in policy_for(enrollment.tier).allowed_pdks:
                    continue
            if evaluate_access(enrollment.user, get_pdk(name)).granted:
                usable.append(name)
        return usable

    def request_access(self, user_name: str, pdk_name: str) -> AccessDecision:
        """Full decision trail for one user/PDK pair."""
        enrollment = self._enrollment(user_name)
        policy = policy_for(enrollment.tier)
        if pdk_name not in policy.allowed_pdks:
            return AccessDecision(
                granted=False,
                blockers=[
                    f"tier {enrollment.tier.value!r} does not include "
                    f"{pdk_name} (allowed: {list(policy.allowed_pdks)})"
                ],
            )
        return evaluate_access(enrollment.user, get_pdk(pdk_name))

    # -- flow execution -------------------------------------------------------

    def _admit(
        self,
        user_name: str,
        pdk_name: str,
        preset_name: str,
        options: FlowOptions | None,
        clock_period_ps: float = 5_000.0,
    ) -> tuple[Enrollment, str, FlowOptions]:
        """Tier check, then legal gate, for one flow request; returns the
        enrollment, the preset name and the options to run, with the
        hub's checkpoint store attached unless they bring their own."""
        enrollment = self._enrollment(user_name)
        if options is not None:
            preset_name = options.preset.name
        if not tier_allows(enrollment.tier, pdk_name, preset_name):
            raise HubError(
                f"tier {enrollment.tier.value!r} may not run "
                f"{preset_name!r} on {pdk_name!r}"
            )
        decision = evaluate_access(enrollment.user, get_pdk(pdk_name))
        if not decision.granted:
            raise HubError(
                f"access to {pdk_name} blocked: {decision.blockers}"
            )
        if options is None:
            options = FlowOptions(
                preset=preset_name, clock_period_ps=clock_period_ps
            )
        if options.checkpoints is None:
            options = options.replace(checkpoints=self.checkpoints)
        return enrollment, preset_name, options

    def run_design(
        self,
        user_name: str,
        module: Module,
        pdk_name: str,
        preset_name: str = "open",
        clock_period_ps: float = 5_000.0,
        submit_minute: float = 0.0,
        options: FlowOptions | None = None,
        deadline_minute: float | None = None,
    ) -> HubJobRecord:
        """Policy-check, queue and execute one flow job, with retries.

        ``options`` is the full :class:`~repro.core.options.FlowOptions`
        request; when omitted one is built from ``preset_name`` /
        ``clock_period_ps``.  The hub's checkpoint store is attached
        unless the request brings its own, so a retried attempt resumes
        from the last completed stage instead of starting over.

        A flow attempt that raises :class:`~repro.core.flow.FlowError`
        is retried under the hub's ``retry_policy`` (backoff budgeted in
        simulated minutes, pushing the cloud submission later); the
        attempt count and per-attempt failures land on the returned
        :class:`HubJobRecord`.  With ``deadline_minute`` and a
        deadline-aware policy, retries that cannot start before the
        deadline are abandoned.
        """
        enrollment, preset_name, options = self._admit(
            user_name, pdk_name, preset_name, options, clock_period_ps
        )
        record = HubJobRecord(
            user=user_name, design=module.name, pdk=pdk_name,
            preset=preset_name, deadline_minute=deadline_minute,
        )
        policy = self.retry_policy
        rng = random.Random(options.seed)
        minute = submit_minute
        attempt = 0
        while True:
            attempt += 1
            try:
                result = run_flow(
                    module, get_pdk(pdk_name), options,
                    tracer=self.tracer, metrics=self.metrics,
                )
            except FlowError as exc:
                record.failures.append(
                    FlowFailure("flow", str(exc), kind="crash")
                )
                self.metrics.counter("hub.flow_failures").inc()
                if policy.gives_up(attempt):
                    record.attempts = attempt
                    raise HubError(
                        f"flow failed after {attempt} attempt(s): {exc}"
                    ) from exc
                backoff = policy.backoff_min(attempt, rng)
                if (
                    policy.deadline_aware
                    and deadline_minute is not None
                    and minute + backoff > deadline_minute
                ):
                    record.attempts = attempt
                    raise HubError(
                        f"flow failed and the deadline (minute "
                        f"{deadline_minute:g}) leaves no room for a "
                        f"retry: {exc}"
                    ) from exc
                self.tracer.add_span(
                    "resil.retry", minute, minute + backoff,
                    design=module.name, attempt=attempt,
                    backoff_min=round(backoff, 3),
                )
                self.metrics.counter("hub.retries").inc()
                minute += backoff
            else:
                break
        record.attempts = attempt
        record.failures.extend(result.failures)
        record.queued_minutes = minute - submit_minute
        self.cloud.submit(
            user_name, _flow_minutes(result), minute,
            deadline_min=deadline_minute,
        )
        record.result = result
        self.metrics.counter("hub.jobs").inc()
        too_large = _die_area_error(enrollment.tier, result)
        if too_large is not None:
            raise HubError(too_large)
        self.jobs.append(record)
        return record

    def run_campaign(
        self,
        requests: list[CampaignRequest],
        workers: int = 0,
        seed: int = 1,
        scheduler=None,
        submit_minute: float = 0.0,
    ):
        """Policy-check, schedule and execute a multi-tenant campaign.

        This is :meth:`run_design` at classroom scale: every request is
        checked against its user's tier and the PDK's legal gates *up
        front* (one bad submission rejects the campaign before any
        compute is spent), then the batch runs through a
        :class:`~repro.campaign.engine.Campaign` — fair-share scheduled
        across users, executed serially or on a process pool, and
        memoized through the hub's cross-tenant ``result_cache`` so a
        design the hub has already built returns its cached
        :class:`~repro.core.flow.FlowResult`.

        Each executed job is billed to the hub's cloud simulator at its
        simulated dispatch minute (cache hits at a nominal service
        cost), one :class:`HubJobRecord` per request lands on
        ``self.jobs``, and the method returns ``(report, records)``.  A
        result whose die exceeds the user's tier limit fails its own
        record (the same check and message as :meth:`run_design`), the
        record carries no result, and the report counts it as failed.
        """
        from ..campaign.engine import Campaign

        if not requests:
            raise HubError("campaign has no requests")
        prepared = []
        for request in requests:
            enrollment, preset_name, options = self._admit(
                request.user, request.pdk, request.preset, request.options
            )
            prepared.append((request, options, preset_name, enrollment))

        campaign = Campaign(
            scheduler=scheduler,
            cache=self.result_cache,
            workers=workers,
            seed=seed,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        for request, options, _, _ in prepared:
            campaign.submit(
                request.user, request.module, request.pdk, options=options,
                priority=request.priority, deadline_min=request.deadline_min,
                est_minutes=request.est_minutes,
            )
        report = campaign.run()

        records = []
        refused = 0
        for (request, options, preset_name, enrollment), job in zip(
            prepared, campaign.queue.jobs()
        ):
            record = HubJobRecord(
                user=request.user, design=request.module.name,
                pdk=request.pdk, preset=preset_name,
                result=job.result, attempts=0 if job.cache_hit else 1,
                queued_minutes=job.sim_wait_min,
                deadline_minute=request.deadline_min,
            )
            if job.status == "failed":
                record.failures.append(
                    FlowFailure("flow", job.error or "campaign job failed",
                                kind="crash")
                )
                self.metrics.counter("hub.flow_failures").inc()
            else:
                # Hits are billed the nominal cache service cost, not a
                # flow run — memoization is the campaign's capacity story.
                minutes = (
                    campaign.cache_hit_minutes if job.cache_hit
                    else _flow_minutes(job.result)
                )
                self.cloud.submit(
                    request.user, max(minutes, 0.01),
                    submit_minute + job.sim_wait_min,
                    deadline_min=request.deadline_min,
                )
                self.metrics.counter("hub.jobs").inc()
                # The tier's die-area limit holds per record, cache hits
                # included: an oversized result fails its own record and
                # is not handed out, the rest of the campaign stands.
                too_large = _die_area_error(enrollment.tier, job.result)
                if too_large is not None:
                    record.failures.append(
                        FlowFailure("flow", too_large, kind="gate")
                    )
                    record.result = None
                    refused += 1
            records.append(record)
            self.jobs.append(record)
        report.completed -= refused
        report.failed += refused
        self.metrics.counter("hub.campaigns").inc()
        return report, records

    # -- shuttles ------------------------------------------------------------

    def shuttle(self, pdk_name: str, **kwargs) -> ShuttleProgram:
        if pdk_name not in self._shuttles:
            kwargs.setdefault("tracer", self.tracer)
            self._shuttles[pdk_name] = ShuttleProgram(get_pdk(pdk_name), **kwargs)
        return self._shuttles[pdk_name]

    def book_shuttle_seat(
        self, user_name: str, pdk_name: str, area_mm2: float,
        ready_day: int = 0,
    ) -> SeatQuote:
        enrollment = self._enrollment(user_name)
        decision = self.request_access(user_name, pdk_name)
        if not decision.granted:
            raise HubError(f"shuttle access blocked: {decision.blockers}")
        policy = policy_for(enrollment.tier)
        if area_mm2 > policy.max_die_area_mm2:
            raise HubError(
                f"seat area {area_mm2} mm2 exceeds tier limit "
                f"{policy.max_die_area_mm2} mm2"
            )
        project = ShuttleProject(
            name=f"{user_name}_{self._bookings}",
            owner=user_name,
            area_mm2=area_mm2,
            sponsored=policy.shuttle_subsidized,
        )
        self._bookings += 1
        return self.shuttle(pdk_name).submit(project, ready_day=ready_day)

    def request_tapeout(
        self,
        user_name: str,
        record: HubJobRecord,
        waivers: set[str] | None = None,
        ready_day: int = 0,
    ) -> SeatQuote:
        """Signoff-gated shuttle booking: the full tape-out path.

        Runs the signoff checklist on the job's flow result; only a
        READY design (all checks passing or explicitly waived) may book
        a seat — the process discipline that protects a semester's MPW
        budget from a stale or broken layout.
        """
        from .signoff import run_signoff

        if record.result is None:
            raise HubError("job has no flow result to sign off")
        enrollment = self._enrollment(user_name)
        policy = policy_for(enrollment.tier)
        signoff = run_signoff(
            record.result,
            max_die_area_mm2=policy.max_die_area_mm2,
            waivers=waivers,
        )
        if not signoff.ready_for_tapeout:
            raise HubError(f"signoff blocks tape-out: {signoff.summary()}")
        return self.book_shuttle_seat(
            user_name,
            record.pdk,
            area_mm2=max(0.05, record.result.physical.die_area_mm2),
            ready_day=ready_day,
        )

    # -- IP catalogue -----------------------------------------------------------

    def ip_catalogue(self) -> list[str]:
        return catalogue()

    def fetch_ip(self, name: str, **params) -> IpBlock:
        """IP is open (Recommendation 5): no tier or legal gate."""
        return generate(name, **params)
