"""MPW shuttle program: seat aggregation, pricing, turnaround.

Models the Europractice/TinyTapeout mechanics the paper discusses
(Sections I, III-C, Recommendation 6): periodic multi-project-wafer runs
share one mask set across many small projects; seat price follows the
occupied area; fab + packaging turnaround routinely exceeds a teaching
term.  Sponsorship (the Efabless Open MPW model) can zero the seat price
for qualifying academic projects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from ..obs.trace import get_tracer
from ..pdk.pdks import Pdk


@dataclass
class ShuttleProject:
    """One design occupying a seat on a shuttle run."""

    name: str
    owner: str
    area_mm2: float
    sponsored: bool = False
    run_index: int | None = None

    def __post_init__(self):
        if self.area_mm2 <= 0:
            raise ValueError("project area must be positive")


@dataclass
class ShuttleRun:
    """One MPW launch."""

    index: int
    launch_day: int
    capacity_mm2: float
    projects: list[ShuttleProject] = field(default_factory=list)

    @property
    def used_mm2(self) -> float:
        return sum(p.area_mm2 for p in self.projects)

    @property
    def fill_fraction(self) -> float:
        return self.used_mm2 / self.capacity_mm2

    def fits(self, project: ShuttleProject) -> bool:
        return self.used_mm2 + project.area_mm2 <= self.capacity_mm2


@dataclass
class SeatQuote:
    """Price and schedule for one project on one run."""

    project: str
    run_index: int
    launch_day: int
    chips_back_day: int
    seat_cost_eur: float
    sponsored: bool

    @property
    def turnaround_days(self) -> int:
        return self.chips_back_day


class ShuttleProgram:
    """A recurring MPW shuttle on one PDK."""

    def __init__(
        self,
        pdk: Pdk,
        runs_per_year: int = 4,
        capacity_mm2: float = 50.0,
        sponsorship_fund_eur: float = 0.0,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ):
        if runs_per_year < 1:
            raise ValueError("need at least one run per year")
        if capacity_mm2 <= 0:
            raise ValueError(
                f"shuttle capacity must be positive, got {capacity_mm2} mm2"
            )
        self.pdk = pdk
        self.runs_per_year = runs_per_year
        self.capacity_mm2 = capacity_mm2
        self.sponsorship_fund_eur = sponsorship_fund_eur
        self.tracer = tracer if tracer is not None else get_tracer()
        # Like CloudPlatform, the shuttle runs on its own simulated clock
        # (days); a private registry keeps its series from interleaving
        # with wall-clock process metrics (see DESIGN.md, DI convention).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.runs: list[ShuttleRun] = []
        self._extend_calendar(4)

    def _extend_calendar(self, count: int) -> None:
        interval = 365 // self.runs_per_year
        start = len(self.runs)
        for i in range(start, start + count):
            self.runs.append(
                ShuttleRun(index=i, launch_day=(i + 1) * interval,
                           capacity_mm2=self.capacity_mm2)
            )

    def seat_price_eur(self, area_mm2: float) -> float:
        """Academic seat price: per-mm2 price with a minimum of 1 mm2."""
        return self.pdk.terms.mpw_cost_per_mm2_eur * max(area_mm2, 1.0)

    def submit(
        self, project: ShuttleProject, ready_day: int = 0
    ) -> SeatQuote:
        """Book the earliest run launching on/after ``ready_day`` with room.

        Sponsored projects draw the seat price from the sponsorship fund
        while it lasts (the Efabless Open MPW mechanism).  A project
        larger than a whole run fits no run, however far the calendar
        extends, and is rejected with :class:`ValueError`.
        """
        if project.area_mm2 > self.capacity_mm2:
            raise ValueError(
                f"project {project.name!r} needs {project.area_mm2} mm2 but "
                f"a run holds only {self.capacity_mm2} mm2"
            )
        run = None
        while run is None:
            for candidate in self.runs:
                if candidate.launch_day >= ready_day and candidate.fits(project):
                    run = candidate
                    break
            if run is None:
                self._extend_calendar(4)
        project.run_index = run.index
        run.projects.append(project)

        price = self.seat_price_eur(project.area_mm2)
        sponsored = False
        if project.sponsored and self.sponsorship_fund_eur >= price:
            self.sponsorship_fund_eur -= price
            sponsored = True
            price = 0.0
        chips_back = run.launch_day + self.pdk.terms.total_turnaround_days
        # One span per booked seat, on the simulated day clock: wait for
        # the launch, then fab + packaging turnaround.
        self.tracer.add_span(
            "shuttle.seat", float(ready_day), float(chips_back),
            project=project.name, run_index=run.index,
            launch_day=run.launch_day, sponsored=sponsored,
            area_mm2=project.area_mm2,
        )
        self.metrics.counter("shuttle.seats").inc()
        if sponsored:
            self.metrics.counter("shuttle.sponsored_seats").inc()
        self.metrics.gauge("shuttle.fund_eur").set(self.sponsorship_fund_eur)
        self.metrics.histogram(
            "shuttle.turnaround_days", buckets=(90, 120, 180, 270, 365, 540)
        ).observe(chips_back - ready_day)
        return SeatQuote(
            project=project.name,
            run_index=run.index,
            launch_day=run.launch_day,
            chips_back_day=chips_back,
            seat_cost_eur=round(price, 2),
            sponsored=sponsored,
        )

    def full_run_cost_eur(self) -> float:
        """What a dedicated (non-shared) run would cost: the mask set."""
        return self.pdk.terms.mask_set_cost_eur

    def sharing_factor(self, area_mm2: float) -> float:
        """Cost advantage of the shared run over a dedicated mask set."""
        return self.full_run_cost_eur() / self.seat_price_eur(area_mm2)

    def meets_deadline(self, quote: SeatQuote, deadline_day: int) -> bool:
        """Do packaged chips arrive before e.g. the end of a course?"""
        return quote.chips_back_day <= deadline_day
