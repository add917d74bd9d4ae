"""Seeded job lists for the four workloads, and the per-job outcome.

Every generator is a pure function of ``(seed, seconds)``: it returns
plain data and imports nothing from ``repro``, so the program under test
receives only the generated inputs.  ``class_signoff`` and
``verify_sim`` submit the same jobs on every seed, in a seeded order (for
the cohort, the seed also places the follow-ups); ``cpu_closure`` and
``soc_edit`` size their lists from ``seconds`` through the per-job costs
below.  A list is never time-boxed, so a seed always names the same jobs
and the quality-of-results sums repeat exactly.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field

#: Natural parameter ranges of the small catalogue designs (everything
#: but ``tinycpu`` and ``soc``).
FIR_TAPS = ((1, 1, 1), (1, 2, 1), (1, 2, 2, 1), (2, 1, 1, 2), (1, 3, 3, 1),
            (1, 2, 3, 2, 1))
NATURAL_RANGES: dict[str, list[dict]] = {
    "counter": [{"width": w, "step": s} for w in range(4, 17) for s in (1, 2, 3)],
    "shift_register": [{"width": w, "depth": d}
                       for w in range(2, 11) for d in range(2, 6)],
    "gray_counter": [{"width": w} for w in range(2, 17)],
    "lfsr": [{"width": w} for w in (4, 8, 16)],
    "priority_encoder": [{"width": w} for w in range(2, 17)],
    "seven_seg": [{}],
    "alu": [{"width": w} for w in range(2, 13)],
    "pwm": [{"width": w} for w in range(2, 13)],
    "multiplier": [{"width": w} for w in range(2, 9)],
    "fifo": [{"width": w, "depth": d} for w in range(2, 11) for d in (2, 4, 8)],
    "fir": [{"taps": t, "width": w} for t in FIR_TAPS for w in (4, 6, 8, 10)],
    "uart_tx": [{"divisor": d} for d in range(2, 13)],
}

#: class_signoff submits lab-sized parameters: every other width of the
#: natural ranges, without the widest FIFOs and multipliers (one of them
#: costs as much as twenty other jobs).  Every seed submits the whole
#: grid and the same follow-ups; the seed orders the cohort and places
#: each follow-up.
#: ``gray_counter`` keeps its whole range: widths 7, 9 and 15 hit a known
#: FabricError on edu180, and every cohort keeps those jobs so the defect
#: stays visible.
SMALL_GRID: dict[str, list[dict]] = {
    "counter": [{"width": w, "step": s}
                for w in (4, 6, 8, 10, 12, 16) for s in (1, 2, 3)],
    "shift_register": [{"width": w, "depth": d}
                       for w in (2, 4, 6, 8) for d in (2, 3, 4)],
    "gray_counter": NATURAL_RANGES["gray_counter"],
    "lfsr": NATURAL_RANGES["lfsr"],
    "priority_encoder": [{"width": w} for w in range(2, 17, 2)],
    "seven_seg": [{}],
    "alu": [{"width": w} for w in range(2, 13, 2)],
    "pwm": [{"width": w} for w in range(2, 13, 2)],
    "multiplier": [{"width": w} for w in range(2, 7)],
    "fifo": [{"width": w, "depth": d} for w in (2, 4, 6, 8) for d in (2, 4)],
    "fir": [{"taps": t, "width": w} for t in FIR_TAPS for w in (4, 8)],
    "uart_tx": [{"divisor": d} for d in range(2, 13, 2)],
}

#: verify_sim draws from the natural ranges plus tinycpu.  ``soc`` is
#: left out for run length (its fault simulation alone takes seconds) and
#: ``shift_register`` because a pure flop chain has no combinational cell
#: for ``mutate_netlist`` to rewire.
VERIFY_GRID: dict[str, list[dict]] = {
    **{d: g for d, g in NATURAL_RANGES.items() if d != "shift_register"},
    "tinycpu": [{}],
}

#: soc_edit variants per editable soc module; index 0 is the catalogue
#: soc's own.  Every variant keeps the module's name and port widths:
#: counter steps, and FIR taps with an unchanged tap sum (the output
#: width depends on it).  The sevenseg re-encode's revert is variant 0.
SOC_VARIANTS: dict[str, tuple] = {
    "sevenseg": ("catalogue", "recoded"),
    "counter8": (1, 2, 3, 5),
    "fir4": ((1, 2, 2, 1), (2, 1, 1, 2), (1, 1, 3, 1), (3, 1, 1, 1)),
    "fir5": ((1, 2, 3, 2, 1), (2, 2, 1, 2, 2), (1, 1, 5, 1, 1),
             (3, 1, 1, 1, 3)),
}

DEFAULT_CLOCK_PS = 5_000.0
#: class_signoff follow-ups: exact resubmissions (result-cache reads) and
#: resubmissions at a tighter clock (checkpoint resume + fresh signoff).
RESUBMIT_SHARE = 0.2
RECLOCK_SHARE = 0.1
RECLOCK_PS = 4_000.0

#: Job-list sizing only: one job's cost, rounded down so that a 25 s run
#: holds eight tinycpu flows and one round of soc edits.
CPU_JOB_S = 3.0
EDIT_S = 2.2


@dataclass(frozen=True)
class Job:
    """One submission.  ``params`` are sorted (name, value) pairs."""

    design: str
    params: tuple = ()
    kind: str = "fresh"
    clock_period_ps: float = DEFAULT_CLOCK_PS
    seed: int = 1
    user: str = ""

    @property
    def label(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.design}({args})"


@dataclass
class Outcome:
    """What one job produced; ``qor`` holds the numbers summed per run."""

    job: Job
    index: int
    status: str = "ok"  # ok | error | wrong
    error_type: str | None = None
    message: str = ""
    #: A failure that is the documented defect, which a run tolerates.
    known_defect: bool = False
    traceback: str = ""
    qor: dict[str, float] = field(default_factory=dict)
    #: Whatever the post-phase output check needs (dropped afterwards).
    keep: object = None

    def fail(self, status: str, error_type: str | None, message: str):
        self.status, self.error_type, self.message = status, error_type, message
        self.keep = None

    def crashed(self, exc: Exception) -> None:
        """Fail with a raised exception, keeping its traceback."""
        self.fail("error", type(exc).__name__, str(exc))
        self.traceback = "".join(traceback.format_exception(exc))


def _params(values: dict) -> tuple:
    return tuple(sorted(values.items()))


def _size(values: dict) -> int:
    size = 1
    for value in values.values():
        size *= sum(value) * len(value) if isinstance(value, tuple) else value
    return size


def evenly(count: int, total: int) -> list[int]:
    """``count`` indexes spread evenly over ``range(total)``: the middle of
    each of ``count`` equal strata."""
    return [int((k + 0.5) * total / count) for k in range(count)]


def _grid_jobs(grid: dict[str, list[dict]]) -> list[Job]:
    """Every point of ``grid``, by design and then by size."""
    return [Job(design, _params(p)) for design, points in grid.items()
            for p in sorted(points, key=lambda p: (_size(p), repr(p)))]


def class_signoff_jobs(seed: int, seconds: float) -> list[Job]:
    """A lab cohort: one fresh submission per student, plus follow-ups.

    Each follow-up comes after its original, by the same student: about
    20% of all jobs resubmit an earlier design unchanged, about 10%
    resubmit one at a tighter clock.  Originals are spread evenly over the
    design-sorted submissions, so follow-ups mirror the cohort's mix, and
    are the same on every seed: a run's median job then differs from
    another seed's by the host's noise, not by which designs were
    resubmitted.  Fresh submissions are pairwise distinct: every cache
    hit is intended.
    """
    rng = random.Random(f"class_signoff/{seed}")
    fresh = _grid_jobs(SMALL_GRID)
    total = round(len(fresh) / (1 - RESUBMIT_SHARE - RECLOCK_SHARE))
    n_resubmit = round(total * RESUBMIT_SHARE)
    n_reclock = round(total * RECLOCK_SHARE)
    sources = {
        "resubmit": evenly(n_resubmit, len(fresh)),
        "reclock": evenly(n_reclock, len(fresh)),
    }
    order = list(range(len(fresh)))
    rng.shuffle(order)
    position = {source: slot for slot, source in enumerate(order)}
    fresh = [Job(fresh[i].design, fresh[i].params, user=f"student{slot:03d}")
             for slot, i in enumerate(order)]
    after: dict[int, list[Job]] = {}
    for kind, picks in sources.items():
        for source in (position[i] for i in picks):
            original = fresh[source]
            clock = RECLOCK_PS if kind == "reclock" else DEFAULT_CLOCK_PS
            follow = Job(original.design, original.params, kind, clock,
                         user=original.user)
            slot = rng.randrange(source, len(fresh))
            after.setdefault(slot, []).append(follow)
    jobs = []
    for index, job in enumerate(fresh):
        jobs.append(job)
        extra = after.get(index, [])
        rng.shuffle(extra)
        jobs.extend(extra)
    return jobs


def cpu_closure_jobs(seed: int, seconds: float) -> list[Job]:
    """A seed sweep over one design: distinct flow seeds for tinycpu."""
    rng = random.Random(f"cpu_closure/{seed}")
    count = max(3, round(seconds / CPU_JOB_S))
    return [Job("tinycpu", kind="sweep", seed=s)
            for s in rng.sample(range(1, 1_000_000), count)]


def soc_edit_jobs(seed: int, seconds: float) -> list[Job]:
    """A chain of one-module soc edits, each changing that module's logic.

    The chain comes in rounds; a round edits every editable module once,
    in a seeded order, and reverts each edit right after it, so every
    edit starts from the catalogue soc and costs the same whatever came
    before.  Round ``r`` uses each module's ``r``-th variant (cycling).
    """
    rng = random.Random(f"soc_edit/{seed}")
    rounds = max(1, round(seconds / (EDIT_S * 2 * len(SOC_VARIANTS))))
    jobs = []
    for round_index in range(rounds):
        order = sorted(SOC_VARIANTS)
        rng.shuffle(order)
        for module in order:
            variant = 1 + round_index % (len(SOC_VARIANTS[module]) - 1)
            for value in (variant, 0):
                jobs.append(Job(module, (("variant", value),), "edit"))
    return jobs


def verify_sim_jobs(seed: int, seconds: float) -> list[Job]:
    """The whole verification grid in a seeded order; ``seed`` of each
    job is the first mutation seed tried."""
    rng = random.Random(f"verify_sim/{seed}")
    suite = _grid_jobs(VERIFY_GRID)
    rng.shuffle(suite)
    return [Job(j.design, j.params, "verify", seed=rng.randrange(1 << 16))
            for j in suite]


GENERATORS = {
    "class_signoff": class_signoff_jobs,
    "cpu_closure": cpu_closure_jobs,
    "soc_edit": soc_edit_jobs,
    "verify_sim": verify_sim_jobs,
}
