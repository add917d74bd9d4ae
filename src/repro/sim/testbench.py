"""Reusable testbench harness.

A :class:`Testbench` packages a design with stimulus and golden-model
checking — the verification collateral the paper's Recommendation 5 calls
out as a prerequisite for high-quality open-source IP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..hdl.ir import Module
from .engine import Simulator


@dataclass
class TestbenchResult:
    """Outcome of a testbench run."""

    passed: bool
    cycles: int
    mismatches: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = "" if self.passed else f" ({len(self.mismatches)} mismatches)"
        return f"{status}: {self.cycles} cycles{detail}"


@dataclass
class Testbench:
    """Drives random or directed stimulus against a golden model.

    ``model`` receives the input dict for the current cycle plus a mutable
    ``state`` dict (for sequential golden models) and returns the expected
    output dict for the same cycle, sampled before the clock edge.
    """

    module: Module
    model: Callable[[dict[str, int], dict], dict[str, int]]
    seed: int = 0

    __test__ = False  # not a pytest test class despite the name

    def run_random(self, cycles: int = 200) -> TestbenchResult:
        """Apply uniformly random inputs for ``cycles`` clock cycles."""
        rng = random.Random(self.seed)
        sim = Simulator(self.module)
        vectors = []
        for _ in range(cycles):
            vectors.append(
                {sig.name: rng.randrange(1 << sig.width) for sig in sim.module.inputs}
            )
        return self.run_directed(vectors)

    def run_directed(self, vectors: list[dict[str, int]]) -> TestbenchResult:
        """Apply the given input vectors, one per cycle."""
        sim = Simulator(self.module)
        state: dict = {}
        mismatches: list[str] = []
        for cycle, vector in enumerate(vectors):
            sim.set_many(vector)
            expected = self.model(dict(vector), state)
            for name, want in expected.items():
                got = sim.get(name)
                if got != want:
                    mismatches.append(
                        f"cycle {cycle}: {name}: expected {want}, got {got}"
                    )
            sim.step()
        return TestbenchResult(
            passed=not mismatches, cycles=len(vectors), mismatches=mismatches
        )
