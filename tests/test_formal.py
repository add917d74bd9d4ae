"""Tests for repro.formal: AIG, CNF, CDCL SAT, LEC and property proving."""

import itertools
import json
import random

import pytest

from repro.cli import main
from repro.core.flow import FlowError, run_flow
from repro.core.options import FlowOptions
from repro.core.signoff import run_signoff
from repro.formal import (
    Aig,
    CdclSolver,
    LecError,
    check_lec,
    from_gate_netlist,
    from_module,
    lec_flow,
    mutate_netlist,
    prove_facts,
    refine_lint_report,
    replay_counterexamples,
    solve_cnf,
    tseitin,
)
from repro.formal.aig import FALSE, TRUE, word_value
from repro.hdl import ModuleBuilder, mux
from repro.hdl.ir import BinOp, Const, Module, Mux, Ref, UnaryOp
from repro.ip import catalogue, generate
from repro.lint import lint_module
from repro.pdk.pdks import get_pdk
from repro.synth import lower, synthesize
from repro.synth.verify import check_equivalence, replay_mismatches


@pytest.fixture(scope="module")
def lib():
    return get_pdk("edu130").library


def build_counter(width: int = 4) -> Module:
    b = ModuleBuilder(f"cnt{width}")
    en = b.input("en", 1)
    count = b.register("count", width)
    count.next = mux(en, (count + 1).trunc(width), count)
    b.output("value", count)
    return b.build()


# -- AIG ---------------------------------------------------------------------


class TestAig:
    def test_structural_hashing_dedups(self):
        g = Aig()
        a = g.input_bit("a")
        b = g.input_bit("b")
        assert g.AND(a, b) == g.AND(a, b)
        assert g.AND(a, b) == g.AND(b, a)

    def test_constant_folding(self):
        g = Aig()
        a = g.input_bit("a")
        assert g.AND(a, TRUE) == a
        assert g.AND(a, FALSE) == FALSE
        assert g.AND(a, a) == a
        assert g.AND(a, g.NOT(a)) == FALSE
        assert g.XOR(a, a) == FALSE
        assert g.XOR(a, FALSE) == a

    def test_eval_matches_semantics(self):
        g = Aig()
        a = g.input_bit("a")
        b = g.input_bit("b")
        lits = [g.AND(a, b), g.OR(a, b), g.XOR(a, b), g.MUX(a, b, TRUE)]
        for va, vb in itertools.product((0, 1), repeat=2):
            got = g.eval_lits({"a": va, "b": vb}, lits)
            assert got == [va & vb, va | vb, va ^ vb, vb if va else 1]


def random_aig(seed: int, n_inputs: int = 6, n_nodes: int = 40):
    """A random AIG plus a reference evaluator over its input labels."""
    rng = random.Random(seed)
    g = Aig()
    pool = [g.input_bit(f"i{k}") for k in range(n_inputs)]
    for _ in range(n_nodes):
        a, b = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.5:
            a = g.NOT(a)
        if rng.random() < 0.5:
            b = g.NOT(b)
        pool.append(g.AND(a, b))
    root = pool[-1]
    return g, root


class TestSatVsTruthTable:
    """Property-based check: SAT verdicts agree with brute-force."""

    @pytest.mark.parametrize("seed", range(12))
    def test_miter_of_identical_logic_is_unsat(self, seed):
        g, root = random_aig(seed)
        # XOR(root, root) folds to FALSE structurally; rebuild the same
        # function from scratch instead so the solver has work to do.
        g2, root2 = random_aig(seed)
        cnf = tseitin(g, [root])
        result = solve_cnf(cnf, [(-cnf.lit(root),)])
        # Brute force: is there an assignment making root false?
        labels = [f"i{k}" for k in range(6)]
        expect = any(
            g.eval_lits(dict(zip(labels, bits)), [root]) == [0]
            for bits in itertools.product((0, 1), repeat=6)
        )
        assert result.is_sat == expect
        assert g2.stats() == g.stats()
        assert root2 == root  # same seed, same structure, same hash

    @pytest.mark.parametrize("seed", range(8))
    def test_satisfiability_matches_enumeration(self, seed):
        n = 5 + (seed % 6)  # up to 10 inputs
        g, root = random_aig(seed + 100, n_inputs=n, n_nodes=30 + 4 * n)
        labels = [f"i{k}" for k in range(n)]
        truth = [
            g.eval_lits(dict(zip(labels, bits)), [root])[0]
            for bits in itertools.product((0, 1), repeat=n)
        ]
        cnf = tseitin(g, [root])
        for value in (1, 0):
            unit = (cnf.lit(root),) if value else (-cnf.lit(root),)
            result = solve_cnf(cnf, [unit])
            assert result.is_sat == (value in truth)
            if result.is_sat:
                # The model must actually witness root == value.
                assignment = {
                    label: result.model.get(
                        cnf.var_of_node.get(g.input_bit(label) >> 1, 0), False
                    )
                    for label in labels
                }
                witnessed = g.eval_lits(
                    {k: int(v) for k, v in assignment.items()}, [root]
                )[0]
                assert witnessed == value


class TestSolverSanity:
    def test_empty_formula_is_sat(self):
        assert CdclSolver([], 3).solve().is_sat

    def test_empty_clause_is_unsat(self):
        assert CdclSolver([()], 1).solve().is_unsat

    def test_unit_clauses_propagate(self):
        result = CdclSolver([(1,), (-1, 2), (-2, 3)], 3).solve()
        assert result.is_sat
        assert result.model[1] and result.model[2] and result.model[3]

    def test_contradictory_units_unsat(self):
        assert CdclSolver([(1,), (-1,)], 1).solve().is_unsat

    def test_pure_literal_formula(self):
        # 2 appears only positively; any solution must be found anyway.
        result = CdclSolver([(1, 2), (-1, 2)], 2).solve()
        assert result.is_sat
        assert result.model[2]

    def test_small_pigeonhole_unsat(self):
        # 3 pigeons, 2 holes: vars p*2+h+1 means pigeon p in hole h.
        clauses = []
        for p in range(3):
            clauses.append((p * 2 + 1, p * 2 + 2))
        for h in (1, 2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    clauses.append((-(p1 * 2 + h), -(p2 * 2 + h)))
        assert CdclSolver(clauses, 6).solve().is_unsat

    def test_conflict_budget_yields_unknown(self):
        # A hard-enough pigeonhole with a 1-conflict budget must give up.
        n = 5
        clauses = []
        for p in range(n + 1):
            clauses.append(tuple(p * n + h + 1 for h in range(n)))
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    clauses.append((-(p1 * n + h + 1), -(p2 * n + h + 1)))
        result = CdclSolver(clauses, (n + 1) * n).solve(max_conflicts=1)
        assert result.status == "unknown"
        assert not result.is_sat and not result.is_unsat


# -- cone construction -------------------------------------------------------


class TestCones:
    def test_module_and_netlist_agree(self):
        module = build_counter()
        cones = from_module(module)
        netlist_cones = from_gate_netlist(lower(module), cones.aig)
        assert set(cones.outputs) == set(netlist_cones.outputs)
        assert set(cones.next_state) == set(netlist_cones.next_state)
        # Shared AIG + structural hashing: honest lowering collapses the
        # cones onto the very same nodes.
        for name, lits in cones.outputs.items():
            assert lits == netlist_cones.outputs[name]

    def test_word_value_roundtrip(self):
        module = build_counter()
        cones = from_module(module)
        value = word_value(
            cones.aig,
            {"en[0]": 1, "count[0]": 1, "count[2]": 1},  # en=1, count=5
            cones.next_state["count"],
        )
        assert value == 6


# -- LEC ---------------------------------------------------------------------


class TestLec:
    def test_catalogue_proves_clean(self, lib):
        for name in catalogue():
            module = generate(name).module
            synth = synthesize(module, lib)
            report = lec_flow(module, synth)
            assert report.passed, f"{name}: {report.summary()}"
            for check in report.checks.values():
                assert check.equivalent
                assert not check.counterexamples

    def test_correspondence_error_on_port_mismatch(self, lib):
        module = build_counter()
        other = synthesize(build_counter(5), lib).mapped
        with pytest.raises(LecError):
            check_lec(module, other)

    def test_mutation_must_fail_and_replay(self, lib):
        """The classic LEC self-test, end to end."""
        module = build_counter()
        synth = synthesize(module, lib)
        found = 0
        for seed in range(12):
            mutant, description = mutate_netlist(synth.mapped, seed=seed)
            result = check_lec(module, mutant)
            if result.equivalent:
                continue  # benign rewire (redundant logic)
            found += 1
            replays = replay_counterexamples(
                module, mutant, result.counterexamples
            )
            for cex, mismatch in zip(result.counterexamples, replays):
                assert mismatch is not None, (
                    f"{description}: formal counterexample does not "
                    f"reproduce in simulation: {cex}"
                )
        assert found, "no mutation seed produced a detectable fault"

    def test_mutated_gate_netlist_fails(self, lib):
        module = build_counter()
        synth = synthesize(module, lib)
        found = False
        for seed in range(12):
            mutant, _ = mutate_netlist(synth.netlist, seed=seed)
            result = check_lec(module, mutant)
            if not result.equivalent:
                found = True
                assert result.counterexamples
                break
        assert found

    def test_report_json_roundtrip(self, lib):
        module = build_counter()
        synth = synthesize(module, lib)
        report = lec_flow(module, synth)
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert set(data["checks"]) == {
            "post_synthesis", "post_opt", "post_mapping"
        }


# -- verify.py: recorded mismatches + replay ---------------------------------


class TestEquivalenceMismatches:
    def test_mismatch_records_stimulus_and_state(self, lib):
        module = build_counter()
        synth = synthesize(module, lib)
        mutant, _ = mutate_netlist(synth.mapped, seed=0)
        result = check_equivalence(module, mutant, cycles=64, seed=11)
        assert not result.passed
        assert result.seed == 11
        first = result.mismatches[0]
        assert set(first.inputs) == {"en"}
        assert "count" in first.state
        # The recorded vector replays to the same disagreement.
        replayed, = replay_mismatches(module, mutant, [first])
        assert replayed is not None
        assert replayed.output == first.output
        assert replayed.expect == first.expect

    def test_result_json_roundtrip(self, lib):
        module = build_counter()
        synth = synthesize(module, lib)
        mutant, _ = mutate_netlist(synth.mapped, seed=0)
        result = check_equivalence(module, mutant, cycles=32, seed=3)
        from repro.synth.verify import EquivalenceResult

        back = EquivalenceResult.from_json(result.to_json())
        assert back.passed == result.passed
        assert back.seed == result.seed
        assert [str(m) for m in back.mismatches] == [
            str(m) for m in result.mismatches
        ]

    def test_seed_changes_stimulus(self, lib):
        module = build_counter()
        mapped = synthesize(module, lib).mapped
        assert check_equivalence(module, mapped, cycles=16, seed=1).passed
        assert check_equivalence(module, mapped, cycles=16, seed=2).passed


# -- property proving + lint refinement --------------------------------------


def build_prop_module() -> Module:
    m = Module("propdemo")
    a = m.add_input("a", 4)
    y = m.add_output("y", 4)
    z = m.add_output("z", 4)
    w = m.add_output("w", 4)
    # Syntactic constant select: lint flags it, SAT should prove it.
    m.assign(y, Mux(Const(1, 1), Ref(a), Const(0, 4)))
    # Semantic constant select (a & ~a != 0): invisible to lint.
    dead = BinOp("and", Ref(a), UnaryOp("not", Ref(a)))
    m.assign(z, Mux(BinOp("ne", dead, Const(0, 4)), Const(5, 4), Ref(a)))
    # Semantically constant net: a ^ a == 0.
    m.assign(w, BinOp("xor", Ref(a), Ref(a)))
    m.validate()
    return m


class TestProps:
    def test_prove_facts_verdicts(self):
        facts = {
            (f.kind, f.location): f for f in prove_facts(build_prop_module())
        }
        assert facts[("const-net", "w")].proved
        assert facts[("const-net", "w")].value == 0
        assert not facts[("const-net", "y")].proved
        assert facts[("mux-select-const", "y")].proved
        assert facts[("mux-select-const", "y")].value == 1
        assert facts[("mux-select-const", "z")].proved
        assert facts[("mux-select-const", "z")].value == 0

    def test_refinement_promotes_proved_findings(self):
        module = build_prop_module()
        report = lint_module(module)
        before = {f.location: f.severity for f in report.findings
                  if f.rule == "rtl.dead-mux-arm"}
        assert before == {"y": "warning"}
        refined = refine_lint_report(report, prove_facts(module))
        after = {f.location: f for f in refined.findings
                 if f.rule == "rtl.dead-mux-arm"}
        assert after["y"].severity == "error"
        assert "SAT-proved" in after["y"].message

    def test_refinement_drops_refuted_findings(self):
        # A toggling mux select that lint would flag if it were Const;
        # fake the finding and check the refuted fact drops it.
        from repro.lint.core import Finding, LintReport

        module = build_prop_module()
        facts = prove_facts(module)
        report = LintReport(findings=[
            Finding("rtl.const-expr", "info", module.name, "y", "suspect"),
            Finding("rtl.undriven", "error", module.name, "q", "unrelated"),
        ])
        refined = refine_lint_report(report, facts)
        rules = [f.rule for f in refined.findings]
        assert "rtl.const-expr" not in rules  # y toggles: refuted, dropped
        assert "rtl.undriven" in rules  # no formal opinion: untouched


# -- flow + signoff + CLI integration ----------------------------------------


class TestFlowIntegration:
    def test_flow_records_lec_report(self):
        module = build_counter()
        result = run_flow(
            module, get_pdk("edu130"), FlowOptions(formal_lec=True, seed=5)
        )
        assert result.ok
        assert result.lec is not None and result.lec.passed
        assert result.lec.design == module.name

    def test_flow_without_knob_skips_lec(self):
        result = run_flow(build_counter(), get_pdk("edu130"), FlowOptions())
        assert result.lec is None

    def test_signoff_gains_lec_item(self):
        result = run_flow(
            build_counter(), get_pdk("edu130"), FlowOptions(formal_lec=True)
        )
        report = run_signoff(result)
        item = next(i for i in report.items if i.name == "lec_clean")
        assert item.passed and item.waivable
        assert "PROVED" in item.detail

    def test_flow_fails_on_lec_counterexample(self, monkeypatch):
        import repro.core.flow as flow_mod
        from repro.formal.lec import LecReport

        class FailingReport:
            passed = False

            def summary(self):
                return "lec FAILED for cnt4: post_opt=counterexample"

        monkeypatch.setattr(
            flow_mod, "lec_flow", lambda *a, **k: FailingReport()
        )
        with pytest.raises(FlowError, match="LEC failed"):
            run_flow(
                build_counter(), get_pdk("edu130"),
                FlowOptions(formal_lec=True),
            )


class TestProveCli:
    def test_prove_clean_ip(self, capsys):
        assert main(["prove", "--ip", "counter"]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out

    def test_prove_json_report(self, capsys, tmp_path):
        path = tmp_path / "lec.json"
        assert main(["prove", "--ip", "alu", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["passed"] is True

    def test_prove_json_stdout(self, capsys):
        assert main(["prove", "--ip", "counter", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["design"] == "counter8"

    def test_prove_unknown_ip_usage_error(self, capsys):
        assert main(["prove", "--ip", "nope"]) == 2

    def test_prove_missing_target_usage_error(self, capsys):
        assert main(["prove"]) == 2

    def test_lint_formal_flag(self, capsys):
        assert main(["lint", "--ip", "counter", "--formal"]) == 0
