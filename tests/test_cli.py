"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_pdks(self, capsys):
        assert main(["pdks"]) == 0
        out = capsys.readouterr().out
        for name in ("edu045", "edu130", "edu180"):
            assert name in out

    def test_cells(self, capsys):
        assert main(["cells", "edu130"]) == 0
        out = capsys.readouterr().out
        assert "NAND2_X1" in out
        assert "DFF_X4" in out

    def test_ips(self, capsys):
        assert main(["ips"]) == 0
        out = capsys.readouterr().out
        assert "tinycpu" in out
        assert "fifo" in out

    def test_liberty(self, capsys):
        assert main(["liberty", "edu180"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("library (edu180_stdcells)")

    def test_lef(self, capsys):
        assert main(["lef", "edu180"]) == 0
        out = capsys.readouterr().out
        assert "MACRO INV_X1" in out

    def test_flow_with_collaterals(self, capsys, tmp_path):
        code = main([
            "flow", "--ip", "counter", "--pdk", "edu130",
            "--verify-cycles", "50", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "OK" in out
        for suffix in (".v", ".rpt", ".def", ".gds"):
            assert (tmp_path / f"counter8{suffix}").exists()

    def test_flow_trace_round_trip(self, capsys, tmp_path):
        trace_path = tmp_path / "nested" / "trace.jsonl"
        code = main([
            "flow", "--ip", "counter", "--pdk", "edu130",
            "--verify-cycles", "50", "--trace", str(trace_path),
        ])
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        assert trace_path.exists()

        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "== timeline ==" in out
        assert "step.placement" in out
        assert "== by span (self/cumulative) ==" in out

    def test_trace_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_flow_unknown_ip(self, capsys):
        assert main(["flow", "--ip", "gpu"]) == 2
        assert "unknown IP" in capsys.readouterr().err

    def test_bad_pdk_rejected(self):
        with pytest.raises(SystemExit):
            main(["cells", "sky130"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_flow_from_verilog_file(self, capsys, tmp_path):
        source = tmp_path / "inv.v"
        source.write_text(
            "module inv4 (a, y);\n  input [3:0] a;\n  output [3:0] y;\n"
            "  assign y = ~a;\nendmodule\n"
        )
        assert main(["flow", "--verilog", str(source), "--pdk", "edu180"]) == 0
        out = capsys.readouterr().out
        assert "parsed inv4" in out
        assert "OK" in out

    def test_flow_requires_a_source(self, capsys):
        assert main(["flow"]) == 2
        assert "required" in capsys.readouterr().err


class TestLintCommand:
    """The exit-code contract: nonzero only for error-severity findings."""

    def test_demo_fails_with_rich_report(self, capsys):
        assert main(["lint", "--demo"]) == 1
        out = capsys.readouterr().out
        assert "rtl.comb-loop" in out
        assert "net.floating-input" in out

    def test_clean_ip_exits_zero_despite_warnings(self, capsys):
        # The mapped counter has genuine warnings (dangling INV cells,
        # high-fanout nets) — warnings alone must not fail the command.
        assert main(["lint", "--ip", "counter"]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "0 errors" in out

    def test_strict_promotes_warnings_to_errors(self, capsys, tmp_path):
        source = tmp_path / "spare.v"
        source.write_text(
            "module spare (a, unused, y);\n"
            "  input [3:0] a;\n  input [3:0] unused;\n  output [3:0] y;\n"
            "  assign y = ~a;\nendmodule\n"
        )
        # Non-strict: the unused input is only a warning.
        assert main(["lint", "--verilog", str(source)]) == 0
        capsys.readouterr()
        # Strict: the same finding is now an error.
        assert main(["lint", "--verilog", str(source), "--strict"]) == 1
        assert "rtl.unused-input" in capsys.readouterr().out

    def test_strict_failure_waived_back_to_zero(self, capsys, tmp_path):
        source = tmp_path / "spare.v"
        source.write_text(
            "module spare (a, unused, y);\n"
            "  input [3:0] a;\n  input [3:0] unused;\n  output [3:0] y;\n"
            "  assign y = ~a;\nendmodule\n"
        )
        code = main([
            "lint", "--verilog", str(source), "--strict",
            "--waive", "rtl.unused-input@unused",
            "--waive", "net.*",
        ])
        assert code == 0
        assert "waived" in capsys.readouterr().out

    def test_json_to_stdout_round_trips(self, capsys):
        from repro.lint import LintReport

        assert main(["lint", "--demo", "--json"]) == 1
        report = LintReport.from_json(capsys.readouterr().out)
        assert len(report.rule_ids()) >= 8
        assert not report.clean

    def test_json_to_file(self, capsys, tmp_path):
        from repro.lint import LintReport

        path = tmp_path / "out" / "lint.json"
        assert main(["lint", "--ip", "counter", "--json", str(path)]) == 0
        assert "lint report written" in capsys.readouterr().out
        report = LintReport.from_json(path.read_text())
        assert report.clean

    def test_waiver_file(self, capsys, tmp_path):
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("rtl.* # demo\nnet.* # demo\n")
        assert main(["lint", "--demo", "--waiver-file", str(waivers)]) == 0
        assert "waived" in capsys.readouterr().out

    def test_bad_waiver_spec_is_usage_error(self, capsys):
        assert main(["lint", "--demo", "--waive", "  "]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_waiver_file_is_usage_error(self, capsys, tmp_path):
        code = main(["lint", "--demo",
                     "--waiver-file", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_lint_requires_a_source(self, capsys):
        assert main(["lint"]) == 2
        assert "required" in capsys.readouterr().err

    def test_lint_unknown_ip(self, capsys):
        assert main(["lint", "--ip", "gpu"]) == 2
        assert "unknown IP" in capsys.readouterr().err

    def test_rtl_only_skips_netlist_rules(self, capsys):
        assert main(["lint", "--ip", "counter", "--rtl-only"]) == 0
        out = capsys.readouterr().out
        assert "net." not in out


class TestEditCommand:
    def test_edit_with_rtl_file(self, capsys, tmp_path):
        import json

        from repro.hdl import to_verilog
        from repro.ip import make_counter

        rtl = tmp_path / "counter8.v"
        rtl.write_text(to_verilog(make_counter(width=8, step=3).module))
        report = tmp_path / "edit.json"
        code = main([
            "edit", "--ip", "counter", "--module", "counter8",
            "--rtl", str(rtl), "--json", str(report),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "opened counter8 on edu130" in out
        assert "dirty=['counter8']" in out
        assert "lec: equivalent" in out
        # Wall-clock timings live in the JSON report, never on stdout.
        assert "ms" not in out
        payload = json.loads(report.read_text())
        assert payload["ok"]
        assert payload["fallback"] is None
        assert payload["edit_ms"] > 0

    def test_edit_requires_a_source(self, capsys):
        assert main(["edit", "--ip", "counter"]) == 2
        assert "required" in capsys.readouterr().err

    def test_edit_demo_conflicts_with_rtl(self, capsys, tmp_path):
        rtl = tmp_path / "x.v"
        rtl.write_text("module x(); endmodule")
        code = main(["edit", "--demo", "--module", "sevenseg",
                     "--rtl", str(rtl)])
        assert code == 2
        assert "replaces" in capsys.readouterr().err

    def test_edit_unknown_ip(self, capsys):
        assert main(["edit", "--ip", "gpu", "--demo"]) == 2
        assert "--demo edits the catalogue" in capsys.readouterr().err


#: A module whose line 5 holds a character outside the Verilog subset.
MALFORMED_VERILOG = (
    "module m (a, b, y);\n  input a;\n  input b;\n  output y;\n"
    "  assign y = a #& b;\nendmodule\n"
)


class TestVerilogInput:
    """A missing or malformed Verilog file is a usage error (exit 2)."""

    COMMANDS = (
        ["flow", "--verilog"],
        ["lint", "--verilog"],
        ["prove", "--verilog"],
        ["lvs", "--verilog"],
        ["edit", "--ip", "counter", "--module", "counter8", "--rtl"],
    )

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("case", ["missing", "malformed"])
    def test_one_error_line_and_exit_2(self, capsys, tmp_path, command,
                                       case):
        path = tmp_path / "design.v"
        if case == "malformed":
            path.write_text(MALFORMED_VERILOG)
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        expected = (
            "No such file or directory" if case == "missing"
            else "line 5: unexpected character '#'"
        )
        assert err == f"error: {path}: {expected}\n"
