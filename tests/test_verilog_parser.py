"""Tests for the Verilog reader: round trips with the emitter."""

import pytest

from repro.hdl import ModuleBuilder, cat, mux, to_verilog
from repro.hdl.verilog_parser import VerilogParseError, parse_verilog
from repro.sim import Simulator
from repro.synth import check_equivalence, lower


def roundtrip(module):
    return parse_verilog(to_verilog(module))


def assert_equivalent(original, parsed, cycles=60):
    # Compare the original RTL against the netlist of the parsed module.
    result = check_equivalence(original, lower(parsed), cycles=cycles)
    assert result.passed, result.mismatches[:3]


class TestRoundTrip:
    def test_combinational_design(self):
        b = ModuleBuilder("comb")
        a = b.input("a", 8)
        c = b.input("c", 8)
        b.output("y", (a + c) ^ (a & c))
        b.output("z", a.lt(c))
        module = b.build()
        parsed = roundtrip(module)
        assert parsed.name == "comb"
        assert_equivalent(module, parsed)

    def test_sequential_design_with_reset(self):
        b = ModuleBuilder("counter")
        en = b.input("en", 1)
        count = b.register("count", 8, reset=7)
        count.next = mux(en, count + 1, count)
        b.output("q", count)
        module = b.build()
        parsed = roundtrip(module)
        assert len(parsed.registers) == 1
        assert parsed.registers[0].reset_value == 7
        assert_equivalent(module, parsed, cycles=100)

    def test_mux_cat_slice(self):
        b = ModuleBuilder("m")
        a = b.input("a", 8)
        s = b.input("s", 1)
        b.output("y", mux(s, cat(a[3:0], a[7:4]), a))
        module = b.build()
        assert_equivalent(module, roundtrip(module))

    def test_shifts_and_reductions(self):
        b = ModuleBuilder("m")
        a = b.input("a", 8)
        b.output("y", (a << 2) | (a >> 3))
        b.output("r", a.reduce_xor() & a.reduce_or())
        module = b.build()
        assert_equivalent(module, roundtrip(module))

    def test_hierarchy(self):
        leaf_b = ModuleBuilder("leafmod")
        a = leaf_b.input("a", 4)
        leaf_b.output("y", ~a)
        leaf = leaf_b.build()
        b = ModuleBuilder("topmod")
        x = b.input("x", 4)
        out = b.instance("u0", leaf, a=x)
        b.output("y", out["y"])
        module = b.build()
        parsed = roundtrip(module)
        assert parsed.instances[0].module.name == "leafmod"
        assert_equivalent(module, parsed)

    def test_ip_catalogue_roundtrips(self):
        from repro.ip import generate

        for name in ("counter", "alu", "gray_counter", "pwm"):
            ip = generate(name)
            parsed = parse_verilog(ip.rtl())
            assert_equivalent(ip.module, parsed, cycles=80)


class TestHandwritten:
    def test_simple_handwritten_module(self):
        source = """
        // a hand-written adder with precedence (no parens)
        module adder (clk, rst, a, b, q);
          input clk;
          input rst;
          input [3:0] a;
          input [3:0] b;
          output [4:0] q;
          reg [4:0] acc;
          assign q = acc;
          always @(posedge clk) begin
            if (rst) begin
              acc <= 5'd0;
            end else begin
              acc <= a + b;
            end
          end
        endmodule
        """
        module = parse_verilog(source)
        sim = Simulator(module)
        sim.set("a", 9)
        sim.set("b", 8)
        sim.step()
        assert sim.get("q") == 17

    def test_precedence_without_parens(self):
        source = """
        module m (a, b, y);
          input [7:0] a;
          input [7:0] b;
          output [7:0] y;
          assign y = a + b * 2 & 8'hF0;
        endmodule
        """
        module = parse_verilog(source)
        sim = Simulator(module)
        sim.set("a", 5)
        sim.set("b", 3)
        assert sim.get("y") == (5 + 3 * 2) & 0xF0

    def test_block_comments_stripped(self):
        source = "module m (a, y); /* block\ncomment */ input a; output y; assign y = ~a; endmodule"
        module = parse_verilog(source)
        sim = Simulator(module)
        sim.set("a", 0)
        assert sim.get("y") == 1


class TestErrors:
    def test_undeclared_identifier(self):
        with pytest.raises(VerilogParseError, match="undeclared"):
            parse_verilog("module m (y); output y; assign y = ghost; endmodule")

    def test_unknown_submodule(self):
        with pytest.raises(VerilogParseError, match="unknown module"):
            parse_verilog(
                "module m (a, y); input a; output y; wire w;"
                " mystery u0 (.p(a), .q(w)); assign y = w; endmodule"
            )

    def test_truncated_file(self):
        with pytest.raises(VerilogParseError):
            parse_verilog("module m (a, y); input a;")

    def test_empty_file(self):
        with pytest.raises(VerilogParseError, match="no module"):
            parse_verilog("// nothing here")

    def test_port_without_direction(self):
        with pytest.raises(VerilogParseError, match="direction"):
            parse_verilog("module m (a); wire a; endmodule")

    def test_unknown_character_rejected(self):
        # The tokenizer once skipped '#', reading this as ``a & b``.
        source = (
            "module m (a, b, y);\n  input a;\n  input b;\n  output y;\n"
            "  assign y = a #& b;\nendmodule\n"
        )
        with pytest.raises(VerilogParseError,
                           match="^line 5: unexpected character '#'"):
            parse_verilog(source)

    @pytest.mark.parametrize("source, message", [
        # Block comments keep their newlines: line 7 of the original.
        ("module m (a, y);\n/* a\n   multi-line\n   comment */\n"
         "input a;\noutput y;\nassign y = ghost;\nendmodule\n",
         "line 7: undeclared identifier 'ghost'"),
        ("module m (a, y);\ninput [x:0] a;\nendmodule",
         "line 2: expected a number, got 'x'"),
        ("module m (a, y);\ninput a;\noutput y;\nassign z = a;\nendmodule",
         "line 5: undeclared signal 'z'"),
        ("module m (a, y);\ninput a;\noutput y;\nassign y = 1'b2;\n"
         "endmodule",
         "line 4: unexpected character \"'\""),
        ("module m (a, y);\ninput a;", "line 2: unexpected end of file"),
        ("// nothing here", "line 1: no module found"),
    ], ids=["block-comment", "range-bound", "assign-target", "literal-digit",
            "end-of-file", "empty"])
    def test_errors_name_their_line(self, source, message):
        with pytest.raises(VerilogParseError) as exc:
            parse_verilog(source)
        assert str(exc.value) == message


class TestWidthSemantics:
    def test_wide_output_keeps_ir_modular_semantics(self):
        # Output wider than the expression: the IR computes the add
        # modulo 2^8 and zero-extends; the emitted Verilog must preserve
        # that through the self-determining braces.
        b = ModuleBuilder("widen")
        a = b.input("a", 8)
        c = b.input("c", 8)
        b.output("y", a + c, width=12)
        module = b.build()
        text = to_verilog(module)
        assert "{(a + c)}" in text
        parsed = parse_verilog(text)
        sim = Simulator(parsed)
        sim.set("a", 200)
        sim.set("c", 100)
        assert sim.get("y") == (200 + 100) % 256
        assert_equivalent(module, parsed)

    def test_wide_register_keeps_ir_semantics(self):
        b = ModuleBuilder("widereg")
        a = b.input("a", 4)
        r = b.register("r", 8)
        r.next = (a + a).trunc(4)
        b.output("q", r)
        module = b.build()
        assert_equivalent(module, roundtrip(module), cycles=40)
