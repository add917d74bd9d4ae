"""Verilog reader for the toolkit's synthesizable subset.

Parses the Verilog-2001 dialect that :func:`repro.hdl.verilog.to_verilog`
emits (and hand-written code in the same shape): module/port/net
declarations, continuous ``assign`` statements over the expression
grammar, one synchronous ``always @(posedge clk)`` block with the
``if (rst) ... else ...`` reset idiom, and module instances.  Round-trip
(``parse(emit(m))``) is tested to preserve semantics, which makes ``.v``
files a real interchange format for the flow and the CLI.

The expression parser is precedence-climbing over the operators the
emitter produces: ``?:``, ``| ^ &``, equality/relational, shifts,
add/sub, mul, unary ``~ - & | ^``, concatenation, bit selects and
sized literals (``8'd255``, ``4'hF``, ``3'b101``).
"""

from __future__ import annotations

import re

from .ir import (
    BinOp,
    Cat,
    Const,
    Expr,
    HdlError,
    Module,
    Mux,
    Ref,
    Signal,
    Slice,
    UnaryOp,
)


class VerilogParseError(Exception):
    """Raised for Verilog outside the supported subset.

    The message starts with ``line N:``, the line of the source text
    where parsing stopped.
    """


#: One lexeme per match: whitespace or a comment, a token, or a
#: character outside the subset (group ``bad``), which is rejected.
_LEXEME = re.compile(
    r"\s+|//[^\n]*|/\*.*?\*/"
    # sized literal: no leading underscore, digits valid for the base
    r"|(?P<token>\d+'(?:b[01][01_]*|d\d[\d_]*|h[\da-fA-F][\da-fA-F_]*)"
    r"|[a-zA-Z_][a-zA-Z0-9_$]*"  # identifier
    r"|\d+"  # plain number
    r"|<=|==|!=|<<|>>|>=|[(){}\[\]:;,.@?~^&|*+\-<>=!/])"
    r"|(?P<bad>.)",
    re.S,
)

#: Binary operators by precedence level (low to high), all left-assoc.
_PRECEDENCE: list[dict[str, str]] = [
    {"|": "or"},
    {"^": "xor"},
    {"&": "and"},
    {"==": "eq", "!=": "ne"},
    {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"},
    {"<<": "shl", ">>": "shr"},
    {"+": "add", "-": "sub"},
    {"*": "mul"},
]


class _Tokens:
    def __init__(self, text: str):
        self.tokens: list[str] = []
        #: The source line of each token.
        self.lines: list[int] = []
        line = 1
        for match in _LEXEME.finditer(text):
            token, bad = match.group("token", "bad")
            if token is not None:
                self.tokens.append(token)
                self.lines.append(line)
            elif bad is not None:
                raise VerilogParseError(
                    f"line {line}: unexpected character {bad!r}"
                )
            else:
                line += match.group().count("\n")
        self.pos = 0

    def error(self, message: str) -> VerilogParseError:
        """A parse error at the line of the last token read."""
        line = self.lines[self.pos - 1] if self.pos else 1
        return VerilogParseError(f"line {line}: {message}")

    def peek(self, offset: int = 0) -> str | None:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def next(self) -> str:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of file")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise self.error(f"expected {token!r}, got {got!r}")

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.pos += 1
            return True
        return False

    def number(self) -> int:
        token = self.next()
        if not token.isdigit():
            raise self.error(f"expected a number, got {token!r}")
        return int(token)


def _parse_literal(token: str) -> Const:
    width_txt, _, rest = token.partition("'")
    base, digits = rest[0], rest[1:].replace("_", "")
    value = int(digits, {"b": 2, "d": 10, "h": 16}[base])
    return Const(value, int(width_txt))


class _ModuleParser:
    def __init__(self, tokens: _Tokens, known: dict[str, Module]):
        self.tokens = tokens
        self.known = known
        self.module: Module | None = None
        self.widths: dict[str, int] = {}
        self.kinds: dict[str, str] = {}  # input/output/wire/reg
        self.assigns: list[tuple[str, Expr]] = []
        self.reg_updates: dict[str, tuple[int, Expr]] = {}  # reset, next
        self.instances: list[tuple[str, str, dict[str, str]]] = []

    # -- declarations -----------------------------------------------------

    def parse(self) -> Module:
        t = self.tokens
        t.expect("module")
        name = t.next()
        t.expect("(")
        port_order: list[str] = []
        while not t.accept(")"):
            token = t.next()
            if token != ",":
                port_order.append(token)
        t.expect(";")

        while t.peek() != "endmodule":
            keyword = t.peek()
            if keyword in ("input", "output", "wire", "reg"):
                self._declaration()
            elif keyword == "assign":
                self._assign()
            elif keyword == "always":
                self._always()
            else:
                self._instance()
        t.expect("endmodule")
        return self._build(name, port_order)

    def _range_width(self) -> int:
        t = self.tokens
        if not t.accept("["):
            return 1
        hi = t.number()
        t.expect(":")
        lo = t.number()
        t.expect("]")
        return hi - lo + 1

    def _declaration(self) -> None:
        t = self.tokens
        kind = t.next()
        width = self._range_width()
        while True:
            name = t.next()
            self.widths[name] = width
            # reg overrides wire kind; clk/rst stay implicit inputs.
            if name not in ("clk", "rst"):
                self.kinds[name] = kind
            if t.accept(";"):
                break
            t.expect(",")

    def _assign(self) -> None:
        t = self.tokens
        t.expect("assign")
        target = t.next()
        t.expect("=")
        expr = self._expression()
        t.expect(";")
        self.assigns.append((target, expr))

    def _always(self) -> None:
        t = self.tokens
        for token in ("always", "@", "(", "posedge", "clk", ")", "begin",
                      "if", "(", "rst", ")", "begin"):
            t.expect(token)
        resets: dict[str, int] = {}
        while not t.accept("end"):
            name = t.next()
            t.expect("<=")
            value = self._expression()
            t.expect(";")
            if not isinstance(value, Const):
                raise t.error("reset values must be constants")
            resets[name] = value.value
        for token in ("else", "begin"):
            t.expect(token)
        while not t.accept("end"):
            name = t.next()
            t.expect("<=")
            expr = self._expression()
            t.expect(";")
            self.reg_updates[name] = (resets.get(name, 0), expr)
        t.expect("end")  # closes the always block

    def _instance(self) -> None:
        t = self.tokens
        module_name = t.next()
        instance_name = t.next()
        t.expect("(")
        connections: dict[str, str] = {}
        while not t.accept(")"):
            t.expect(".")
            port = t.next()
            t.expect("(")
            signal = t.next()
            t.expect(")")
            t.accept(",")
            connections[port] = signal
        t.expect(";")
        self.instances.append((instance_name, module_name, connections))

    # -- expressions -------------------------------------------------------

    def _expression(self) -> Expr:
        return self._ternary()

    def _ternary(self) -> Expr:
        condition = self._binary(0)
        if not self.tokens.accept("?"):
            return condition
        if condition.width != 1:
            condition = Slice(condition, 0, 0)
        if_true = self._ternary()
        self.tokens.expect(":")
        if_false = self._ternary()
        return Mux(condition, if_true, if_false)

    def _binary(self, level: int) -> Expr:
        if level >= len(_PRECEDENCE):
            return self._unary()
        ops = _PRECEDENCE[level]
        left = self._binary(level + 1)
        while self.tokens.peek() in ops:
            symbol = self.tokens.next()
            right = self._binary(level + 1)
            left = BinOp(ops[symbol], left, right)
        return left

    def _unary(self) -> Expr:
        t = self.tokens
        token = t.peek()
        if token == "~":
            t.next()
            return UnaryOp("not", self._unary())
        if token == "-":
            t.next()
            return UnaryOp("neg", self._unary())
        if token in ("&", "|", "^"):
            t.next()
            op = {"&": "rand", "|": "ror", "^": "rxor"}[token]
            return UnaryOp(op, self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        t = self.tokens
        token = t.next()
        if token == "(":
            expr = self._expression()
            t.expect(")")
            return self._maybe_select(expr)
        if token == "{":
            parts = [self._expression()]
            while t.accept(","):
                parts.append(self._expression())
            t.expect("}")
            return self._maybe_select(Cat(parts))
        if "'" in token:
            return _parse_literal(token)
        if token.isdigit():
            value = int(token)
            return Const(value, max(1, value.bit_length()))
        if token not in self.widths:
            raise t.error(f"undeclared identifier {token!r}")
        expr: Expr = Ref(Signal(token, self.widths[token]))
        return self._maybe_select(expr)

    def _maybe_select(self, expr: Expr) -> Expr:
        t = self.tokens
        while t.peek() == "[":
            t.next()
            hi = t.number()
            if t.accept(":"):
                lo = t.number()
            else:
                lo = hi
            t.expect("]")
            expr = Slice(expr, hi, lo)
        return expr

    # -- module assembly ----------------------------------------------------

    def _build(self, name: str, port_order: list[str]) -> Module:
        module = Module(name)
        signal_of: dict[str, Signal] = {}
        for port in port_order:
            if port in ("clk", "rst"):
                continue
            kind = self.kinds.get(port)
            if kind == "input":
                signal_of[port] = module.add_input(port, self.widths[port])
            elif kind == "output":
                signal_of[port] = module.add_output(port, self.widths[port])
            else:
                raise self.tokens.error(f"port {port!r} lacks a direction")
        for sig_name, kind in self.kinds.items():
            if sig_name in signal_of:
                continue
            if kind == "reg" and sig_name in self.reg_updates:
                continue  # created via add_register below
            if kind in ("wire", "reg"):
                signal_of[sig_name] = module.add_wire(
                    sig_name, self.widths[sig_name]
                )

        registers: dict[str, object] = {}
        for reg_name, (reset, _expr) in self.reg_updates.items():
            if reg_name not in self.widths:
                raise self.tokens.error(f"undeclared signal {reg_name!r}")
            register = module.add_register(
                reg_name, self.widths[reg_name], reset_value=reset
            )
            registers[reg_name] = register
            signal_of[reg_name] = register.signal

        def declared(sig_name: str) -> Signal:
            if sig_name not in signal_of:
                raise self.tokens.error(f"undeclared signal {sig_name!r}")
            return signal_of[sig_name]

        for target, expr in self.assigns:
            signal = declared(target)
            module.assign(
                signal, _contextualize(_rebind(expr, declared), signal.width)
            )
        for reg_name, (_reset, expr) in self.reg_updates.items():
            width = registers[reg_name].signal.width
            registers[reg_name].next = _contextualize(
                _rebind(expr, declared), width
            )
        for inst_name, module_name, connections in self.instances:
            if module_name not in self.known:
                raise self.tokens.error(
                    f"instance of unknown module {module_name!r}"
                )
            conns = {
                port: declared(sig)
                for port, sig in connections.items()
                if port not in ("clk", "rst")
            }
            module.add_instance(inst_name, self.known[module_name], conns)
        module.validate()
        return module


#: Operators whose operands take the assignment context's width in
#: Verilog ("context-determined" expressions, IEEE 1364 table 5-22).
_CONTEXT_OPS = frozenset({"add", "sub", "and", "or", "xor"})


def _rebind(expr: Expr, declared) -> Expr:
    """``expr`` with every signal reference replaced by
    ``declared(name)``, the module's signal of that name."""
    if isinstance(expr, Ref):
        return Ref(declared(expr.signal.name))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rebind(expr.operand, declared))
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op, _rebind(expr.a, declared), _rebind(expr.b, declared)
        )
    if isinstance(expr, Mux):
        return Mux(_rebind(expr.sel, declared),
                   _rebind(expr.if_true, declared),
                   _rebind(expr.if_false, declared))
    if isinstance(expr, Cat):
        return Cat([_rebind(p, declared) for p in expr.parts])
    if isinstance(expr, Slice):
        return Slice(_rebind(expr.value, declared), expr.hi, expr.lo)
    return expr


def _zext(expr: Expr, width: int) -> Expr:
    if expr.width >= width:
        return expr
    return Cat([Const(0, width - expr.width), expr])


def _contextualize(expr: Expr, width: int) -> Expr:
    """Apply Verilog context sizing: widen through context-determined
    operators so carries are kept, then truncate to the target width."""
    expr = _grow(expr, width)
    if expr.width > width:
        expr = Slice(expr, width - 1, 0)
    return _zext(expr, width) if expr.width < width else expr


def _grow(expr: Expr, width: int) -> Expr:
    if isinstance(expr, BinOp) and expr.op in _CONTEXT_OPS:
        return BinOp(
            expr.op,
            _zext(_grow(expr.a, width), width),
            _zext(_grow(expr.b, width), width),
        )
    if isinstance(expr, BinOp) and expr.op in ("shl", "shr"):
        return BinOp(expr.op, _zext(_grow(expr.a, width), width), expr.b)
    if isinstance(expr, UnaryOp) and expr.op in ("not", "neg"):
        return UnaryOp(expr.op, _zext(_grow(expr.operand, width), width))
    if isinstance(expr, Mux):
        return Mux(
            expr.sel,
            _zext(_grow(expr.if_true, width), width),
            _zext(_grow(expr.if_false, width), width),
        )
    return expr


def parse_verilog(
    text: str, known: dict[str, Module] | None = None
) -> Module:
    """Parse Verilog text; the last module becomes the top.

    Earlier modules in the file may be instantiated by later ones
    (dependency order, which is how :func:`to_verilog` emits hierarchies).
    ``known`` pre-populates the instantiable-module table — interactive
    edit sessions pass their current design's modules so a re-authored
    module can instantiate siblings without re-declaring them in ``text``.
    The mapping is not mutated.
    """
    tokens = _Tokens(text)
    known = dict(known) if known else {}
    last: Module | None = None
    while tokens.peek() is not None:
        module = _ModuleParser(tokens, known).parse()
        known[module.name] = module
        last = module
    if last is None:
        raise tokens.error("no module found")
    return last
