"""OPENQASM 2.0 reader/writer for the supported gate set.

This is a strict, small subset — unknown constructs are rejected with a
positioned error rather than skipped.  Grammar:

    program   : "OPENQASM" "2.0" ";" include decl* stmt*
    include   : "include" "\"qelib1.inc\"" ";"
    decl      : ("qreg" | "creg") ID "[" INT "]" ";"
    stmt      : gate | measure | barrier
    gate      : NAME ["(" expr ("," expr)* ")"] arg ("," arg)* ";"
    measure   : "measure" arg "->" arg ";"
    barrier   : "barrier" arg ("," arg)* ";"
    arg       : ID ["[" INT "]"]
    expr      : unary (("*" | "/") unary)*
    unary     : "-" unary | NUMBER | "pi"

Gate names are the `qasm` spellings of `gates.GATES`.  Comments
(`// ...`) are stripped.  A bare register name broadcasts single-qubit
gates and barriers over the register, and `measure q -> c;` measures the
whole register pairwise; multi-qubit gates require indexed arguments.
The quantum registers together hold at most `states.MAX_QUBITS` qubits;
the declaration that passes the limit is rejected at its size.

Two paths read statements, and they give the same circuit.  At each
statement start one regex tries the common case, a one-line gate
statement with indexed arguments spaced by blanks or tabs, `name(params)
reg[i],...;`, and evaluates its angles as `expr` does.  Everything else,
and every statement that this fast path would have to reject, goes to the
token path: a lexer that yields tokens one at a time, as the recursive-
descent parser asks for them.  Errors therefore always come from the token
path, with its positions.  Since the lexer runs lazily, a failed parse
lexes the whole source once more: a lexical error (a character no token
starts with) anywhere in the source is reported before any other error.
The fast path checks its statement once and builds the instruction without
the checks of `Instruction` and `GateDef`, sharing one `GateDef` per
parameterless gate.

`emit` writes canonical form: one statement per line, LF newlines, a
single flattened `q`/`c` register pair, and angles with 17 significant
digits so that parse(emit(c)) == c exactly.  It formats each gate object's
line on given qubits once per call.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .circuit import Circuit, CircuitError, Instruction
from .gates import GATES, GateDef
from .states import MAX_QUBITS

#: QASM spelling -> gate name
GATE_NAMES = {spec.qasm: name for name, spec in GATES.items()}
#: the one GateDef of each parameterless gate, shared by the fast path
_FIXED_GATES = {name: GateDef(name) for name, spec in GATES.items() if not spec.num_params}


class QasmError(ValueError):
    """Positioned rejection of a source program."""

    def __init__(self, line: int, column: int, message: str, expected: str | None = None):
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"line {line}, column {column}: {message}{suffix}")


class QasmParseError(QasmError):
    """Token-level failure: the source does not fit the grammar."""


class QasmSemanticError(QasmError):
    """Well-formed syntax with invalid meaning (bad register, arity, ...)."""


class Token(NamedTuple):
    kind: str  # ID NUMBER STRING SYMBOL EOF
    text: str
    line: int
    column: int


_NUMBER = r"\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<number>{_NUMBER})
  | (?P<id>[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<symbol>->|[\[\](),;*/-])
    """,
    re.VERBOSE,
)
_TOKEN_KINDS = {"number": "NUMBER", "id": "ID", "string": "STRING", "symbol": "SYMBOL"}
_BLANK_RE = re.compile(r"(?:\s+|//[^\n]*)*")

# The statement fast path.  A one-line gate statement with indexed
# arguments, `name(params) reg[i],...;`, spaced by blanks and tabs only:
_ID = r"[a-zA-Z_][a-zA-Z0-9_]*(?![a-zA-Z0-9_])"
_INDEXED = rf"{_ID}[ \t]*\[[ \t]*\d{{1,9}}[ \t]*\]"
_GATE_STATEMENT_RE = re.compile(
    rf"({_ID})[ \t]*(?:\(([^()\n;]*)\)[ \t]*)?({_INDEXED}(?:[ \t]*,[ \t]*{_INDEXED})*)[ \t]*;"
)
_ARGUMENT_RE = re.compile(r"([a-zA-Z_][a-zA-Z0-9_]*)[ \t]*\[[ \t]*(\d+)")
# one angle expression, `expr` of the grammar, and its tokens
_TERM = rf"(?:-[ \t]*)*(?:(?:{_NUMBER})(?![0-9a-zA-Z_.])|pi(?![a-zA-Z0-9_]))"
_ANGLE_RE = re.compile(rf"[ \t]*{_TERM}(?:[ \t]*[*/][ \t]*{_TERM})*[ \t]*")
_ANGLE_TOKEN_RE = re.compile(rf"{_NUMBER.replace('(', '(?:')}|pi|[-*/]")


def _angles(text: str) -> list[float] | None:
    """The values of a comma list of angle expressions, exactly as the token
    path computes them, or None where it would not give a value."""
    values = []
    for expr in text.split(","):
        if _ANGLE_RE.fullmatch(expr) is None:
            return None
        value = op = None
        negate = False
        for tok in _ANGLE_TOKEN_RE.findall(expr):
            if tok == "-":
                negate = not negate
            elif tok == "*" or tok == "/":
                op = tok
            else:
                term = math.pi if tok == "pi" else float(tok)
                if negate:
                    term, negate = -term, False
                if op is None:
                    value = term
                elif op == "*":
                    value *= term
                elif term == 0.0:
                    return None  # the token path reports the division
                else:
                    value /= term
        values.append(value)
    return values


class _Lexer:
    """Tokens of a source on demand, with line and column bookkeeping."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line, self.line_start = 1, 0

    @property
    def column(self) -> int:
        return self.pos - self.line_start + 1

    def skip_to(self, end: int):
        newlines = self.source.count("\n", self.pos, end)
        if newlines:
            self.line += newlines
            self.line_start = self.source.rindex("\n", self.pos, end) + 1
        self.pos = end

    def skip_blank(self):
        """Step over whitespace and comments."""
        self.skip_to(_BLANK_RE.match(self.source, self.pos).end())

    def next_token(self) -> Token:
        source = self.source
        while self.pos < len(source):
            m = _TOKEN_RE.match(source, self.pos)
            if m is None:
                raise QasmParseError(self.line, self.column,
                                     f"unexpected character {source[self.pos]!r}")
            kind = _TOKEN_KINDS.get(m.lastgroup)
            if kind is None:  # whitespace or a comment
                self.skip_to(m.end())
                continue
            tok = Token(kind, m.group(0), self.line, self.column)
            self.pos = m.end()  # no token spans a newline
            return tok
        return Token("EOF", "", self.line, self.column)


def _lex_all(source: str):
    """Lex the whole of `source`, raising its first lexical error if it has one."""
    lexer = _Lexer(source)
    while lexer.next_token().kind != "EOF":
        pass


def _integer(tok: Token, what: str) -> int:
    """The value of a digit-string token, refused at the token when it is
    longer than Python converts (4,300 digits by default)."""
    try:
        return int(tok.text)
    except ValueError:
        raise QasmSemanticError(tok.line, tok.column,
                                f"{what} has {len(tok.text)} digits, past Python's limit "
                                "for integer strings") from None


class _Parser:
    def __init__(self, source: str):
        self.lexer = _Lexer(source)
        self.lookahead: Token | None = None
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_clbits = 0

    # -- token plumbing -------------------------------------------------------

    def peek(self) -> Token:
        if self.lookahead is None:
            self.lookahead = self.lexer.next_token()
        return self.lookahead

    def advance(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.lookahead = None
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        tok = self.peek()
        wanted = what or (text if text is not None else kind)
        if tok.kind != kind or (text is not None and tok.text != text):
            got = tok.text or "end of input"
            raise QasmParseError(tok.line, tok.column, f"unexpected {got!r}", wanted)
        return self.advance()

    # -- grammar --------------------------------------------------------------

    def parse(self) -> Circuit:
        self.expect("ID", "OPENQASM", what="'OPENQASM'")
        version = self.expect("NUMBER", what="version number")
        if version.text != "2.0":
            raise QasmSemanticError(version.line, version.column,
                                    f"unsupported version {version.text}", "2.0")
        self.expect("SYMBOL", ";")
        self._include()
        statements = []
        while True:
            if self.lookahead is None:  # at a statement start
                self.lexer.skip_blank()
                fast = self._fast_gate()
                if fast is not None:
                    statements.append(fast)
                    continue
            if self.peek().kind == "EOF":
                break
            statements.append(self._statement())
        if self.num_qubits == 0:
            tok = self.peek()
            raise QasmSemanticError(tok.line, tok.column, "program declares no qubits")
        circuit = Circuit(self.num_qubits, self.num_clbits)
        for apply_stmt in statements:
            apply_stmt(circuit)
        return circuit

    def _include(self):
        tok = self.peek()
        if tok.kind == "ID" and tok.text == "include":
            self.advance()
            name = self.expect("STRING", what="include file name")
            if name.text != '"qelib1.inc"':
                raise QasmSemanticError(name.line, name.column,
                                        f"only qelib1.inc may be included, got {name.text}")
            self.expect("SYMBOL", ";")

    def _statement(self):
        tok = self.peek()
        if tok.kind != "ID":
            raise QasmParseError(tok.line, tok.column,
                                 f"unexpected {tok.text or 'end of input'!r}", "statement")
        if tok.text in ("qreg", "creg"):
            return self._declaration()
        if tok.text == "measure":
            return self._measure()
        if tok.text == "barrier":
            return self._barrier()
        return self._gate()

    def _declaration(self):
        kw = self.advance()
        name = self.expect("ID", what="register name")
        self.expect("SYMBOL", "[")
        size_tok = self.expect("NUMBER", what="register size")
        size = _integer(size_tok, "register size") if size_tok.text.isdigit() else 0
        if size < 1:
            raise QasmSemanticError(size_tok.line, size_tok.column,
                                    f"register size must be a positive integer, got {size_tok.text}")
        self.expect("SYMBOL", "]")
        self.expect("SYMBOL", ";")
        table = self.qregs if kw.text == "qreg" else self.cregs
        if name.text in self.qregs or name.text in self.cregs:
            raise QasmSemanticError(name.line, name.column,
                                    f"register {name.text!r} already declared")
        if kw.text == "qreg" and self.num_qubits + size > MAX_QUBITS:
            raise QasmSemanticError(
                size_tok.line, size_tok.column,
                f"qreg {name.text}[{size}] brings the program to {self.num_qubits + size} "
                f"qubits; at most {MAX_QUBITS} are supported")
        if kw.text == "qreg":
            table[name.text] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            table[name.text] = (self.num_clbits, size)
            self.num_clbits += size
        return lambda circuit: None

    def _argument(self) -> tuple[Token, int | None]:
        name = self.expect("ID", what="register name")
        index = None
        if self.peek().kind == "SYMBOL" and self.peek().text == "[":
            self.advance()
            idx_tok = self.expect("NUMBER", what="index")
            if not idx_tok.text.isdigit():
                raise QasmSemanticError(idx_tok.line, idx_tok.column,
                                        f"index must be an integer, got {idx_tok.text}")
            index = _integer(idx_tok, "index")
            self.expect("SYMBOL", "]")
        return name, index

    def _resolve(self, table, name: Token, index: int | None, what: str) -> range:
        """Flat indices of a register argument, as a range: a classical register
        may be far larger than anything worth listing."""
        if name.text not in table:
            raise QasmSemanticError(name.line, name.column,
                                    f"undeclared {what} register {name.text!r}")
        offset, size = table[name.text]
        if index is None:
            return range(offset, offset + size)
        if index >= size:
            raise QasmSemanticError(name.line, name.column,
                                    f"index {index} out of range for {name.text}[{size}]")
        return range(offset + index, offset + index + 1)

    def _fast_gate(self):
        """The gate statement at the lexer's position, parsed without tokens.

        Only a one-line statement with indexed arguments that the token path
        would accept as it stands is taken: known gate, right arity and
        parameter count, declared registers in range, distinct qubits and
        finite angles.  Its instruction is built here, once, without being
        checked again; what is left to check when it is applied is that no
        earlier measurement ended one of its qubits.  Anything else gives
        None, consumes nothing, and is left to the token path and its
        positioned errors.
        """
        lexer = self.lexer
        m = _GATE_STATEMENT_RE.match(lexer.source, lexer.pos)
        if m is None:
            return None
        name, param_text, args_text = m.groups()
        canonical = GATE_NAMES.get(name)
        if canonical is None:
            return None
        spec = GATES[canonical]
        if param_text is None:
            if spec.num_params:
                return None
            gate = _FIXED_GATES[canonical]
        else:
            params = _angles(param_text)
            if (params is None or len(params) != spec.num_params
                    or not all(map(math.isfinite, params))):
                return None
            gate = GateDef._trusted(canonical, tuple(params))
        args = _ARGUMENT_RE.findall(args_text)
        if len(args) != spec.arity:
            return None
        qubits = []
        for reg, index in args:
            offset, size = self.qregs.get(reg, (0, 0))
            index = int(index)
            if index >= size:
                return None
            qubits.append(offset + index)
        if len(qubits) > 1 and len(set(qubits)) != len(qubits):
            return None
        inst = Instruction._trusted("gate", tuple(qubits), gate)
        line, column = lexer.line, lexer.column
        lexer.pos = m.end()

        def apply(circuit):
            try:
                circuit._append_trusted(inst)
            except CircuitError as exc:
                raise QasmSemanticError(line, column, str(exc)) from exc
        return apply

    def _gate(self):
        name = self.advance()
        if name.text not in GATE_NAMES:
            raise QasmSemanticError(name.line, name.column,
                                    f"unsupported gate {name.text!r}")
        canonical = GATE_NAMES[name.text]
        spec = GATES[canonical]
        params: list[float] = []
        if self.peek().kind == "SYMBOL" and self.peek().text == "(":
            self.advance()
            params.append(self._expression())
            while self.peek().text == ",":
                self.advance()
                params.append(self._expression())
            self.expect("SYMBOL", ")")
        if len(params) != spec.num_params:
            raise QasmSemanticError(name.line, name.column,
                                    f"{name.text} takes {spec.num_params} parameter(s), got {len(params)}")
        args = [self._argument()]
        while self.peek().text == ",":
            self.advance()
            args.append(self._argument())
        self.expect("SYMBOL", ";")

        if spec.arity == 1 and len(args) == 1 and args[0][1] is None:
            # broadcast over the whole register
            targets = self._resolve(self.qregs, args[0][0], None, "quantum")

            def apply(circuit, name=name):
                for q in targets:
                    self._append_gate(circuit, name, canonical, params, (q,))
            return apply
        if len(args) != spec.arity:
            raise QasmSemanticError(name.line, name.column,
                                    f"{name.text} needs {spec.arity} qubit argument(s), got {len(args)}")
        qubits: list[int] = []
        for reg, index in args:
            if index is None:
                raise QasmSemanticError(reg.line, reg.column,
                                        "multi-qubit gates require indexed arguments")
            qubits.extend(self._resolve(self.qregs, reg, index, "quantum"))

        def apply(circuit, name=name, qubits=tuple(qubits)):
            self._append_gate(circuit, name, canonical, params, qubits)
        return apply

    @staticmethod
    def _append_gate(circuit: Circuit, name_tok: Token, canonical: str,
                     params: list[float], qubits: tuple[int, ...]):
        try:
            circuit.gate(GateDef(canonical, tuple(params)), *qubits)
        except (CircuitError, ValueError) as exc:
            raise QasmSemanticError(name_tok.line, name_tok.column, str(exc)) from exc

    def _measure(self):
        kw = self.advance()
        q_name, q_idx = self._argument()
        self.expect("SYMBOL", "->")
        c_name, c_idx = self._argument()
        self.expect("SYMBOL", ";")
        if (q_idx is None) != (c_idx is None):
            raise QasmSemanticError(kw.line, kw.column,
                                    "measure arguments must both be indexed or both registers")
        qubits = self._resolve(self.qregs, q_name, q_idx, "quantum")
        clbits = self._resolve(self.cregs, c_name, c_idx, "classical")
        if len(qubits) != len(clbits):
            raise QasmSemanticError(kw.line, kw.column,
                                    f"register sizes differ: {len(qubits)} qubits -> {len(clbits)} clbits")

        def apply(circuit):
            for q, c in zip(qubits, clbits):
                try:
                    circuit.measure(q, c)
                except CircuitError as exc:
                    raise QasmSemanticError(kw.line, kw.column, str(exc)) from exc
        return apply

    def _barrier(self):
        self.advance()
        args = [self._argument()]
        while self.peek().text == ",":
            self.advance()
            args.append(self._argument())
        self.expect("SYMBOL", ";")
        qubits: list[int] = []
        for reg, index in args:
            qubits.extend(self._resolve(self.qregs, reg, index, "quantum"))
        return lambda circuit: circuit.barrier(*qubits)

    # -- angle expressions ----------------------------------------------------

    def _expression(self) -> float:
        value = self._unary()
        while self.peek().kind == "SYMBOL" and self.peek().text in ("*", "/"):
            op = self.advance()
            rhs = self._unary()
            if op.text == "*":
                value *= rhs
            else:
                if rhs == 0.0:
                    raise QasmSemanticError(op.line, op.column, "division by zero in angle")
                value /= rhs
        return value

    def _unary(self) -> float:
        tok = self.peek()
        if tok.kind == "SYMBOL" and tok.text == "-":
            self.advance()
            return -self._unary()
        if tok.kind == "NUMBER":
            self.advance()
            return float(tok.text)
        if tok.kind == "ID" and tok.text == "pi":
            self.advance()
            return math.pi
        raise QasmParseError(tok.line, tok.column,
                             f"unexpected {tok.text or 'end of input'!r}", "number or pi")


def parse(source: str) -> Circuit:
    """Parse OPENQASM 2.0 source into a Circuit.  Raises QasmError subtypes."""
    try:
        return _Parser(source).parse()
    except QasmError:
        _lex_all(source)  # a lexical error anywhere in the source is reported first
        raise


def _fmt_angle(value: float) -> str:
    return format(value, ".17g")


def emit(circuit: Circuit) -> str:
    """Canonical OPENQASM 2.0 text for a circuit (LF newlines, trailing LF)."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if circuit.num_clbits > 0:
        lines.append(f"creg c[{circuit.num_clbits}];")
    # a gate object's line on given qubits, for this call: keyed by identity,
    # since equal gates can print differently (u1(0) and u1(-0))
    gate_lines: dict[tuple[int, tuple[int, ...]], str] = {}
    for inst in circuit.instructions:
        if inst.kind == "gate":
            key = (id(inst.gate), inst.qubits)
            line = gate_lines.get(key)
            if line is None:
                name = GATES[inst.gate.name].qasm
                params = ""
                if inst.gate.params:
                    params = "(" + ",".join(_fmt_angle(p) for p in inst.gate.params) + ")"
                operands = ",".join(f"q[{q}]" for q in inst.qubits)
                line = gate_lines[key] = f"{name}{params} {operands};"
            lines.append(line)
        elif inst.kind == "barrier":
            operands = ",".join(f"q[{q}]" for q in inst.qubits)
            lines.append(f"barrier {operands};")
        else:
            lines.append(f"measure q[{inst.qubits[0]}] -> c[{inst.clbit}];")
    return "\n".join(lines) + "\n"
