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

One tokenizer feeds the recursive-descent parser.  A single regex
`findall` splits the source into token texts, blanks and comments skipped,
with an empty text for the end of input; a token's kind is read from its
first character.  A one-character token that no token starts with, such as
`@`, is a lexical error, and the first of them is reported before anything
else.  Line and column are worked out only when an error is raised.  The
parser builds each instruction once and appends it unchecked, sharing one
`GateDef` per parameterless gate.  Three problems of a statement are left
to the end, in statement order, after every error of the grammar: an
angle that is not finite, a repeated qubit, and a gate on a qubit that an
earlier statement measured.

`emit` writes canonical form: one statement per line, LF newlines, a
single flattened `q`/`c` register pair, and angles with 17 significant
digits so that parse(emit(c)) == c exactly.  It formats each gate object's
line on given qubits once per call.
"""

from __future__ import annotations

import itertools
import math
import re
import string

from .circuit import Circuit, CircuitError, Instruction
from .gates import GATES, GateDef
from .states import MAX_QUBITS

#: QASM spelling -> gate name
GATE_NAMES = {spec.qasm: name for name, spec in GATES.items()}
#: the one GateDef of each parameterless gate, shared by every statement
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


_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
#: blanks and comments, then one token: symbol, identifier, number, arrow,
#: minus, string, a stray character or the end of input.  The alternatives
#: start with different characters, but for "-" and "->" and the catch-alls
#: at the end, so their order only sets speed: the common ones come first.
#: The token group matches wherever the skip stops, so the skip never gives
#: a comment back.
_TOKEN_RE = re.compile(
    rf'(?:\s|//[^\n]*)*([\[\](),;*/]|[a-zA-Z_][a-zA-Z0-9_]*|{_NUMBER}|->|-|"[^"\n]*"|\S|\Z)')
#: a token's kind by its first character, "" being the end of input
_KINDS = {"": "EOF", '"': "STRING", ".": "NUMBER", **dict.fromkeys(string.digits, "NUMBER"),
          **dict.fromkeys(string.ascii_letters + "_", "ID"),
          **dict.fromkeys("[](),;*/-", "SYMBOL")}
#: the one-character texts that are tokens: a quote or a dot alone is a stray
_ONE_CHAR_TOKENS = frozenset(_KINDS).difference(("", '"', "."))


def _kind(text: str) -> str:
    """ID, NUMBER, STRING, SYMBOL or EOF, for a token that is not a stray."""
    return _KINDS[text[:1]]


def _unexpected(text: str) -> str:
    return f"unexpected {text or 'end of input'!r}"


def _repeated(qubits: tuple[int, ...]) -> str | None:
    """The problem of operands that name a qubit twice, or None."""
    return f"repeated qubit in {qubits}" if len(set(qubits)) != len(qubits) else None


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.texts = _TOKEN_RE.findall(source)
        self.i = 0  # the next token
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, tuple[int, int]] = {}
        self.num_qubits = 0
        self.num_clbits = 0
        #: (token, kind, qubits, gate or clbits, deferred problem) of each gate,
        #: barrier and measure statement, a broadcast gate giving one per qubit
        self.items: list[tuple] = []

    def error(self, cls, tok: int, message: str, expected: str | None = None) -> QasmError:
        """An error at token `tok`, positioned by lexing the source up to it."""
        pos = next(itertools.islice(_TOKEN_RE.finditer(self.source), tok, None)).start(1)
        line_start = self.source.rfind("\n", 0, pos) + 1
        return cls(self.source.count("\n", 0, pos) + 1, pos - line_start + 1, message, expected)

    # -- token plumbing -------------------------------------------------------

    def expect(self, text: str, what: str | None = None) -> int:
        tok = self.i
        if self.texts[tok] != text:
            raise self.error(QasmParseError, tok, _unexpected(self.texts[tok]), what or text)
        self.i += 1
        return tok

    def expect_kind(self, kind: str, what: str) -> int:
        tok = self.i
        if _kind(self.texts[tok]) != kind:
            raise self.error(QasmParseError, tok, _unexpected(self.texts[tok]), what)
        self.i += 1
        return tok

    def integer(self, tok: int, what: str) -> int:
        """The value of a digit-string token, refused at the token when it is
        longer than Python converts (4,300 digits by default)."""
        text = self.texts[tok]
        try:
            return int(text)
        except ValueError:
            raise self.error(QasmSemanticError, tok,
                             f"{what} has {len(text)} digits, past Python's limit "
                             "for integer strings") from None

    # -- grammar --------------------------------------------------------------

    def parse(self) -> Circuit:
        texts = self.texts
        strays = {text for text in set(texts).difference(_ONE_CHAR_TOKENS) if len(text) == 1}
        if strays:
            tok = next(i for i, text in enumerate(texts) if text in strays)
            raise self.error(QasmParseError, tok, f"unexpected character {texts[tok]!r}")
        self.expect("OPENQASM", "'OPENQASM'")
        version = self.expect_kind("NUMBER", "version number")
        if texts[version] != "2.0":
            raise self.error(QasmSemanticError, version,
                             f"unsupported version {texts[version]}", "2.0")
        self.expect(";")
        if texts[self.i] == "include":
            self.i += 1
            name = self.expect_kind("STRING", "include file name")
            if texts[name] != '"qelib1.inc"':
                raise self.error(QasmSemanticError, name,
                                 f"only qelib1.inc may be included, got {texts[name]}")
            self.expect(";")
        while texts[self.i]:
            self._statement()
        if self.num_qubits == 0:
            raise self.error(QasmSemanticError, self.i, "program declares no qubits")
        return self._build()

    def _build(self) -> Circuit:
        """The circuit of the parsed statements, raising their deferred problems
        and gates on measured qubits in statement order."""
        circuit = Circuit(self.num_qubits, self.num_clbits)
        append = circuit._append_trusted
        for tok, kind, qubits, operand, problem in self.items:
            if problem is None:
                try:
                    if kind == "gate":
                        append(Instruction(kind, qubits, operand))
                    elif kind == "measure":
                        for q, c in zip(qubits, operand):
                            circuit.measure(q, c)
                    else:
                        circuit.barrier(*qubits)
                    continue
                except CircuitError as exc:
                    problem = str(exc)
            raise self.error(QasmSemanticError, tok, problem)
        return circuit

    def _statement(self):
        text = self.texts[self.i]
        if text in GATE_NAMES:
            self._gate()
        elif _kind(text) != "ID":
            raise self.error(QasmParseError, self.i, _unexpected(text), "statement")
        elif text in ("qreg", "creg"):
            self._declaration()
        elif text == "measure":
            self._measure()
        elif text == "barrier":
            self._barrier()
        else:
            self._gate()

    def _declaration(self):
        is_qreg = self.texts[self.i] == "qreg"
        self.i += 1
        name_tok = self.expect_kind("ID", "register name")
        name = self.texts[name_tok]
        self.expect("[")
        size_tok = self.expect_kind("NUMBER", "register size")
        size_text = self.texts[size_tok]
        size = self.integer(size_tok, "register size") if size_text.isdigit() else 0
        if size < 1:
            raise self.error(QasmSemanticError, size_tok,
                             f"register size must be a positive integer, got {size_text}")
        self.expect("]")
        self.expect(";")
        if name in self.qregs or name in self.cregs:
            raise self.error(QasmSemanticError, name_tok, f"register {name!r} already declared")
        if is_qreg:
            if self.num_qubits + size > MAX_QUBITS:
                raise self.error(
                    QasmSemanticError, size_tok,
                    f"qreg {name}[{size}] brings the program to {self.num_qubits + size} "
                    f"qubits; at most {MAX_QUBITS} are supported")
            self.qregs[name] = (self.num_qubits, size)
            self.num_qubits += size
        else:
            self.cregs[name] = (self.num_clbits, size)
            self.num_clbits += size

    def _argument(self) -> tuple[int, int | None]:
        """A register name and its index, or None for a whole register."""
        texts, tok = self.texts, self.i
        if _kind(texts[tok]) != "ID":
            raise self.error(QasmParseError, tok, _unexpected(texts[tok]), "register name")
        if texts[tok + 1] != "[":
            self.i = tok + 1
            return tok, None
        index = texts[tok + 2]
        if not index.isdigit():
            if _kind(index) != "NUMBER":
                raise self.error(QasmParseError, tok + 2, _unexpected(index), "index")
            raise self.error(QasmSemanticError, tok + 2, f"index must be an integer, got {index}")
        value = self.integer(tok + 2, "index")
        self.i = tok + 3
        self.expect("]")
        return tok, value

    def _arguments(self) -> list[tuple[int, int | None]]:
        """A comma list of arguments and the closing semicolon."""
        args = [self._argument()]
        while self.texts[self.i] == ",":
            self.i += 1
            args.append(self._argument())
        self.expect(";")
        return args

    def _resolve(self, table, name_tok: int, index: int | None, what: str) -> range:
        """Flat indices of a register argument, as a range: a classical register
        may be far larger than anything worth listing."""
        name = self.texts[name_tok]
        if name not in table:
            raise self.error(QasmSemanticError, name_tok, f"undeclared {what} register {name!r}")
        offset, size = table[name]
        if index is None:
            return range(offset, offset + size)
        if index >= size:
            raise self.error(QasmSemanticError, name_tok,
                             f"index {index} out of range for {name}[{size}]")
        return range(offset + index, offset + index + 1)

    def _gate(self):
        name_tok = self.i
        name = self.texts[name_tok]
        self.i += 1
        canonical = GATE_NAMES.get(name)
        if canonical is None:
            raise self.error(QasmSemanticError, name_tok, f"unsupported gate {name!r}")
        spec = GATES[canonical]
        params: list[float] = []
        if self.texts[self.i] == "(":
            self.i += 1
            params.append(self._expression())
            while self.texts[self.i] == ",":
                self.i += 1
                params.append(self._expression())
            self.expect(")")
        if len(params) != spec.num_params:
            raise self.error(QasmSemanticError, name_tok,
                             f"{name} takes {spec.num_params} parameter(s), got {len(params)}")
        args = self._arguments()

        problem = None
        if not params:
            gate = _FIXED_GATES[canonical]
        elif all(map(math.isfinite, params)):
            gate = GateDef(canonical, params)
        else:
            gate, problem = None, f"{canonical} parameters must be finite: {tuple(params)}"
        if spec.arity == 1 and len(args) == 1 and args[0][1] is None:
            # broadcast over the whole register
            for q in self._resolve(self.qregs, args[0][0], None, "quantum"):
                self.items.append((name_tok, "gate", (q,), gate, problem))
            return
        if len(args) != spec.arity:
            raise self.error(QasmSemanticError, name_tok,
                             f"{name} needs {spec.arity} qubit argument(s), got {len(args)}")
        qubits: list[int] = []
        for reg, index in args:
            if index is None:
                raise self.error(QasmSemanticError, reg,
                                 "multi-qubit gates require indexed arguments")
            qubits.extend(self._resolve(self.qregs, reg, index, "quantum"))
        qubits = tuple(qubits)
        if problem is None:
            problem = _repeated(qubits)
        self.items.append((name_tok, "gate", qubits, gate, problem))

    def _measure(self):
        kw = self.i
        self.i += 1
        q_name, q_idx = self._argument()
        self.expect("->")
        c_name, c_idx = self._argument()
        self.expect(";")
        if (q_idx is None) != (c_idx is None):
            raise self.error(QasmSemanticError, kw,
                             "measure arguments must both be indexed or both registers")
        qubits = self._resolve(self.qregs, q_name, q_idx, "quantum")
        clbits = self._resolve(self.cregs, c_name, c_idx, "classical")
        if len(qubits) != len(clbits):
            raise self.error(QasmSemanticError, kw,
                             f"register sizes differ: {len(qubits)} qubits -> {len(clbits)} clbits")
        self.items.append((kw, "measure", qubits, clbits, None))

    def _barrier(self):
        kw = self.i
        self.i += 1
        qubits: list[int] = []
        for reg, index in self._arguments():
            qubits.extend(self._resolve(self.qregs, reg, index, "quantum"))
        qubits = tuple(qubits)
        self.items.append((kw, "barrier", qubits, None, _repeated(qubits)))

    # -- angle expressions ----------------------------------------------------

    def _expression(self) -> float:
        value = self._unary()
        while self.texts[self.i] in ("*", "/"):
            op = self.i
            self.i += 1
            rhs = self._unary()
            if self.texts[op] == "*":
                value *= rhs
            else:
                if rhs == 0.0:
                    raise self.error(QasmSemanticError, op, "division by zero in angle")
                value /= rhs
        return value

    def _unary(self) -> float:
        """A number or pi after any run of minus signs, counted in a loop."""
        texts = self.texts
        negate = False
        while texts[self.i] == "-":
            self.i += 1
            negate = not negate
        text = texts[self.i]
        if _kind(text) == "NUMBER":
            value = float(text)
        elif text == "pi":
            value = math.pi
        else:
            raise self.error(QasmParseError, self.i, _unexpected(text), "number or pi")
        self.i += 1
        return -value if negate else value


def parse(source: str) -> Circuit:
    """Parse OPENQASM 2.0 source into a Circuit.  Raises QasmError subtypes."""
    return _Parser(source).parse()


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
