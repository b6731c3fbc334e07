"""Reader/writer for the OPENQASM 2.0 subset: round-trips and diagnostics."""

import contextlib
import hashlib
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim.circuit import Circuit
from mzsim.cli import main
from mzsim.gates import GATES, GateDef
from mzsim.qasm import (
    GATE_NAMES,
    QasmError,
    QasmParseError,
    QasmSemanticError,
    emit,
    parse,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def random_circuit(rng, max_qubits=4, max_gates=12):
    n = int(rng.integers(1, max_qubits + 1))
    c = Circuit(n, n)
    for _ in range(int(rng.integers(0, max_gates + 1))):
        roll = rng.random()
        q = int(rng.integers(n))
        if roll < 0.15:
            c.h(q)
        elif roll < 0.3:
            c.x(q)
        elif roll < 0.45:
            c.ry(float(rng.uniform(-2 * np.pi, 2 * np.pi)), q)
        elif roll < 0.55:
            c.u1(float(rng.uniform(-np.pi, np.pi)), q)
        elif roll < 0.65:
            c.u2(*(float(v) for v in rng.uniform(-np.pi, np.pi, 2)), q)
        elif roll < 0.75:
            c.u3(*(float(v) for v in rng.uniform(-np.pi, np.pi, 3)), q)
        elif roll < 0.8 and n >= 1:
            c.barrier()
        elif n >= 2:
            a, b = map(int, rng.permutation(n)[:2])
            if roll < 0.9:
                c.cx(a, b)
            elif roll < 0.95:
                c.swap(a, b)
            elif n >= 3:
                a, b, t = map(int, rng.permutation(n)[:3])
                c.ccx(a, b, t)
    if rng.random() < 0.7:
        c.measure_all()
    return c


class TestEmit:
    def test_canonical_program_shape(self):
        c = Circuit(2, 2).h(0).cx(0, 1).h(0).measure_all()
        text = emit(c)
        lines = text.strip().split("\n")
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        assert lines[2] == "qreg q[2];"
        assert lines[3] == "creg c[2];"
        assert lines[4] == "h q[0];"
        assert lines[5] == "cx q[0],q[1];"
        assert lines[-2:] == ["measure q[0] -> c[0];", "measure q[1] -> c[1];"]
        assert len(lines) == 9
        assert text.endswith("\n") and "\r" not in text

    def test_creg_omitted_when_no_clbits(self):
        text = emit(Circuit(1).h(0))
        assert "creg" not in text

    def test_angles_have_full_precision(self):
        theta = 0.1 + 0.2  # not exactly representable in decimal
        c = Circuit(1).ry(theta, 0)
        line = emit(c).strip().split("\n")[-1]
        assert line.startswith("ry(") and line.endswith(") q[0];")
        assert float(line[3:line.index(")")]) == theta

    def test_barrier_lists_qubits(self):
        assert "barrier q[0],q[2];" in emit(Circuit(3).barrier(0, 2))

    def test_signed_zeros_print_apart(self):
        # 0.0 == -0.0, but they print differently: no line may be reused by value
        minus_zero = GateDef("U1", (-0.0,))
        c = Circuit(2).gate(minus_zero, 0).u1(0.0, 0).gate(minus_zero, 0).gate(minus_zero, 1)
        text = emit(c)
        assert text.split("\n")[3:7] == ["u1(-0) q[0];", "u1(0) q[0];", "u1(-0) q[0];",
                                         "u1(-0) q[1];"]
        assert emit(parse(text)) == text


class TestParse:
    def test_minimal_program(self):
        c = parse(HEADER + "qreg q[1];\nh q[0];")
        assert c.num_qubits == 1 and c.num_clbits == 0
        assert c.count_gates() == {"H": 1}

    def test_include_is_optional(self):
        c = parse("OPENQASM 2.0; qreg q[1]; x q[0];")
        assert c.count_gates() == {"X": 1}

    def test_all_gate_spellings(self):
        src = HEADER + (
            "qreg q[3];\n"
            "h q[0]; x q[1]; ry(0.5) q[2];\n"
            "u1(0.1) q[0]; u2(0.1,0.2) q[1]; u3(0.1,0.2,0.3) q[2];\n"
            "cx q[0],q[1]; swap q[1],q[2]; ccx q[0],q[1],q[2];\n"
        )
        counts = parse(src).count_gates()
        assert counts == {"H": 1, "X": 1, "RY": 1, "U1": 1, "U2": 1, "U3": 1,
                          "CNOT": 1, "SWAP": 1, "CCX": 1}
        assert set(GATE_NAMES.values()) == set(counts)

    def test_single_qubit_gates_broadcast_over_register(self):
        c = parse(HEADER + "qreg q[3]; h q;")
        assert c.count_gates() == {"H": 3}
        assert [i.qubits for i in c.gate_instructions()] == [(0,), (1,), (2,)]

    def test_register_measure_is_pairwise(self):
        c = parse(HEADER + "qreg q[2]; creg c[2]; h q[0]; measure q -> c;")
        measures = [(i.qubits[0], i.clbit) for i in c.instructions if i.kind == "measure"]
        assert measures == [(0, 0), (1, 1)]

    def test_multiple_registers_are_flattened_in_order(self):
        c = parse(HEADER + "qreg a[2]; qreg b[2]; cx a[1],b[0];")
        assert c.num_qubits == 4
        assert c.gate_instructions()[0].qubits == (1, 2)

    def test_angle_expressions(self):
        src = HEADER + "qreg q[1]; ry(pi/2) q[0]; ry(-pi) q[0]; ry(3*pi/4) q[0]; ry(2e-1) q[0]; ry(.5) q[0];"
        params = [i.gate.params[0] for i in parse(src).gate_instructions()]
        assert params == [np.pi / 2, -np.pi, 3 * np.pi / 4, 0.2, 0.5]

    @pytest.mark.parametrize("minuses", [5000, 5001])
    @pytest.mark.parametrize("operand", ["q[1]", "q"])
    def test_long_minus_runs(self, minuses, operand):
        c = parse(HEADER + "qreg q[2]; ry(" + "-" * minuses + "1) " + operand + ";")
        sign = (-1) ** minuses
        assert [i.gate.params for i in c.gate_instructions()] == (
            [(sign * 1.0,)] * (1 if operand == "q[1]" else 2))

    def test_comments_and_whitespace_ignored(self):
        src = "// leading comment\nOPENQASM 2.0; // trailing\n\n qreg q[1];\nh q[0]; // done\n"
        assert parse(src).count_gates() == {"H": 1}

    def test_barrier_over_register_and_indexed(self):
        c = parse(HEADER + "qreg q[3]; barrier q; barrier q[1];")
        barriers = [i.qubits for i in c.instructions if i.kind == "barrier"]
        assert barriers == [(0, 1, 2), (1,)]


class TestRoundTrip:
    def test_random_circuits_survive(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            c = random_circuit(rng)
            assert parse(emit(c)) == c

    def test_handwritten_circuit_survives(self):
        c = Circuit(3, 3).u3(0.1, -2.5, np.pi, 0).ccx(0, 1, 2).barrier().measure_all()
        assert parse(emit(c)) == c

    def test_emit_is_a_fixed_point(self):
        c = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        assert emit(parse(emit(c))) == emit(c)


def expect_error(source, exc_type, line, column, fragment):
    with pytest.raises(exc_type) as info:
        parse(source)
    err = info.value
    assert (err.line, err.column) == (line, column), str(err)
    assert fragment in err.message
    return err


class TestDiagnostics:
    def test_error_str_carries_position(self):
        err = QasmParseError(3, 7, "unexpected ')'", expected="';'")
        assert str(err) == "line 3, column 7: unexpected ')' (expected ';')"
        assert isinstance(err, QasmError) and isinstance(err, ValueError)

    def test_missing_preamble(self):
        expect_error("qreg q[1];", QasmParseError, 1, 1, "unexpected")

    def test_unsupported_version(self):
        err = expect_error("OPENQASM 3.0;", QasmSemanticError, 1, 10, "unsupported version")
        assert err.expected == "2.0"

    def test_wrong_include(self):
        expect_error('OPENQASM 2.0;\ninclude "other.inc";', QasmSemanticError,
                     2, 9, "only qelib1.inc")

    def test_missing_semicolon(self):
        expect_error(HEADER + "qreg q[1]\nh q[0];", QasmParseError, 4, 1, "unexpected")

    def test_undeclared_register(self):
        expect_error(HEADER + "qreg q[1]; h r[0];", QasmSemanticError, 3, 14, "undeclared")

    def test_unknown_gate(self):
        expect_error(HEADER + "qreg q[1]; rz(1) q[0];", QasmSemanticError, 3, 12, "unsupported gate")

    def test_index_out_of_range(self):
        expect_error(HEADER + "qreg q[2]; x q[2];", QasmSemanticError, 3, 14, "out of range")

    def test_duplicate_register(self):
        expect_error(HEADER + "qreg q[1]; creg q[1];", QasmSemanticError, 3, 17, "already declared")

    def test_zero_size_register(self):
        expect_error(HEADER + "qreg q[0];", QasmSemanticError, 3, 8, "positive integer")

    def test_measure_size_mismatch(self):
        expect_error(HEADER + "qreg q[2]; creg c[1]; measure q -> c;",
                     QasmSemanticError, 3, 23, "sizes differ")

    def test_measure_mixed_indexing(self):
        expect_error(HEADER + "qreg q[1]; creg c[1]; measure q[0] -> c;",
                     QasmSemanticError, 3, 23, "both")

    def test_division_by_zero_points_at_operator(self):
        expect_error(HEADER + "qreg q[1]; ry(pi/0) q[0];", QasmSemanticError,
                     3, 17, "division by zero")

    def test_stray_character(self):
        expect_error(HEADER + "qreg q[1]; @", QasmParseError, 3, 12, "unexpected character")

    def test_non_ascii_digits_are_strays(self):
        # Arabic-Indic three and one: numbers are ASCII digits only
        err = expect_error(HEADER + "qreg q[\u0663]; h q[\u0661];", QasmParseError, 3, 8,
                           "unexpected character")
        assert err.message == "unexpected character '\u0663'"

    def test_wrong_parameter_count(self):
        expect_error(HEADER + "qreg q[1]; ry q[0];", QasmSemanticError, 3, 12, "1 parameter")
        expect_error(HEADER + "qreg q[1]; u2(1,2,3) q[0];", QasmSemanticError, 3, 12, "2 parameter")

    def test_multi_qubit_gate_requires_indices(self):
        expect_error(HEADER + "qreg q[2]; cx q,q;", QasmSemanticError, 3, 15, "indexed")

    def test_repeated_qubit_argument(self):
        expect_error(HEADER + "qreg q[2]; cx q[0],q[0];", QasmSemanticError, 3, 12, "repeated")

    @pytest.mark.parametrize("operands", ["q[0],q[0]", "q,q[1]"])
    def test_repeated_barrier_operand_is_rejected_at_the_keyword(self, operands):
        expect_error(HEADER + f"qreg q[2];\n  barrier {operands};", QasmSemanticError,
                     4, 3, "repeated qubit")

    def test_gate_after_measure(self):
        expect_error(HEADER + "qreg q[1]; creg c[1]; measure q[0] -> c[0]; h q[0];",
                     QasmSemanticError, 3, 45, "terminal")

    def test_program_without_qubits(self):
        # the trailing newline puts EOF at the start of line 3
        expect_error(HEADER, QasmSemanticError, 3, 1, "declares no qubits")

    def test_truncated_input(self):
        expect_error(HEADER + "qreg q[1]; ry(", QasmParseError, 3, 15, "unexpected")

    def test_oversized_quantum_register_is_rejected_at_its_size(self):
        err = expect_error(HEADER + "qreg q[30]; h q[0];", QasmSemanticError, 3, 8,
                           "at most 24")
        assert "30 qubits" in err.message

    def test_registers_past_the_qubit_limit_together(self):
        expect_error(HEADER + "qreg a[20];\nqreg b[5];", QasmSemanticError, 4, 8,
                     "qreg b[5] brings the program to 25 qubits")
        assert parse(HEADER + "qreg a[20]; qreg b[4];").num_qubits == 24

    @pytest.mark.parametrize("body, column, what", [
        ("qreg q[{}];", 8, "register size"),
        ("qreg q[1]; creg c[{}];", 19, "register size"),
        ("qreg q[1]; h q[{}];", 16, "index"),
    ], ids=["qreg", "creg", "index"])
    def test_integer_too_long_for_int_is_rejected_at_its_token(self, body, column, what):
        expect_error(HEADER + body.format("9" * 5000), QasmSemanticError, 3, column,
                     f"{what} has 5000 digits")

    def test_huge_registers_allocate_nothing(self):
        tracemalloc.start()
        try:
            for source, fragment in [
                ("qreg q[1000000000]; creg c[1000000000]; h q; measure q -> c;", "at most 24"),
                ("qreg q[2]; creg c[1000000000]; measure q -> c;", "2 qubits -> 1000000000 clbits"),
            ]:
                with pytest.raises(QasmSemanticError, match=fragment):
                    parse(HEADER + source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


# ---- pinned outcomes over generated programs -------------------------------

#: angle expressions of every form the grammar allows
ANGLES = ("pi", "-pi", "pi/2", "-3*pi/8", "2*pi/3", "--1", "- 2 * pi", "0.5", ".25", "5.",
          "1e-3", "2.5E+1", "007", "1.5e0/3", "-0.0", "pi*-2", "0")

#: statements the grammar, the semantics or the lexer reject
BAD_STATEMENTS = (
    "foo q[0];", "h q[7];", "cx q[0];", "u3(0.1) q[1];", "h q[0]", "ry(pi/0) q[0];",
    "ry(1/-0.0) q[0];", "h z[0];", "cx q[0],q[0];", "ccx q[0],q[1],q[1];", "qreg q[2];",
    "ry(1e) q[0];", "ry(1.2.3) q[0];", "ry(2pi) q[0];", "ry(pi2) q[0];", "u2(1,,2) q[0];",
    "h() q[0];", "hq[0];", "x q[1.];", "x q[1e1];", "x q[-1];", "ry(1)(2) q[0];",
    "cx q[0] q[1];", "cx q[0],,q[1];", "ry(pi//2) q[0];", "ry(-) q[0];", "h c[0];",
    "measure q[0] -> c;", "barrier z;", "ry(1) q[0]; @", "h q[0]; #", "x q[0]; é",
    "ry(1e400) q[0];", "u3(1e308*10,0,0) q[0];", "measure q[1] -> c[1]; h q[1];",
)


def random_source(rng: random.Random, statements: int) -> str:
    """A valid program over two quantum registers, with every gate spelling,
    angle expressions of every form, comments, tabs and statements that
    share a line."""
    qubits = [("q", i) for i in range(3)] + [("anc", i) for i in range(2)]
    arity = {"cx": 2, "swap": 2, "ccx": 3}
    params = {"ry": 1, "u1": 1, "u2": 2, "u3": 3}
    names = ("h", "x", "ry", "u1", "u2", "u3", "cx", "swap", "ccx")
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];", "qreg anc[2];", "creg c[5];"]
    for i in range(statements):
        name = rng.choice(names)
        args = rng.sample(qubits, arity.get(name, 1))
        angles = [rng.choice(ANGLES) for _ in range(params.get(name, 0))]
        text = name + ("(" + rng.choice([",", ", ", "\t,"]).join(angles) + ")" if angles else "")
        text += rng.choice([" ", "  ", "\t"])
        text += rng.choice([",", ", "]).join(f"{reg}[{k}]" for reg, k in args) + ";"
        if rng.random() < 0.1:
            text += " // note"
        if rng.random() < 0.2 and lines[-1].endswith(";"):
            lines[-1] += " " + text
        else:
            lines.append(text)
        if i % 17 == 16:
            lines.append(rng.choice(["barrier q;", "barrier q[0],anc[1];"]))
    lines += ["measure q[0] -> c[0];", "measure anc[1] -> c[4];"]
    return "\n".join(lines) + "\n"


def injected_source(seed: int) -> str:
    """A random program with one or two of BAD_STATEMENTS inserted."""
    rng = random.Random(1000 + seed)
    lines = random_source(rng, 30).split("\n")
    for _ in range(rng.choice((1, 1, 2))):
        lines.insert(rng.randrange(3, len(lines)), rng.choice(BAD_STATEMENTS))
    return "\n".join(lines)


def lone_bad_sources() -> list[str]:
    """Each of BAD_STATEMENTS alone, on line 9 of a valid program."""
    body = random_source(random.Random(7), 10).split("\n")
    return ["\n".join(body[:8] + [bad] + body[8:]) for bad in BAD_STATEMENTS]


VALID_SOURCES = [random_source(random.Random(seed), 120) for seed in range(8)]
INJECTED_SOURCES = [injected_source(seed) for seed in range(40)]
PINNED_SOURCES = VALID_SOURCES + INJECTED_SOURCES + lone_bad_sources()

#: SHA-256 of `outcome_text` over PINNED_SOURCES, one line each
OUTCOME_SHA256 = "5b82e13cdc148576bad17ee8e6adf751a77dc116b04176dda7eb04e259dc12b4"


def with_form_feeds(source: str) -> str:
    """The same program with every blank a form feed and every tab a vertical
    tab, which are whitespace too.  Every line and column stays where it was."""
    return source.replace(" ", "\f").replace("\t", "\v")


def outcome(source: str):
    try:
        return parse(source)
    except QasmError as err:
        return type(err), err.line, err.column, err.message, err.expected


def outcome_text(source: str) -> str:
    """The circuit, or the error's type, position, message and `expected`, as
    exact text: float reprs keep every bit and the sign of zero."""
    result = outcome(source)
    if isinstance(result, Circuit):
        return repr((result.num_qubits, result.num_clbits, result.instructions))
    return repr((result[0].__name__, *result[1:]))


class TestStatementFastPath:
    """Outcomes on generated programs: one-line gate statements with every
    angle form, comments, tabs, shared lines and injected bad statements.
    Every circuit and every error's type, position, message and `expected`
    is pinned by digest, and the same program spelled with form feeds and
    vertical tabs gives the same outcome."""

    def test_outcomes_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for source in PINNED_SOURCES:
            digest.update(outcome_text(source).encode() + b"\n")
        assert digest.hexdigest() == OUTCOME_SHA256

    @pytest.mark.parametrize("seed", range(8))
    def test_both_paths_give_equal_circuits(self, seed):
        source = VALID_SOURCES[seed]
        circuit = parse(source)
        assert len(circuit.gate_instructions()) == 120
        assert outcome_text(with_form_feeds(source)) == outcome_text(source)

    @pytest.mark.parametrize("seed", range(40))
    def test_both_paths_raise_the_same_error(self, seed):
        source = INJECTED_SOURCES[seed]
        result = outcome(source)
        assert not isinstance(result, Circuit), source
        assert outcome_text(with_form_feeds(source)) == outcome_text(source)

    def test_every_bad_statement_is_reported_alike(self):
        for source in lone_bad_sources():
            assert not isinstance(outcome(source), Circuit), source
            assert outcome_text(with_form_feeds(source)) == outcome_text(source), source

    def test_lexical_error_is_reported_before_an_earlier_semantic_error(self):
        source = HEADER + "qreg q[2];\nh q[0];\nh q[5];\ncx q[0],q[1];\nx q[1]; @\n"
        for text in (source, with_form_feeds(source)):
            expect_error(text, QasmParseError, 7, 9, "unexpected character '@'")

    def test_semantic_error_on_a_fast_statement_keeps_its_position(self):
        source = HEADER + "qreg q[2];\nh q[0];\n  cx q[1], q[1];\n"
        for text in (source, with_form_feeds(source)):
            expect_error(text, QasmSemanticError, 5, 3, "repeated qubit")

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_on_both_paths(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            c = random_circuit(rng, max_qubits=5, max_gates=30)
            assert parse(emit(c)) == c
            assert parse(with_form_feeds(emit(c))) == c


# ---- fuzzing the reader and the transpile command --------------------------

HUGE_LITERAL = "9" * 5000
ANGLE_TOKENS = ("pi", "-pi/2", "0.5", "1e-3", "2*pi", "0")
STRAY = st.one_of(
    st.sampled_from(("@", "#", "é", "\x00", ";", ",", "[", "]", "(", ")", "->", "-", "/",
                     '"', "//", "q", "c", "pi", "1.5", "24", "qreg", "measure")),
    st.text(max_size=2),
    st.just(HUGE_LITERAL),
)


@st.composite
def gate_statements(draw, n: int) -> list[str]:
    """One gate statement from the gate table's spelling, arity and parameter
    count, on distinct qubits of a register `q[n]`."""
    spec = GATES[draw(st.sampled_from(sorted(GATES)))]
    tokens = [spec.qasm]
    if spec.num_params:
        angles = draw(st.lists(st.sampled_from(ANGLE_TOKENS), min_size=spec.num_params,
                               max_size=spec.num_params))
        tokens += ["(", *" , ".join(angles).split(" "), ")"]
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=spec.arity,
                           max_size=spec.arity, unique=True))
    return tokens + " , ".join(f"q [ {q} ]" for q in qubits).split(" ") + [";"]


@st.composite
def mutated_programs(draw) -> str:
    """A small valid program from the gate table, then deleted, duplicated,
    inserted and replaced tokens."""
    n = draw(st.integers(3, 4))
    tokens = ["OPENQASM", "2.0", ";", "include", '"qelib1.inc"', ";",
              "qreg", "q", "[", str(n), "]", ";", "creg", "c", "[", str(n), "]", ";"]
    for _ in range(draw(st.integers(0, 6))):
        tokens += draw(gate_statements(n))
    if draw(st.booleans()):
        tokens += ["barrier", "q", ";", "measure", "q", "->", "c", ";"]
    for _ in range(draw(st.integers(0, 2))):
        action = draw(st.sampled_from(("delete", "duplicate", "insert", "replace")))
        i = draw(st.integers(0, len(tokens) - 1))
        if action == "delete":
            del tokens[i]
        elif action == "duplicate":
            tokens.insert(i, tokens[i])
        elif action == "insert":
            tokens.insert(i, draw(STRAY))
        else:
            tokens[i] = draw(STRAY)
    return " ".join(tokens)


@settings(max_examples=150, deadline=None)
@given(source=mutated_programs())
def test_mutated_programs_keep_the_error_and_exit_code_contract(source, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.qasm"
    path.write_text(source, encoding="utf-8")
    source = path.read_text(encoding="utf-8")  # the text the command reads
    try:
        assert isinstance(parse(source), Circuit)
        raised = False
    except QasmError:
        raised = True
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["transpile", str(path), "--device", "vigo"])
    assert code in (0, 2, 3)
    assert (code == 2) == raised, err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith("error:")
