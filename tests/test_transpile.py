"""Decomposition, layout, routing, and fidelity bookkeeping."""

import itertools
import tracemalloc

import numpy as np
import pytest

from mzsim.circuit import Circuit, CircuitError, Instruction, unitary_of
from mzsim.gates import BASIS_GATES, GATES, GateDef, _u3_matrix, matrix_of, u3
from mzsim.noise import device_preset, ideal_device
from mzsim.qasm import emit, parse
from mzsim.states import ALGEBRAIC_TOL, equal_up_to_global_phase, index_of
from mzsim.transpile import (
    CouplingGraph,
    LayoutError,
    TranspiledCircuit,
    _zyz_stack,
    decompose_to_basis,
    default_layout,
    estimate_fidelity,
    fuse_single_qubit_runs,
    route,
    transpile,
    zyz_angles,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
T_GRAPH = CouplingGraph(5, frozenset({(0, 1), (1, 2), (1, 3), (3, 4)}))


def routed_equivalent(circuit, transpiled, tol=1e-9):
    """Check the routed unitary equals the original up to the recorded permutation."""
    n_log = circuit.num_qubits
    n_phys = transpiled.circuit.num_qubits
    u_log = unitary_of(circuit)
    u_phys = unitary_of(transpiled.circuit)
    initial, final = transpiled.initial_layout, transpiled.final_layout

    def phys_index(bits, layout):
        phys = [0] * n_phys
        for l, b in enumerate(bits):
            phys[layout[l]] = b
        return int("".join(map(str, phys)), 2)

    dim = 2**n_log
    v = np.empty((dim, dim), dtype=complex)
    for b in range(dim):
        in_bits = [int(x) for x in format(b, f"0{n_log}b")]
        col = u_phys[:, phys_index(in_bits, initial)]
        for c in range(dim):
            out_bits = [int(x) for x in format(c, f"0{n_log}b")]
            v[c, b] = col[phys_index(out_bits, final)]
    return equal_up_to_global_phase(v, u_log, tol=tol)


class TestCouplingGraph:
    def test_edges_normalized(self):
        g = CouplingGraph(3, frozenset({(1, 0), (2, 1)}))
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.neighbors(1) == [0, 2]
        assert g.degree(1) == 2

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            CouplingGraph(4, frozenset({(0, 1), (2, 3)}))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="bad edge"):
            CouplingGraph(2, frozenset({(0, 0)}))
        with pytest.raises(ValueError, match="bad edge"):
            CouplingGraph(2, frozenset({(0, 5)}))

    def test_shortest_path_endpoints(self):
        assert T_GRAPH.shortest_path(2, 2) == [2]
        assert T_GRAPH.shortest_path(0, 4) == [0, 1, 3, 4]
        assert T_GRAPH.shortest_path(4, 0) == [4, 3, 1, 0]

    def test_shortest_path_prefers_lower_index_on_ties(self):
        square = CouplingGraph(4, frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
        assert square.shortest_path(0, 3) == [0, 1, 3]

    def test_shortest_path_to_a_qubit_off_the_graph(self):
        with pytest.raises(ValueError, match="no path between 0 and 5"):
            T_GRAPH.shortest_path(0, 5)

    def test_device_graph(self):
        assert device_preset("vigo").graph.edges == T_GRAPH.edges
        assert device_preset("x2").graph.degree(2) == 4  # hourglass center


class TestDecompose:
    def test_output_uses_basis_gates_only(self):
        c = Circuit(3).h(0).x(1).ry(0.7, 2).swap(0, 1).ccx(0, 1, 2).cx(1, 2)
        d = decompose_to_basis(c)
        assert set(d.count_gates()) <= {"U1", "U2", "U3", "CNOT"}

    def test_preserves_unitary_per_gate(self):
        rng = np.random.default_rng(77)
        for name, spec in GATES.items():
            for _ in range(5):
                gate = GateDef(name, rng.uniform(-2 * np.pi, 2 * np.pi, spec.num_params))
                for targets in itertools.permutations(range(spec.arity)):
                    c = Circuit(spec.arity).gate(gate, *targets)
                    d = decompose_to_basis(c)
                    assert set(d.count_gates()) <= BASIS_GATES, c
                    assert equal_up_to_global_phase(unitary_of(d), unitary_of(c), tol=1e-12), \
                        (gate, targets)

    def test_ccx_costs_exactly_six_cnots(self):
        d = decompose_to_basis(Circuit(3).ccx(0, 1, 2))
        counts = d.count_gates()
        assert counts["CNOT"] == 6
        assert counts == {"CNOT": 6, "U1": 7, "U2": 2}

    def test_swap_costs_three_cnots(self):
        d = decompose_to_basis(Circuit(2).swap(0, 1))
        assert d.count_gates() == {"CNOT": 3}

    def test_measures_and_barriers_pass_through(self):
        c = Circuit(2, 2).h(0).barrier().measure_all()
        d = decompose_to_basis(c)
        kinds = [i.kind for i in d.instructions]
        assert kinds == ["gate", "barrier", "measure", "measure"]

    def test_basis_gates_untouched(self):
        c = Circuit(2).u3(0.1, 0.2, 0.3, 0).cx(0, 1).u1(0.5, 1)
        assert decompose_to_basis(c) == c


class TestDefaultLayout:
    def test_busiest_logical_lands_on_hub(self):
        c = Circuit(5).cx(0, 1).cx(0, 2)  # logical 0 touches two CNOTs
        layout = default_layout(c, T_GRAPH)
        assert layout[0] == 1  # physical 1 is the T hub (degree 3)
        assert sorted(layout) == [0, 1, 2, 3, 4]

    def test_gateless_circuit_keeps_low_indices(self):
        layout = default_layout(Circuit(5), T_GRAPH)
        assert sorted(layout) == [0, 1, 2, 3, 4]


class TestRoute:
    def test_adjacent_gates_need_no_swaps(self):
        c = Circuit(2, 2).u2(0.0, np.pi, 0).cx(0, 1).measure_all()
        r = route(c, T_GRAPH, initial_layout=(0, 1, 2, 3, 4))
        assert r.swap_count == 0
        assert r.initial_layout == r.final_layout == (0, 1, 2, 3, 4)

    def test_distant_cnot_inserts_swaps(self):
        c = Circuit(5).cx(0, 4)
        r = route(c, T_GRAPH, initial_layout=(0, 1, 2, 3, 4))
        assert r.swap_count == 2  # path 0-1-3-4 has two interior hops
        assert r.final_layout == (3, 0, 2, 1, 4)
        assert r.circuit.count_gates() == {"CNOT": 7}  # 2 swaps * 3 + the gate

    def test_swap_bookkeeping_matches_unitary(self):
        c = Circuit(5).cx(0, 4).u3(0.3, 0.1, -0.2, 0).cx(0, 2)
        r = route(c, T_GRAPH, initial_layout=(0, 1, 2, 3, 4))
        assert routed_equivalent(c, r)

    def test_partial_layout_is_padded(self):
        c = Circuit(2, 2).cx(0, 1).measure_all()
        r = route(c, T_GRAPH, initial_layout=(3, 4))
        assert r.initial_layout[:2] == (3, 4)
        assert sorted(r.initial_layout) == [0, 1, 2, 3, 4]
        assert r.swap_count == 0  # 3-4 is an edge

    def test_measures_follow_their_qubit(self):
        c = Circuit(2, 2).cx(0, 1).measure(0, 0).measure(1, 1)
        r = route(c, T_GRAPH, initial_layout=(3, 4))
        measures = [(i.qubits[0], i.clbit) for i in r.circuit.instructions if i.kind == "measure"]
        assert measures == [(3, 0), (4, 1)]

    def test_swap_through_a_measured_qubit_is_rejected(self):
        # 0 and 2 meet only through the hub 1, which is already measured
        c = Circuit(5, 1).measure(1, 0).cx(0, 2)
        with pytest.raises(CircuitError) as refused:
            route(c, T_GRAPH, initial_layout=(0, 1, 2, 3, 4))
        assert str(refused.value) == ("cannot route the CNOT on logical qubits (0, 2): its SWAPs "
                                      "cross physical qubit 1, which is already measured")

    def test_rejects_non_basis_circuit(self):
        with pytest.raises(CircuitError, match="basis-decomposed"):
            route(Circuit(2).h(0), T_GRAPH)

    def test_rejects_oversized_circuit(self):
        with pytest.raises(CircuitError, match="cannot map"):
            route(Circuit(6).cx(0, 5), T_GRAPH)

    @pytest.mark.parametrize("layout", [(0, 1.5), (True, 0), ("0", 1)])
    def test_layout_entries_must_be_integers(self, layout):
        with pytest.raises(LayoutError, match="expected an integer index"):
            route(Circuit(2).cx(0, 1), T_GRAPH, initial_layout=layout)

    def test_rejects_non_permutation_layout(self):
        with pytest.raises(CircuitError, match="permute"):
            route(Circuit(2).cx(0, 1), T_GRAPH, initial_layout=(0, 0, 1, 2, 3))

    def test_random_circuits_preserved(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            c = Circuit(3)
            for _ in range(int(rng.integers(2, 8))):
                if rng.random() < 0.5:
                    c.u3(*rng.uniform(-np.pi, np.pi, 3), int(rng.integers(3)))
                else:
                    a, b = map(int, rng.permutation(3)[:2])
                    c.cx(a, b)
            r = route(c, T_GRAPH)
            assert routed_equivalent(c, r)


class TestZyzAngles:
    def test_roundtrip_generic(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            t, p, l = rng.uniform(-np.pi, np.pi, 3)
            m = matrix_of(u3(t, p, l))
            angles = zyz_angles(m)
            assert equal_up_to_global_phase(matrix_of(u3(*angles)), m, tol=1e-10)

    def test_diagonal_and_antidiagonal_branches(self):
        diag = np.diag([1.0, np.exp(0.7j)])
        assert equal_up_to_global_phase(matrix_of(u3(*zyz_angles(diag))), diag, tol=1e-10)
        anti = np.array([[0, -1j], [1j, 0]])  # Pauli Y
        assert equal_up_to_global_phase(matrix_of(u3(*zyz_angles(anti))), anti, tol=1e-10)

    def test_shape_check(self):
        with pytest.raises(ValueError, match="2x2"):
            zyz_angles(np.eye(4))


class TestFuse:
    def test_inverse_pair_cancels(self):
        c = Circuit(1).u2(0.0, np.pi, 0).u2(0.0, np.pi, 0)  # H H = I
        fused = fuse_single_qubit_runs(c)
        assert fused.count_gates() == {}

    def test_run_collapses_to_one_u3(self):
        c = Circuit(2).u2(0.0, np.pi, 0).u1(0.3, 0).u3(0.5, 0.1, 0.2, 0).cx(0, 1)
        fused = fuse_single_qubit_runs(c)
        assert fused.count_gates() == {"U3": 1, "CNOT": 1}
        assert equal_up_to_global_phase(unitary_of(fused), unitary_of(c), tol=1e-10)

    def test_cx_breaks_runs(self):
        c = Circuit(2).u1(0.4, 0).cx(0, 1).u1(0.4, 0)
        fused = fuse_single_qubit_runs(c)
        assert fused.count_gates()["U3"] == 2

    def test_trailing_run_flushed(self):
        c = Circuit(1).u1(0.2, 0).u1(0.3, 0)
        fused = fuse_single_qubit_runs(c)
        assert fused.count_gates() == {"U3": 1}
        assert equal_up_to_global_phase(unitary_of(fused), unitary_of(c), tol=1e-10)

    def test_rejects_non_basis(self):
        with pytest.raises(CircuitError, match="basis"):
            fuse_single_qubit_runs(Circuit(1).h(0))

    def test_signed_zeros_fuse_as_pinned(self):
        # u1(0) and u1(-0) are equal gates with equal matrices; the output's
        # signs of zeros come from the products, and stay as they were
        source = (HEADER + "qreg q[2];\n"
                  "u1(-0) q[0];\nu1(0) q[0];\nu1(0) q[1];\nu3(0.5,-0,0) q[1];\n"
                  "cx q[0],q[1];\nu1(-0) q[0];\nu2(0,pi) q[0];\nu1(0) q[1];\nu1(-0) q[1];\n"
                  "u3(-0,0,-0) q[1];\ncx q[1],q[0];\nu2(-0,pi) q[0];\nu1(-0) q[0];\n")
        expected = (HEADER + "qreg q[2];\n"
                    "u3(0.5,0,-0) q[1];\ncx q[0],q[1];\n"
                    "u3(1.5707963267948966,0,3.1415926535897931) q[0];\ncx q[1],q[0];\n"
                    "u3(1.5707963267948966,0,3.1415926535897931) q[0];\n")
        assert emit(fuse_single_qubit_runs(parse(source))) == expected
        # every -0 written as 0 gives the same bytes
        assert emit(fuse_single_qubit_runs(parse(source.replace("-0", "0")))) == expected


class TestFidelity:
    def test_flat_product_model(self):
        vigo = device_preset("vigo")
        c = Circuit(2, 2).cx(0, 1).measure_all()
        fidelity, error = estimate_fidelity(route(c, T_GRAPH, (0, 1, 2, 3, 4)), vigo)
        expected = (1 - vigo.cnot_error) * (1 - vigo.readout_error_of(0)) ** 2
        assert fidelity == pytest.approx(expected, abs=1e-15)
        assert error == pytest.approx(0.043272148491999896, abs=1e-12)

    def test_plain_circuit_accepted(self):
        dev = ideal_device(2)
        c = Circuit(2).cx(0, 1)
        fidelity, error = estimate_fidelity(c, dev)
        assert (fidelity, error) == (1.0, 0.0)

    def test_rejects_non_basis_gates(self):
        with pytest.raises(CircuitError, match="basis"):
            estimate_fidelity(Circuit(1).h(0), device_preset("vigo"))


class TestTranspilePipeline:
    def test_end_to_end_on_device(self):
        c = Circuit(2, 2).h(0).cx(0, 1).h(1).h(0).measure_all()
        r = transpile(c, device_preset("vigo"))
        assert set(r.circuit.count_gates()) <= {"U1", "U2", "U3", "CNOT"}
        _, error = estimate_fidelity(r, device_preset("vigo"))
        assert error == pytest.approx(0.0463399599942218, abs=1e-12)

    def test_preserves_semantics_through_full_stack(self):
        c = Circuit(3).h(0).ccx(0, 1, 2).swap(1, 2)
        r = transpile(c, device_preset("vigo"))
        assert routed_equivalent(c, r)

    def test_fuse_flag_shrinks_gate_count(self):
        c = Circuit(1).h(0).h(0)
        dev = ideal_device(1, coupling=())
        assert transpile(c, dev).circuit.count_gates() == {"U2": 2}
        assert transpile(c, dev, fuse=True).circuit.count_gates() == {}

    def test_explicit_layout_respected(self):
        c = Circuit(2).cx(0, 1)
        r = transpile(c, device_preset("vigo"), initial_layout=(1, 3))
        assert r.initial_layout[:2] == (1, 3)
        assert r.swap_count == 0


def test_x2_center_routing():
    # on the hourglass, everything is at most two hops via the center
    g = device_preset("x2").graph
    c = Circuit(5).cx(0, 4)
    r = route(c, g, initial_layout=(0, 1, 2, 3, 4))
    assert r.swap_count == 1
    assert routed_equivalent(c, r)


def test_single_qubit_circuit_on_one_qubit_device():
    dev = ideal_device(1, coupling=())
    r = transpile(Circuit(1).x(0), dev)
    assert r.circuit.count_gates() == {"U3": 1}
    assert abs(unitary_of(r.circuit)[index_of("1"), 0]) == pytest.approx(1.0)


# ---- routing against the previous implementation ----------------------------

# `route` as it was before its inverse layout map and per-call path and SWAP
# memos, copied verbatim; the current one must give the same circuits.
def _reference_route(
    circuit: Circuit,
    graph: CouplingGraph,
    initial_layout: tuple[int, ...] | None = None,
) -> TranspiledCircuit:
    """Map a basis circuit onto the coupling graph, inserting SWAPs as CNOT triples."""
    for inst in circuit.gate_instructions():
        if inst.gate.name not in BASIS_GATES:
            raise CircuitError(
                f"route expects a basis-decomposed circuit; found {inst.gate.name}"
            )
    if circuit.num_qubits > graph.num_qubits:
        raise CircuitError(
            f"{circuit.num_qubits}-qubit circuit cannot map onto "
            f"{graph.num_qubits} physical qubits"
        )

    if initial_layout is None:
        layout = list(default_layout(circuit, graph))
    else:
        layout = [int(p) for p in initial_layout]
        if len(layout) == circuit.num_qubits < graph.num_qubits:
            rest = [p for p in range(graph.num_qubits) if p not in layout]
            layout += rest
        if sorted(layout) != list(range(graph.num_qubits)):
            raise CircuitError(f"layout must permute physical qubits: {layout}")

    l2p = list(layout)  # logical (possibly padded) -> physical
    out = Circuit(graph.num_qubits, circuit.num_clbits, circuit.name)
    append, trusted = out._append_trusted, Instruction
    swap_network = GATES["SWAP"].basis
    swap_count = 0

    for inst in circuit.instructions:
        qubits = tuple(map(l2p.__getitem__, inst.qubits))
        if inst.kind == "barrier":
            out.barrier(*qubits)
        elif inst.kind == "measure":
            out.measure(qubits[0], inst.clbit)
        else:
            if len(qubits) == 2 and not graph.has_edge(*qubits):
                path = graph.shortest_path(*qubits)
                for pa, pb in zip(path[:-2], path[1:-1]):
                    for gate, targets in swap_network((), (pa, pb)):
                        append(trusted("gate", targets, gate))
                    swap_count += 1
                    la, lb = l2p.index(pa), l2p.index(pb)
                    l2p[la], l2p[lb] = l2p[lb], l2p[la]
                qubits = (path[-2], path[-1])
            append(trusted("gate", qubits, inst.gate))

    return TranspiledCircuit(
        circuit=out,
        initial_layout=tuple(layout),
        final_layout=tuple(l2p),
        swap_count=swap_count,
    )


RING_5 = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
LINE_6 = CouplingGraph(6, frozenset({(i, i + 1) for i in range(5)}))


def random_basis_circuit(rng, num_qubits: int, gates: int) -> Circuit:
    """U1/U2/U3 and CNOTs between any two qubits, barriers, and measures: some
    at the end, and some early, which can leave later gates unroutable."""
    c = Circuit(num_qubits, num_qubits)
    for _ in range(gates):
        live = [q for q in range(num_qubits) if q not in c.measured_qubits]
        if len(live) < 2:
            break
        roll = rng.random()
        if roll < 0.45:
            a, b = map(int, rng.choice(live, 2, replace=False))
            c.cx(a, b)
        elif roll < 0.9:
            k = int(rng.integers(1, 4))  # U1, U2 or U3
            (c.u1, c.u2, c.u3)[k - 1](*rng.uniform(-np.pi, np.pi, k), int(rng.choice(live)))
        elif roll < 0.95:
            c.barrier(*sorted(map(int, rng.choice(live, 2, replace=False))))
        elif roll < 0.97:
            q = int(rng.choice(live))
            c.measure(q, q)
    for q in range(num_qubits):
        if q not in c.measured_qubits:
            c.measure(q, q)
    return c


def route_outcome(route_fn, circuit, graph, layout):
    try:
        r = route_fn(circuit, graph, layout)
    except CircuitError as exc:
        return type(exc), str(exc)
    return (r.circuit.instructions, r.circuit.num_qubits, r.initial_layout,
            r.final_layout, r.swap_count)


def reference_outcome(circuit, graph, layout):
    """The reference's outcome, but in `route`'s words where a CNOT's SWAP path
    crosses a measured qubit: the reference fails there on the SWAP's first gate."""
    expected = route_outcome(_reference_route, circuit, graph, layout)
    if len(expected) == 5 or not expected[1].startswith("gate on already-measured"):
        return expected
    layout = default_layout(circuit, graph) if layout is None else layout
    done = Circuit(circuit.num_qubits, circuit.num_clbits)
    for inst in circuit.instructions:  # replay up to the instruction the reference fails on
        try:
            _reference_route(done.copy().append(inst), graph, layout)
        except CircuitError:
            break
        done.append(inst)
    before = _reference_route(done, graph, layout)
    measured = set(before.circuit.measured_qubits)
    a, b = (before.final_layout[q] for q in inst.qubits)
    path = [] if graph.has_edge(a, b) else graph.shortest_path(a, b)
    for edge in zip(path[:-2], path[1:-1]):
        if measured.intersection(edge):
            return CircuitError, (f"cannot route the CNOT on logical qubits {inst.qubits}: its "
                                  f"SWAPs cross physical qubit {min(measured.intersection(edge))}, "
                                  f"which is already measured")
    return expected


@pytest.mark.parametrize("graph", [T_GRAPH, device_preset("x2").graph, LINE_6, RING_5],
                         ids=["T", "x2", "line-6", "ring-5"])
def test_route_matches_the_reference(graph):
    rng = np.random.default_rng(2024)
    n_phys = graph.num_qubits
    routed = unroutable = 0
    for _ in range(60):
        n = int(rng.integers(2, n_phys + 1))
        c = random_basis_circuit(rng, n, int(rng.integers(5, 60)))
        layouts = [None, tuple(map(int, rng.permutation(n_phys)))]
        if n < n_phys:
            layouts.append(tuple(map(int, rng.choice(n_phys, n, replace=False))))
        for layout in layouts:
            expected = reference_outcome(c, graph, layout)
            assert route_outcome(route, c, graph, layout) == expected
            if len(expected) == 5:
                routed += 1
            else:
                unroutable += 1
    assert routed > 100 and unroutable > 0


# ---- fusion against the previous implementation -----------------------------

_IDENTITY = np.eye(2, dtype=complex)


# `_u3_matrix`, `zyz_angles` and `fuse_single_qubit_runs` as they were before
# fusion ran on stacks, copied verbatim; the current ones must give the same
# bits.
def _reference_u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _reference_zyz_angles(matrix: np.ndarray) -> tuple[float, float, float]:
    """(theta, phi, lam) with U3(theta, phi, lam) == matrix up to global phase."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"need a 2x2 matrix, got {m.shape}")
    theta = 2.0 * np.arctan2(abs(m[1, 0]), abs(m[0, 0]))
    if abs(m[1, 0]) < ALGEBRAIC_TOL:  # diagonal: only phi+lam is defined
        phi = 0.0
        lam = float(np.angle(m[1, 1]) - np.angle(m[0, 0]))
    elif abs(m[0, 0]) < ALGEBRAIC_TOL:  # antidiagonal: only phi-lam is defined
        lam = 0.0
        phi = float(np.angle(m[1, 0]) - np.angle(-m[0, 1]))
    else:
        phi = float(np.angle(m[1, 0]) - np.angle(m[0, 0]))
        lam = float(np.angle(-m[0, 1]) - np.angle(m[0, 0]))
    return float(theta), phi, lam


def _reference_fuse(circuit: Circuit) -> Circuit:
    """Optional pass: merge adjacent single-qubit basis gates into one U3.

    Off the default path; useful to shorten long U1/U2/U3 chains before
    fidelity estimation.
    """
    out = Circuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    pending: dict[int, np.ndarray] = {}
    # each gate object's matrix, for this call; keyed by identity, since
    # equal gates can differ in the signs of their zeros (u1(0), u1(-0))
    matrices: dict[int, np.ndarray] = {}

    def flush(q: int):
        m = pending.pop(q, None)
        if m is None:
            return
        if abs(m - _IDENTITY).max() < ALGEBRAIC_TOL:
            return  # run collapsed to identity
        out._append_trusted(Instruction("gate", (q,), GateDef("U3", _reference_zyz_angles(m))))

    for inst in circuit.instructions:
        if inst.kind == "gate" and len(inst.qubits) == 1:
            gate = inst.gate
            if gate.name not in BASIS_GATES:
                raise CircuitError(f"fuse pass expects basis gates, found {gate.name}")
            m = matrices.get(id(gate))
            if m is None:
                m = matrices[id(gate)] = matrix_of(gate)
            q = inst.qubits[0]
            # keep the product with the identity: it fixes the signs of zeros
            pending[q] = m @ pending.get(q, _IDENTITY)
        else:
            for q in inst.qubits:
                flush(q)
            if inst.kind == "gate":
                out._append_trusted(inst)
            else:
                out.append(inst)
    for q in sorted(pending):
        flush(q)
    return out


#: angles whose signs of zeros and axes the fused bits depend on
SPECIAL_ANGLES = (0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2)


def _angle(rng) -> float:
    if rng.random() < 0.4:
        return float(SPECIAL_ANGLES[int(rng.integers(len(SPECIAL_ANGLES)))])
    return float(rng.uniform(-np.pi, np.pi))


def random_fuse_circuit(rng, num_qubits: int, steps: int) -> Circuit:
    """U1/U2/U3 gates at special and random angles, and runs built to
    collapse to the identity (a gate, then its inverse), to be diagonal (U1
    only) or antidiagonal (U3 with theta = pi), some ended at once by a
    barrier; CNOTs, barriers and early measures; gate objects used more than
    once; and, rarely, a gate outside the basis."""
    c = Circuit(num_qubits, num_qubits)
    pool = [GateDef("U1", (-0.0,)), GateDef("U1", (0.0,)), GateDef("U2", (0.0, np.pi))]
    for _ in range(steps):
        live = [q for q in range(num_qubits) if q not in c.measured_qubits]
        if not live:
            break
        q = int(rng.choice(live))
        roll = rng.random()
        if roll < 0.12:
            if rng.random() < 0.5:
                a = _angle(rng)
                c.u1(a, q).u1(-a, q)
            else:
                t, p, lam = (_angle(rng) for _ in range(3))
                c.u3(t, p, lam, q).u3(-t, -lam, -p, q)
            if rng.random() < 0.5:
                c.barrier(q)
        elif roll < 0.22:
            c.u1(_angle(rng), q)
        elif roll < 0.3:
            c.u3(np.pi, _angle(rng), _angle(rng), q)
        elif roll < 0.38:
            c.gate(pool[int(rng.integers(len(pool)))], q)
        elif roll < 0.62:
            k = int(rng.integers(1, 4))  # U1, U2 or U3
            (c.u1, c.u2, c.u3)[k - 1](*(_angle(rng) for _ in range(k)), q)
        elif roll < 0.8 and len(live) >= 2:
            a, b = map(int, rng.choice(live, 2, replace=False))
            c.cx(a, b)
        elif roll < 0.9:
            width = int(rng.integers(1, len(live) + 1))
            c.barrier(*sorted(map(int, rng.choice(live, width, replace=False))))
        elif roll < 0.95:
            c.measure(q, q)
        elif roll < 0.953:
            c.gate((GateDef("H"), GateDef("X"), GateDef("RY", (0.5,)))[int(rng.integers(3))], q)
    return c


def _run_count(circuit: Circuit) -> int:
    runs, open_qubits = 0, set()
    for inst in circuit.instructions:
        if inst.kind == "gate" and len(inst.qubits) == 1:
            runs += inst.qubits[0] not in open_qubits
            open_qubits.add(inst.qubits[0])
        else:
            open_qubits.difference_update(inst.qubits)
    return runs


def fuse_outcome(fuse_fn, circuit):
    try:
        out = fuse_fn(circuit)
    except CircuitError as exc:
        return type(exc), str(exc)
    return emit(out), sorted(out.measured_qubits)


def test_fuse_matches_the_reference_byte_for_byte():
    rng = np.random.default_rng(2025)
    refused = collapsed = diagonal = antidiagonal = 0
    for _ in range(2400):
        c = random_fuse_circuit(rng, int(rng.integers(1, 7)), int(rng.integers(1, 40)))
        expected = fuse_outcome(_reference_fuse, c)
        assert fuse_outcome(fuse_single_qubit_runs, c) == expected
        if isinstance(expected[0], type):
            refused += 1
            continue
        text = expected[0]
        collapsed += _run_count(c) - text.count("\nu3(")
        diagonal += text.count("\nu3(0,0,")
        antidiagonal += text.count(",0) q[") - text.count("\nu3(0,0,0) q[")
    assert refused > 20 and collapsed > 200 and diagonal > 200 and antidiagonal > 200


def test_one_long_run_beside_many_short_runs_matches_the_reference():
    """A skewed mix of run lengths; the pass's memory must grow with the
    gate count, not with the longest run times the number of runs."""
    rng = np.random.default_rng(11)
    c = Circuit(3)
    for _ in range(3000):
        c.u3(*(_angle(rng) for _ in range(3)), 0)
    for i in range(1500):
        c.u1(_angle(rng), 1 + i % 2).barrier(1 + i % 2)
    c.u1(-0.0, 2)
    assert fuse_outcome(fuse_single_qubit_runs, c) == fuse_outcome(_reference_fuse, c)
    tracemalloc.start()
    try:
        fuse_single_qubit_runs(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # about 2 MB; a dense steps-by-runs table takes over 70 MB


def test_fuse_refuses_a_non_basis_gate_as_the_reference_does():
    c = Circuit(2).u1(0.3, 0).cx(0, 1).ry(0.5, 1).h(0)
    with pytest.raises(CircuitError) as new:
        fuse_single_qubit_runs(c)
    with pytest.raises(CircuitError) as old:
        _reference_fuse(c)
    assert str(new.value) == str(old.value) == "fuse pass expects basis gates, found RY"


# ---- the vector pieces, bit for bit ------------------------------------------

def _bits(a) -> np.ndarray:
    """An array's raw 64-bit words, so the sign of zero counts."""
    return np.ascontiguousarray(a).view(np.uint64)


def test_stacked_products_equal_pairwise_products():
    rng = np.random.default_rng(7)
    a = _u3_matrix(*rng.uniform(-np.pi, np.pi, (3, 20000)))
    b = _u3_matrix(*rng.uniform(-np.pi, np.pi, (3, 20000)))
    pairwise = np.array([x @ y for x, y in zip(a, b)])
    assert np.array_equal(_bits(a @ b), _bits(pairwise))


def test_vector_zyz_equals_the_scalar_formula():
    rng = np.random.default_rng(8)

    def angles(n):
        special = np.array(SPECIAL_ANGLES)[rng.integers(len(SPECIAL_ANGLES), size=n)]
        return np.where(rng.random(n) < 0.4, special, rng.uniform(-np.pi, np.pi, n))

    n = 8500
    generic = _u3_matrix(angles(n), angles(n), angles(n)) @ _u3_matrix(angles(n), angles(n), angles(n))
    diagonal = _u3_matrix(0.0, 0.0, angles(n)) @ _u3_matrix(0.0, 0.0, angles(n))
    antidiagonal = _u3_matrix(np.pi, angles(n), angles(n)) @ _u3_matrix(0.0, 0.0, angles(n))
    identity = _u3_matrix(0.0, 0.0, angles(n)) @ np.eye(2, dtype=complex)
    runs = np.concatenate([generic, diagonal, antidiagonal, identity])
    expected = np.array([_reference_zyz_angles(m) for m in runs])
    assert np.array_equal(_bits(np.stack(_zyz_stack(runs), axis=1)), _bits(expected))
    assert np.array_equal(_bits(np.array([zyz_angles(m) for m in runs[::17]])),
                          _bits(expected[::17]))
    small = lambda z: np.hypot(z.real, z.imag) < ALGEBRAIC_TOL  # noqa: E731
    on_diagonal = small(runs[:, 1, 0])
    on_antidiagonal = ~on_diagonal & small(runs[:, 0, 0])
    assert len(runs) == 34000
    assert on_diagonal.sum() > 10000 and on_antidiagonal.sum() > 5000
    assert (~on_diagonal & ~on_antidiagonal).sum() > 5000


#: each basis gate's angles as U3 angles, as `gates.GATES` spells them
_AS_U3 = {
    "U1": lambda lam: (0.0, 0.0, lam),
    "U2": lambda phi, lam: (np.pi / 2, phi, lam),
    "U3": lambda theta, phi, lam: (theta, phi, lam),
}


@pytest.mark.parametrize("name", ["U1", "U2", "U3"])
def test_broadcast_matrices_equal_scalar_calls(name):
    rng = np.random.default_rng(9)
    k = GATES[name].num_params
    rows = list(itertools.product((0.0, -0.0, np.pi, -np.pi), repeat=k))
    rows += [tuple(row) for row in rng.uniform(-2 * np.pi, 2 * np.pi, (500, k)).tolist()]
    stacked = GATES[name].matrix(*np.array(rows).T)
    scalar = np.array([GATES[name].matrix(*row) for row in rows])
    reference = np.array([_reference_u3_matrix(*_AS_U3[name](*row)) for row in rows])
    assert stacked.shape == (len(rows), 2, 2)
    assert np.array_equal(_bits(stacked), _bits(reference))
    assert np.array_equal(_bits(scalar), _bits(reference))
    assert _u3_matrix(np.zeros((3, 1)), 0.0, np.zeros(4)).shape == (3, 4, 2, 2)
