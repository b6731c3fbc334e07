"""Basis-gate decomposition, qubit routing, and fidelity estimation.

Decomposition applies each gate's basis rewrite from `gates.GATES`.

Routing is greedy shortest-path SWAP insertion with no lookahead: when a
CNOT's endpoints are not adjacent on the coupling graph, SWAPs (each
emitted as 3 CNOTs) walk one endpoint along a BFS shortest path until the
pair touches.  The initial layout defaults to the identity with the
busiest logical qubit (highest 2-qubit-gate degree) placed on the
best-connected physical qubit.  A circuit wider than the graph, or a
layout that is not one-to-one onto physical qubits, raises `LayoutError`.

The passes keep what they compute for one call only: `route` its shortest
paths and SWAP networks, keyed by qubits, and `fuse_single_qubit_runs` its
gate matrices, keyed by gate object identity, since equal gates can differ
in the signs of their zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, Instruction, _index
from .gates import BASIS_GATES, GATES, GateDef, matrix_of
from .noise import CouplingGraph, DeviceModel
from .states import ALGEBRAIC_TOL


@dataclass(frozen=True)
class TranspiledCircuit:
    """Routing result: basis circuit on physical qubits plus bookkeeping.

    initial_layout[l] / final_layout[l] give the physical wire holding
    logical qubit l at the start / end of the circuit.
    """

    circuit: Circuit
    initial_layout: tuple[int, ...]
    final_layout: tuple[int, ...]
    swap_count: int


class LayoutError(CircuitError):
    """A circuit wider than the device, or an initial layout that does not
    place the logical qubits on distinct physical ones."""


_IDENTITY = np.eye(2, dtype=complex)


def decompose_to_basis(circuit: Circuit) -> Circuit:
    """Rewrite every gate over `BASIS_GATES`; measures/barriers pass through."""
    out = Circuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    for inst in circuit.instructions:
        if inst.kind != "gate":
            out.append(inst)
            continue
        rewrite = GATES[inst.gate.name].basis
        if rewrite is None:
            out._append_trusted(inst)
            continue
        for gate, targets in rewrite(inst.gate.params, inst.qubits):
            out._append_trusted(Instruction("gate", targets, gate))
    return out


def _two_qubit_degree(circuit: Circuit) -> list[int]:
    deg = [0] * circuit.num_qubits
    for inst in circuit.gate_instructions():
        if len(inst.qubits) >= 2:
            for q in inst.qubits:
                deg[q] += 1
    return deg


def default_layout(circuit: Circuit, graph: CouplingGraph) -> tuple[int, ...]:
    """Identity layout, adjusted so the busiest logical sits on the hub."""
    layout = list(range(graph.num_qubits))
    deg = _two_qubit_degree(circuit)
    hot = int(np.argmax(deg)) if any(deg) else 0
    hub = max(range(graph.num_qubits), key=lambda q: (graph.degree(q), -q))
    i, j = layout.index(hub), hot
    layout[i], layout[j] = layout[j], layout[i]
    return tuple(layout)


def route(
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
        raise LayoutError(
            f"{circuit.num_qubits}-qubit circuit cannot map onto "
            f"{graph.num_qubits} physical qubits"
        )

    num_physical = graph.num_qubits
    if initial_layout is None:
        layout = list(default_layout(circuit, graph))
    else:
        given = layout = [_index(p, LayoutError) for p in initial_layout]
        if len(given) == circuit.num_qubits < num_physical:
            layout = given + [p for p in range(num_physical) if p not in given]
        if sorted(layout) != list(range(num_physical)):
            raise LayoutError(
                f"layout {given} must permute physical qubits 0-{num_physical - 1}, or place "
                f"the {circuit.num_qubits} logical qubit(s) on distinct ones")

    l2p = list(layout)  # logical (possibly padded) -> physical
    p2l = [0] * num_physical  # its inverse
    for logical, physical in enumerate(l2p):
        p2l[physical] = logical
    out = Circuit(num_physical, circuit.num_clbits, circuit.name)
    append = out._append_trusted
    swap_network = GATES["SWAP"].basis
    # for this call: the shortest path between two physical qubits, and the
    # CNOT triple of a SWAP on an edge
    paths: dict[tuple[int, ...], list[int]] = {}
    swaps: dict[tuple[int, int], list[Instruction]] = {}
    swap_count = 0

    for inst in circuit.instructions:
        qubits = tuple(map(l2p.__getitem__, inst.qubits))
        if inst.kind != "gate":
            out.append(inst if qubits == inst.qubits
                       else Instruction(inst.kind, qubits, clbit=inst.clbit))
            continue
        if len(qubits) == 2 and not graph.has_edge(*qubits):
            path = paths.get(qubits)
            if path is None:
                path = paths[qubits] = graph.shortest_path(*qubits)
            for edge in zip(path[:-2], path[1:-1]):
                network = swaps.get(edge)
                if network is None:
                    network = swaps[edge] = [Instruction("gate", targets, gate)
                                             for gate, targets in swap_network((), edge)]
                for swap in network:
                    append(swap)
                swap_count += 1
                pa, pb = edge
                la, lb = p2l[pa], p2l[pb]
                l2p[la], l2p[lb] = pb, pa
                p2l[pa], p2l[pb] = lb, la
            qubits = (path[-2], path[-1])
        append(inst if qubits == inst.qubits else Instruction("gate", qubits, inst.gate))

    return TranspiledCircuit(
        circuit=out,
        initial_layout=tuple(layout),
        final_layout=tuple(l2p),
        swap_count=swap_count,
    )


def estimate_fidelity(transpiled, device: DeviceModel) -> tuple[float, float]:
    """(fidelity, error) of a basis circuit under `DeviceModel.gate_error`.

    fidelity = prod over gates of (1 - rate) * prod over measured qubits
    of (1 - readout error); error = 1 - fidelity.
    """
    circuit = transpiled.circuit if isinstance(transpiled, TranspiledCircuit) else transpiled
    fidelity = 1.0
    factors: dict[int, float] = {}  # arity -> 1 - rate
    for inst in circuit.gate_instructions():
        if inst.gate.name not in BASIS_GATES:
            raise CircuitError(
                f"fidelity model covers basis gates only; found {inst.gate.name}"
            )
        arity = len(inst.qubits)
        factor = factors.get(arity)
        if factor is None:
            factor = factors[arity] = 1.0 - device.gate_error(arity)
        fidelity *= factor
    for q in circuit.measured_qubits:
        fidelity *= 1.0 - device.readout_error_of(q)
    return fidelity, 1.0 - fidelity


def zyz_angles(matrix: np.ndarray) -> tuple[float, float, float]:
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


def fuse_single_qubit_runs(circuit: Circuit) -> Circuit:
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
        out._append_trusted(Instruction("gate", (q,), GateDef("U3", zyz_angles(m))))

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


def transpile(
    circuit: Circuit,
    device: DeviceModel,
    initial_layout: tuple[int, ...] | None = None,
    fuse: bool = False,
) -> TranspiledCircuit:
    """decompose -> (optional fuse) -> route onto the device's coupling graph."""
    basis = decompose_to_basis(circuit)
    if fuse:
        basis = fuse_single_qubit_runs(basis)
    return route(basis, device.graph, initial_layout)
