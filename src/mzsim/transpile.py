"""Basis-gate decomposition, qubit routing, and fidelity estimation.

Decomposition applies each gate's basis rewrite from `gates.GATES`.

Routing is greedy shortest-path SWAP insertion with no lookahead: when a
CNOT's endpoints are not adjacent on the coupling graph, SWAPs (each
emitted as 3 CNOTs) walk one endpoint along a BFS shortest path until the
pair touches.  The initial layout defaults to the identity with the
busiest logical qubit (highest 2-qubit-gate degree) placed on the
best-connected physical qubit.  A circuit wider than the graph, or a
layout that is not one-to-one onto physical qubits, raises `LayoutError`.
A SWAP path that crosses an already-measured physical qubit raises
`CircuitError`, naming the CNOT being routed, before that SWAP is appended.

Fusion runs in two phases.  The first walks the instructions once: it
gives each distinct gate object a row of a matrix stack and records each
run of single-qubit gates as rows, closing a run at a multi-qubit gate,
measure or barrier on its qubit, and at the end in qubit order.  The second
builds all the matrices with one call per gate name, multiplies step k of
every run still open as one stacked product, and takes one vector identity
test and one vector ZYZ decomposition (Nielsen & Chuang, Thm 4.1) of the
products.  The output bits are those of a gate-by-gate product: the stack
starts from the identity, a run that has ended is not multiplied again,
and magnitudes and angles are computed as the scalar `zyz_angles` computes
them.

The passes keep what they compute for one call only: `route` its shortest
paths and SWAP networks, keyed by qubits, and `fuse_single_qubit_runs` its
gate matrices, keyed by gate object identity, since equal gates can differ
in the signs of their zeros (`u1(0)` and `u1(-0)` print differently).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, Instruction, _index
from .gates import BASIS_GATES, GATES, GateDef
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
    measured = out._measured  # the physical qubits measured so far

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
                if measured and not measured.isdisjoint(edge):
                    raise CircuitError(
                        f"cannot route the CNOT on logical qubits {inst.qubits}: its SWAPs cross "
                        f"physical qubit {min(measured.intersection(edge))}, which is already "
                        f"measured")
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


def _zyz_stack(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`zyz_angles` of every matrix in an (n, 2, 2) stack, as three arrays.

    Magnitudes are `np.hypot` of the parts and angles `np.angle`, which give
    the bits of the scalar `abs` and `np.angle`; `np.abs` of a complex array
    does not.
    """
    m00, m01, m10, m11 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    r00, r10 = np.hypot(m00.real, m00.imag), np.hypot(m10.real, m10.imag)
    theta = 2.0 * np.arctan2(r10, r00)
    diagonal = r10 < ALGEBRAIC_TOL  # only phi+lam is defined
    antidiagonal = ~diagonal & (r00 < ALGEBRAIC_TOL)  # only phi-lam is defined
    a00, a10, a11, a01 = np.angle(m00), np.angle(m10), np.angle(m11), np.angle(-m01)
    phi = np.where(diagonal, 0.0, np.where(antidiagonal, a10 - a01, a10 - a00))
    lam = np.where(diagonal, a11 - a00, np.where(antidiagonal, 0.0, a01 - a00))
    return theta, phi, lam


def zyz_angles(matrix: np.ndarray) -> tuple[float, float, float]:
    """(theta, phi, lam) with U3(theta, phi, lam) == matrix up to global phase."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"need a 2x2 matrix, got {m.shape}")
    theta, phi, lam = _zyz_stack(m[np.newaxis])
    return float(theta[0]), float(phi[0]), float(lam[0])


def fuse_single_qubit_runs(circuit: Circuit) -> Circuit:
    """Optional pass: merge adjacent single-qubit basis gates into one U3.

    Off the default path; useful to shorten long U1/U2/U3 chains before
    fidelity estimation.
    """
    # phase 1, one walk: each distinct gate object gets a row of the matrix
    # stack, each run is the rows of its gates, and `items` is the output in
    # order, with None where a run's U3 goes
    rows: dict[int, int] = {}  # id(gate) -> row
    gates: list[GateDef] = []
    open_runs: dict[int, list[int]] = {}  # qubit -> its run so far
    runs: list[tuple[int, int, list[int]]] = []  # (place in items, qubit, rows)
    items: list[Instruction | None] = []

    def close(q: int):
        run = open_runs.pop(q, None)
        if run is not None:
            runs.append((len(items), q, run))
            items.append(None)

    for inst in circuit.instructions:
        if inst.kind == "gate" and len(inst.qubits) == 1:
            gate = inst.gate
            row = rows.get(id(gate))
            if row is None:
                if gate.name not in BASIS_GATES:
                    raise CircuitError(f"fuse pass expects basis gates, found {gate.name}")
                row = rows[id(gate)] = len(gates)
                gates.append(gate)
            run = open_runs.get(inst.qubits[0])
            if run is None:
                open_runs[inst.qubits[0]] = [row]
            else:
                run.append(row)
        else:
            for q in inst.qubits:
                close(q)
            items.append(inst)
    for q in sorted(open_runs):
        close(q)

    if runs:
        _place_fused_runs(items, runs, gates)
    out = Circuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    for inst in items:
        if inst is None:
            continue
        if inst.kind == "gate":
            out._append_trusted(inst)
        else:
            out.append(inst)
    return out


def _place_fused_runs(
    items: list[Instruction | None],
    runs: list[tuple[int, int, list[int]]],
    gates: list[GateDef],
):
    """Phase 2 of `fuse_single_qubit_runs`: put each run's U3 at its place
    in `items`, or leave None there if the run collapses to the identity."""
    # every gate's matrix, one call per gate name
    matrices = np.empty((len(gates), 2, 2), dtype=complex)
    by_name: dict[str, list[int]] = {}
    for row, gate in enumerate(gates):
        by_name.setdefault(gate.name, []).append(row)
    for name, named in by_name.items():
        columns = np.array([gates[row].params for row in named]).T
        matrices[named] = GATES[name].matrix(*columns)
    # longest runs first, so the runs still open at step k are a prefix; a
    # run that has ended is not multiplied again, since an identity step can
    # change the signs of a product's zeros.  The runs' rows lie end to end
    # in `flat`, so step k of the open runs is `flat[starts[:active] + k]`
    runs = sorted(runs, key=lambda run: -len(run[2]))
    lengths = [len(run[2]) for run in runs]
    flat = np.fromiter(itertools.chain.from_iterable(run[2] for run in runs),
                       dtype=np.intp, count=sum(lengths))
    starts = np.cumsum([0] + lengths[:-1])
    products = np.repeat(_IDENTITY[np.newaxis], len(runs), axis=0)
    active = len(runs)
    for k in range(lengths[0]):
        while lengths[active - 1] <= k:
            active -= 1
        products[:active] = matrices[flat[starts[:active] + k]] @ products[:active]
    collapsed = (np.abs(products - _IDENTITY).max(axis=(1, 2)) < ALGEBRAIC_TOL).tolist()
    angles = zip(*(a.tolist() for a in _zyz_stack(products)))
    for (place, q, _), identity, params in zip(runs, collapsed, angles):
        if not identity:
            items[place] = Instruction("gate", (q,), GateDef("U3", params))


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
