"""Circuit intermediate representation.

A circuit is an ordered list of instructions over `num_qubits` qubits and
`num_clbits` classical bits.  An instruction is a plain record, checked
when it enters a circuit: `Circuit.append` checks its kind, gate arity,
measure shape, repeated and out-of-range qubits, and clbit.  Measurement
is terminal: once a qubit has been measured, no later gate may touch it
(append raises).  Barriers are scheduling markers and never change
simulation output.

Counts histograms key on bitstrings of the *measured* qubits in qubit
order, q0 leftmost, regardless of which classical bit each measurement
writes to.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gates import CCX, CNOT, H, SWAP, X, GateDef, matrix_of
from .states import MAX_QUBITS, StateVector, evolve, init_state


class CircuitError(ValueError):
    """Raised for structurally invalid circuit construction or use."""


def _index(value, error: type[Exception] = TypeError) -> int:
    """An integer (numpy's too) as an int index; a bool, float or text raises `error`."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise error(f"expected an integer index, got {value!r}")
    return operator.index(value)


class Instruction(NamedTuple):
    """One circuit step, as a plain record: `Circuit.append` checks it."""

    kind: str  # "gate" | "measure" | "barrier"
    qubits: tuple[int, ...]
    gate: GateDef | None = None
    clbit: int | None = None


class Circuit:
    """Builder-style circuit.  Append instructions, then simulate."""

    def __init__(self, num_qubits: int, num_clbits: int = 0, name: str = ""):
        if not 1 <= num_qubits <= MAX_QUBITS:
            raise CircuitError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}"
            )
        if num_clbits < 0:
            raise CircuitError(f"num_clbits must be >= 0, got {num_clbits}")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.name = name
        self.instructions: list[Instruction] = []
        self._measured: set[int] = set()

    # -- construction --------------------------------------------------------

    def append(self, instruction: Instruction) -> "Circuit":
        kind, qubits, gate, clbit = instruction
        if kind not in ("gate", "measure", "barrier"):
            raise CircuitError(f"unknown instruction kind {kind!r}")
        qubits = tuple(_index(q, CircuitError) for q in qubits)
        if kind == "gate":
            if gate is None:
                raise CircuitError("gate instruction needs a GateDef")
            if len(qubits) != gate.arity:
                raise CircuitError(f"{gate.name} acts on {gate.arity} qubit(s), got {len(qubits)}")
        elif kind == "measure" and (len(qubits) != 1 or clbit is None):
            raise CircuitError("measure takes one qubit and one clbit")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"repeated qubit in {qubits}")
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        if kind == "gate":
            self._check_unmeasured(qubits)
        elif kind == "measure":
            (q,), clbit = qubits, _index(clbit, CircuitError)
            if q in self._measured:
                raise CircuitError(f"qubit {q} measured twice")
            if not 0 <= clbit < self.num_clbits:
                raise CircuitError(f"clbit {clbit} out of range for "
                                   f"{self.num_clbits} classical bits")
            self._measured.add(q)
        self.instructions.append(Instruction(kind, qubits, gate, clbit))
        return self

    def _check_unmeasured(self, qubits: tuple[int, ...]):
        touched = self._measured.intersection(qubits)
        if touched:
            raise CircuitError(
                f"gate on already-measured qubit(s) {sorted(touched)}; "
                "measurement is terminal"
            )

    def _append_trusted(self, instruction: Instruction) -> "Circuit":
        """append() of a gate that a pass over a valid circuit produced, so
        the record is well formed and its qubits are in range: the IR's one
        pass-internal shortcut.  Only measurement being terminal is checked:
        a parsed program can put a gate after a measure.  `route` refuses a
        SWAP through a measured qubit itself, so for its appends this check is
        only a safety net."""
        if self._measured:
            self._check_unmeasured(instruction.qubits)
        self.instructions.append(instruction)
        return self

    def gate(self, g: GateDef, *qubits: int) -> "Circuit":
        return self.append(Instruction("gate", tuple(qubits), gate=g))

    def h(self, q: int) -> "Circuit":
        return self.gate(H, q)

    def x(self, q: int) -> "Circuit":
        return self.gate(X, q)

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.gate(GateDef("RY", (theta,)), q)

    def cx(self, control: int, target: int) -> "Circuit":
        return self.gate(CNOT, control, target)

    def ccx(self, c1: int, c2: int, target: int) -> "Circuit":
        return self.gate(CCX, c1, c2, target)

    def swap(self, a: int, b: int) -> "Circuit":
        return self.gate(SWAP, a, b)

    def u1(self, lam: float, q: int) -> "Circuit":
        return self.gate(GateDef("U1", (lam,)), q)

    def u2(self, phi: float, lam: float, q: int) -> "Circuit":
        return self.gate(GateDef("U2", (phi, lam)), q)

    def u3(self, theta: float, phi: float, lam: float, q: int) -> "Circuit":
        return self.gate(GateDef("U3", (theta, phi, lam)), q)

    def barrier(self, *qubits: int) -> "Circuit":
        qs = qubits if qubits else tuple(range(self.num_qubits))
        return self.append(Instruction("barrier", qs))

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        return self.append(Instruction("measure", (qubit,), clbit=clbit))

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    # -- inspection -----------------------------------------------------------

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        """Measured qubits in qubit order (the histogram key order)."""
        return tuple(sorted(self._measured))

    def gate_instructions(self) -> list[Instruction]:
        return [i for i in self.instructions if i.kind == "gate"]

    def count_gates(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for inst in self.gate_instructions():
            counts[inst.gate.name] = counts.get(inst.gate.name, 0) + 1
        return counts

    def copy(self) -> "Circuit":
        out = Circuit(self.num_qubits, self.num_clbits, self.name)
        out.instructions = list(self.instructions)
        out._measured = set(self._measured)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self.instructions == other.instructions
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(num_qubits={self.num_qubits}, num_clbits={self.num_clbits}, "
            f"instructions={len(self.instructions)})"
        )


@dataclass(frozen=True)
class CountsHistogram:
    """Measurement outcome tallies.  Keys are measured-qubit bitstrings."""

    shots: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")
        lengths = {len(k) for k in self.counts}
        if len(lengths) > 1:
            raise ValueError(f"inconsistent key lengths: {sorted(lengths)}")
        keys = "".join([k if type(k) is str else "?" for k in self.counts])  # "?": not a str
        if keys.encode("ascii", "replace").translate(None, b"01") or min(self.counts.values()) < 0:
            for key, c in self.counts.items():  # one pass found a bad entry: name the first
                if c < 0 or set(key) - {"0", "1"}:
                    raise ValueError(f"bad histogram entry {key!r}: {c}")

    def probabilities(self) -> dict[str, float]:
        return {k: v / self.shots for k, v in sorted(self.counts.items())}


def gate_ops(circuit: Circuit) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """(matrix, targets) of every gate in circuit order, for states.evolve."""
    return [(matrix_of(inst.gate), inst.qubits) for inst in circuit.gate_instructions()]


def simulate_ideal(circuit: Circuit) -> StateVector:
    """Exact statevector after all gates (measures and barriers skipped)."""
    n = circuit.num_qubits
    return StateVector(n, evolve(init_state(n).amplitudes, gate_ops(circuit), n))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Total unitary of a measurement-free circuit (<= 6 qubits)."""
    if circuit.num_qubits > 6:
        raise CircuitError(
            f"unitary extraction capped at 6 qubits, got {circuit.num_qubits}"
        )
    if any(inst.kind == "measure" for inst in circuit.instructions):
        raise CircuitError("cannot extract a unitary from a measured circuit")
    # evolve every basis column at once: the column index is a batch axis
    n = circuit.num_qubits
    return evolve(np.eye(2**n, dtype=complex), gate_ops(circuit), n)
