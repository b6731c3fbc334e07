"""Dense statevector simulation.

A state on n qubits is a complex vector of 2**n amplitudes.  Qubit 0 is
the MOST significant bit of the amplitude index, so the bitstring "q0 q1
... q(n-1)" reads left to right exactly like the index written in binary.
Example: for two qubits, amplitude[2] belongs to |10>, i.e. q0=1, q1=0.

All tolerances used for algebraic identities live here so they are pinned
in one place rather than scattered per call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_QUBITS = 24  # 2**24 complex128 amplitudes = 256 MiB; hard cap

# Tolerance for algebraic identities: unitarity, phase-aligned matrix
# equality, a matrix or angle that is zero or the identity.
ALGEBRAIC_TOL = 1e-12
NORM_TOL = 1e-10  # slack on sum |a|^2 = 1 for a state given as amplitudes


def bitstring_of(index: int, num_qubits: int) -> str:
    """Binary label of a basis state, q0 leftmost."""
    return format(index, f"0{num_qubits}b")


def index_of(bits: str) -> int:
    return int(bits, 2)


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over computational basis states."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 for every basis index; sums to 1 within NORM_TOL."""
        return np.abs(self.amplitudes) ** 2

    def probability_dict(self, cutoff: float = 0.0) -> dict[str, float]:
        """Map bitstring -> probability, dropping entries <= cutoff."""
        probs = self.probabilities()
        return {
            bitstring_of(i, self.num_qubits): float(p)
            for i, p in enumerate(probs)
            if p > cutoff
        }

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.num_qubits:
            raise ValueError(f"expected {self.num_qubits} bits, got {bits!r}")
        return complex(self.amplitudes[index_of(bits)])


def init_state(num_qubits: int) -> StateVector:
    """|00...0> on num_qubits qubits."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def apply_unitary(
    amplitudes: np.ndarray, matrix: np.ndarray, targets: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Linear kernel: apply a 2**k x 2**k matrix to the target qubits.

    amplitudes has shape (2**num_qubits, *batch): any trailing axes are
    batch axes carried along untouched, so an identity matrix evolves into
    a circuit's unitary column by column.  targets are ordered: targets[0]
    is the most significant bit of the matrix's own index space.  No
    normalization check happens here, so the map is linear in the input
    (used directly by the property tests).
    """
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {matrix.shape} does not act on {k} qubit(s)")
    amps = np.asarray(amplitudes, dtype=complex)
    forward, back = _target_axes(tuple(targets), num_qubits, amps.ndim - 1)

    # axis j of the reshaped tensor is qubit j (q0 = axis 0 = MSB)
    tensor = amps.reshape((2,) * num_qubits + amps.shape[1:]).transpose(forward)
    shape = tensor.shape
    tensor = matrix @ tensor.reshape(2**k, -1)
    return tensor.reshape(shape).transpose(back).reshape(amps.shape)


@lru_cache(maxsize=None)
def _target_axes(
    targets: tuple[int, ...], num_qubits: int, batch_ndim: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that brings `targets` to the front of a qubit tensor, and its inverse.

    Raises ValueError for duplicate or out-of-range targets; a call that
    raises is not cached, so it raises again every time.
    """
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    for q in targets:
        if not 0 <= q < num_qubits:
            raise ValueError(f"target qubit {q} out of range for {num_qubits} qubits")
    forward = (*targets, *(a for a in range(num_qubits + batch_ndim) if a not in targets))
    back = tuple(sorted(range(len(forward)), key=forward.__getitem__))
    return forward, back


#: per Pauli code -1 (none), 0 (X), 1 (Y), 2 (Z), shifted by one: whether it
#: swaps the halves, and the phase of each half after the swap (row 0 bit 0)
_PAULI_FLIPS = np.array([False, True, True, False])
_PAULI_PHASES = np.array([[1, 1, -1j, 1], [1, 1, 1j, -1]])


def _apply_paulis(amplitudes: np.ndarray, codes: np.ndarray, qubit: int) -> np.ndarray:
    """Apply Pauli `codes[j]` to `qubit` of batch entry j, as a bit flip and a phase.

    amplitudes has shape (2**num_qubits, *batch) and codes has the batch's
    shape, holding -1 (none), 0 (X), 1 (Y) or 2 (Z).  X and Y swap the
    halves where `qubit` is 0 and 1, then each half is multiplied by ±1 or
    ±i, so every |amplitude|**2 is bit for bit what `apply_unitary` with
    the Pauli's matrix gives.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    halves = amps.reshape((2**qubit, 2, -1) + amps.shape[1:])
    shifted = np.asarray(codes) + 1
    out = np.where(_PAULI_FLIPS[shifted], halves[:, ::-1], halves)
    out *= _PAULI_PHASES[:, shifted][:, None]
    return out.reshape(amps.shape)


def evolve(
    amplitudes: np.ndarray, ops: list[tuple[np.ndarray, tuple[int, ...]]], num_qubits: int
) -> np.ndarray:
    """Apply a sequence of (matrix, targets) pairs in order; see apply_unitary."""
    for matrix, targets in ops:
        amplitudes = apply_unitary(amplitudes, matrix, targets, num_qubits)
    return amplitudes


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = ALGEBRAIC_TOL) -> bool:
    """True if a == c*b entrywise for some |c| = 1, within tol.

    Works for matrices and vectors alike.  The aligning phase is the
    least-squares optimum c = <b, a>/|<b, a>|.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-300:
        # no meaningful phase; only the zero pair is phase-equal
        return bool(np.max(np.abs(a - b)) <= tol)
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(a - phase * b)) <= tol)
