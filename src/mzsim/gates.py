"""Gate set and canonical matrices.

Supported gates: H, X, RY, CNOT, CCX, SWAP, U1, U2, U3.  Multi-qubit
matrices follow the same ordering as the statevector: the first qubit an
instruction names is the most significant bit of the matrix index, and it
is the control for CNOT (the first two for CCX).

U3(theta, phi, lam) = [[cos(t/2),            -e^{i lam} sin(t/2)],
                       [e^{i phi} sin(t/2),   e^{i(phi+lam)} cos(t/2)]]
U2(phi, lam) = U3(pi/2, phi, lam)
U1(lam)      = U3(0, 0, lam) = diag(1, e^{i lam})

Under this convention RY(theta) == U3(theta, 0, 0) exactly, while
H == U2(0, pi) and X == U3(pi, 0, pi) hold up to (here: zero) global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: qubits touched / number of angle parameters, by gate name
GATE_SIGNATURES: dict[str, tuple[int, int]] = {
    "H": (1, 0),
    "X": (1, 0),
    "RY": (1, 1),
    "CNOT": (2, 0),
    "CCX": (3, 0),
    "SWAP": (2, 0),
    "U1": (1, 1),
    "U2": (1, 2),
    "U3": (1, 3),
}

BASIS_GATES = frozenset({"U1", "U2", "U3", "CNOT"})


@dataclass(frozen=True)
class GateDef:
    name: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.name not in GATE_SIGNATURES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity, n_params = GATE_SIGNATURES[self.name]
        params = tuple(map(float, self.params))
        if len(params) != n_params:
            raise ValueError(
                f"{self.name} takes {n_params} parameter(s), got {len(params)}"
            )
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{self.name} parameters must be finite: {params}")
        object.__setattr__(self, "params", params)

    @property
    def arity(self) -> int:
        return GATE_SIGNATURES[self.name][0]


# ---- constructors ----------------------------------------------------------

H = GateDef("H")
X = GateDef("X")
CNOT = GateDef("CNOT")
CCX = GateDef("CCX")
SWAP = GateDef("SWAP")


def ry(theta: float) -> GateDef:
    return GateDef("RY", (theta,))


def u1(lam: float) -> GateDef:
    return GateDef("U1", (lam,))


def u2(phi: float, lam: float) -> GateDef:
    return GateDef("U2", (phi, lam))


def u3(theta: float, phi: float, lam: float) -> GateDef:
    return GateDef("U3", (theta, phi, lam))


# ---- matrices --------------------------------------------------------------

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def matrix_of(gate: GateDef) -> np.ndarray:
    """Canonical unitary for a gate definition."""
    name, p = gate.name, gate.params
    if name == "H":
        return _H_MATRIX.copy()
    if name == "X":
        return _X_MATRIX.copy()
    if name == "RY":
        return _ry_matrix(p[0])
    if name == "U1":
        return _u3_matrix(0.0, 0.0, p[0])
    if name == "U2":
        return _u3_matrix(np.pi / 2, p[0], p[1])
    if name == "U3":
        return _u3_matrix(p[0], p[1], p[2])
    if name == "CNOT":
        return controlled(X, 1)
    if name == "CCX":
        return controlled(X, 2)
    if name == "SWAP":
        return _SWAP_MATRIX.copy()
    raise AssertionError(name)


def controlled(gate: GateDef, num_controls: int) -> np.ndarray:
    """Controlled version of a single-qubit gate; controls come first.

    The base matrix occupies the bottom-right block, i.e. it fires only
    when every control bit is 1.
    """
    if gate.arity != 1:
        raise ValueError(f"can only control single-qubit gates, got {gate.name}")
    if num_controls not in (1, 2):
        raise ValueError(f"num_controls must be 1 or 2, got {num_controls}")
    base = matrix_of(gate)
    dim = 2 ** (num_controls + 1)
    out = np.eye(dim, dtype=complex)
    out[dim - 2 :, dim - 2 :] = base
    return out
