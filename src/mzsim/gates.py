"""The gate table: what each gate is, in one place.

`GATES` maps a gate name to its QASM spelling, arity, parameter count,
matrix and rewrite over the hardware basis {U1, U2, U3, CNOT}.  The circuit
builders, the simulator, the QASM reader/writer and the transpiler all
read it:

    name  qasm  qubits  params           basis rewrite
    H     h     1       -                U2(0, pi)
    X     x     1       -                U3(pi, 0, pi)
    RY    ry    1       theta            U3(theta, 0, 0)
    CNOT  cx    2       -                (basis gate)
    CCX   ccx   3       -                6-CNOT network over H, T = U1(pi/4), Tdg
    SWAP  swap  2       -                CX(a,b) CX(b,a) CX(a,b)
    U1    u1    1       lam              (basis gate)
    U2    u2    1       phi, lam         (basis gate)
    U3    u3    1       theta, phi, lam  (basis gate)

Every rewrite is exact, with zero global phase, so decomposition keeps a
circuit's unitary to machine precision.  Routing SWAPs use the SWAP row.

Multi-qubit matrices follow the same ordering as the statevector: the
first qubit an instruction names is the most significant bit of the matrix
index, and it is the control for CNOT (the first two for CCX).

U3(theta, phi, lam) = [[cos(t/2),            -e^{i lam} sin(t/2)],
                       [e^{i phi} sin(t/2),   e^{i(phi+lam)} cos(t/2)]]
U2(phi, lam) = U3(pi/2, phi, lam)
U1(lam)      = U3(0, 0, lam) = diag(1, e^{i lam})
RY(theta)    = U3(theta, 0, 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

#: a rewrite's output: gates over the basis, each with the qubits it acts on
Network = list[tuple["GateDef", tuple[int, ...]]]


class GateSpec(NamedTuple):
    qasm: str
    arity: int
    num_params: int
    #: params -> a fresh unitary
    matrix: Callable[..., np.ndarray]
    #: (params, qubits) -> the gate rewritten over the basis; None for a basis gate
    basis: Callable[[tuple[float, ...], tuple[int, ...]], Network] | None


@dataclass(frozen=True)
class GateDef:
    name: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        spec = GATES.get(self.name)
        if spec is None:
            raise ValueError(f"unknown gate {self.name!r}")
        params = tuple(map(float, self.params))
        if len(params) != spec.num_params:
            raise ValueError(
                f"{self.name} takes {spec.num_params} parameter(s), got {len(params)}"
            )
        if not all(map(math.isfinite, params)):
            raise ValueError(f"{self.name} parameters must be finite: {params}")
        object.__setattr__(self, "params", params)

    @property
    def arity(self) -> int:
        return GATES[self.name].arity


# ---- matrices --------------------------------------------------------------

_H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _u3_matrix(theta, phi, lam) -> np.ndarray:
    """U3's matrix; array angles broadcast to a stack of shape (..., 2, 2),
    each entry computed as a scalar call computes it."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    bottom_right = np.exp(1j * (phi + lam)) * c  # has every angle's shape
    out = np.empty(bottom_right.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 0, 1] = -np.exp(1j * lam) * s
    out[..., 1, 0] = np.exp(1j * phi) * s
    out[..., 1, 1] = bottom_right
    return out


# ---- basis rewrites (their gate constants are built below the table) -------


def _ccx_network(a: int, b: int, t: int) -> Network:
    return [
        (_H_BASIS, (t,)),
        (CNOT, (b, t)),
        (_TDG, (t,)),
        (CNOT, (a, t)),
        (_T, (t,)),
        (CNOT, (b, t)),
        (_TDG, (t,)),
        (CNOT, (a, t)),
        (_T, (b,)),
        (_T, (t,)),
        (CNOT, (a, b)),
        (_H_BASIS, (t,)),
        (_T, (a,)),
        (_TDG, (b,)),
        (CNOT, (a, b)),
    ]


def _swap_network(a: int, b: int) -> Network:
    return [(CNOT, (a, b)), (CNOT, (b, a)), (CNOT, (a, b))]


# ---- the table -------------------------------------------------------------

GATES: dict[str, GateSpec] = {
    "H": GateSpec("h", 1, 0, lambda: _H_MATRIX.copy(), lambda p, qs: [(_H_BASIS, qs)]),
    "X": GateSpec("x", 1, 0, lambda: _X_MATRIX.copy(), lambda p, qs: [(_X_BASIS, qs)]),
    "RY": GateSpec("ry", 1, 1, lambda theta: _u3_matrix(theta, 0.0, 0.0),
                   lambda p, qs: [(u3(p[0], 0.0, 0.0), qs)]),
    "CNOT": GateSpec("cx", 2, 0, lambda: controlled(X, 1), None),
    "CCX": GateSpec("ccx", 3, 0, lambda: controlled(X, 2), lambda p, qs: _ccx_network(*qs)),
    "SWAP": GateSpec("swap", 2, 0, lambda: _SWAP_MATRIX.copy(),
                     lambda p, qs: _swap_network(*qs)),
    "U1": GateSpec("u1", 1, 1, lambda lam: _u3_matrix(0.0, 0.0, lam), None),
    "U2": GateSpec("u2", 1, 2, lambda phi, lam: _u3_matrix(np.pi / 2, phi, lam), None),
    "U3": GateSpec("u3", 1, 3, _u3_matrix, None),
}

BASIS_GATES = frozenset(name for name, spec in GATES.items() if spec.basis is None)


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


_T = u1(np.pi / 4)
_TDG = u1(-np.pi / 4)
_H_BASIS = u2(0.0, np.pi)
_X_BASIS = u3(np.pi, 0.0, np.pi)


def matrix_of(gate: GateDef) -> np.ndarray:
    """Canonical unitary for a gate definition."""
    return GATES[gate.name].matrix(*gate.params)


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
