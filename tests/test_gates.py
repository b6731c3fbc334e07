import numpy as np
import pytest

from mzsim.gates import (
    BASIS_GATES,
    CCX,
    CNOT,
    GATES,
    H,
    SWAP,
    X,
    GateDef,
    controlled,
    matrix_of,
    ry,
    u1,
    u2,
    u3,
)
from mzsim.states import ALGEBRAIC_TOL, equal_up_to_global_phase


def is_unitary(matrix: np.ndarray, tol: float = ALGEBRAIC_TOL) -> bool:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def test_signature_table_is_complete():
    assert set(GATES) == {"H", "X", "RY", "CNOT", "CCX", "SWAP", "U1", "U2", "U3"}
    assert BASIS_GATES == {"U1", "U2", "U3", "CNOT"}
    assert (GATES["CCX"].arity, GATES["CCX"].num_params) == (3, 0)
    assert (GATES["U3"].arity, GATES["U3"].num_params) == (1, 3)
    for name, spec in GATES.items():
        params = tuple(range(1, spec.num_params + 1))
        dim = 2**spec.arity
        assert spec.matrix(*params).shape == (dim, dim), name
        if spec.basis is not None:
            qubits = tuple(range(spec.arity))
            for gate, targets in spec.basis(params, qubits):
                assert gate.name in BASIS_GATES, name
                assert len(targets) == gate.arity and set(targets) <= set(qubits), name


def test_gatedef_validation():
    with pytest.raises(ValueError, match="unknown gate"):
        GateDef("RZ")
    with pytest.raises(ValueError, match="parameter"):
        GateDef("RY")  # missing angle
    with pytest.raises(ValueError, match="parameter"):
        GateDef("H", (1.0,))
    with pytest.raises(ValueError, match="finite"):
        GateDef("RY", (np.inf,))


def test_gatedef_is_hashable_value_object():
    assert ry(0.5) == ry(0.5)
    assert ry(0.5) != ry(0.25)
    assert len({H, X, H}) == 2
    assert ry(1).params == (1.0,)  # ints are coerced to float


def test_arity_property():
    assert H.arity == 1
    assert CNOT.arity == 2
    assert CCX.arity == 3


class TestMatrices:
    def test_all_gates_are_unitary(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            t, p, l = rng.uniform(-2 * np.pi, 2 * np.pi, size=3)
            for g in (H, X, CNOT, CCX, SWAP, ry(t), u1(l), u2(p, l), u3(t, p, l)):
                assert is_unitary(matrix_of(g)), g

    def test_hadamard_entries(self):
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(matrix_of(H), [[s, s], [s, -s]])

    def test_cnot_flips_target_when_control_set(self):
        m = matrix_of(CNOT)
        # columns are images of |00>, |01>, |10>, |11>
        np.testing.assert_allclose(m[:, 2], [0, 0, 0, 1])
        np.testing.assert_allclose(m[:, 3], [0, 0, 1, 0])
        np.testing.assert_allclose(m[:, 0], [1, 0, 0, 0])

    def test_ccx_is_identity_except_last_block(self):
        m = matrix_of(CCX)
        np.testing.assert_allclose(m[:6, :6], np.eye(6))
        np.testing.assert_allclose(m[6:, 6:], [[0, 1], [1, 0]])

    def test_swap_exchanges_01_and_10(self):
        m = matrix_of(SWAP)
        assert m[1, 2] == 1 and m[2, 1] == 1
        assert m[0, 0] == 1 and m[3, 3] == 1

    def test_u1_is_phase_diag(self):
        lam = 0.77
        np.testing.assert_allclose(matrix_of(u1(lam)), np.diag([1.0, np.exp(1j * lam)]))

    def test_u3_reference_matrix(self):
        t, p, l = 0.3, 1.1, -0.4
        c, s = np.cos(t / 2), np.sin(t / 2)
        expected = np.array(
            [[c, -np.exp(1j * l) * s], [np.exp(1j * p) * s, np.exp(1j * (p + l)) * c]]
        )
        np.testing.assert_allclose(matrix_of(u3(t, p, l)), expected)


class TestExactIdentities:
    """The decomposition targets are phase-exact, not merely phase-equivalent."""

    def test_ry_equals_u3(self):
        for t in np.linspace(-2 * np.pi, 2 * np.pi, 17):
            np.testing.assert_array_equal(matrix_of(ry(t)), matrix_of(u3(t, 0.0, 0.0)))

    def test_h_equals_u2_0_pi(self):
        np.testing.assert_allclose(matrix_of(H), matrix_of(u2(0.0, np.pi)), atol=1e-15)

    def test_x_equals_u3_pi_0_pi(self):
        np.testing.assert_allclose(matrix_of(X), matrix_of(u3(np.pi, 0.0, np.pi)), atol=1e-15)

    def test_u2_is_u3_at_half_pi(self):
        np.testing.assert_array_equal(
            matrix_of(u2(0.4, 1.3)), matrix_of(u3(np.pi / 2, 0.4, 1.3))
        )

    def test_u1_matches_u3_up_to_phase(self):
        # U1(l) and U3(0,0,l) coincide exactly under this parametrization
        np.testing.assert_allclose(matrix_of(u1(2.0)), matrix_of(u3(0.0, 0.0, 2.0)), atol=1e-15)


class TestControlled:
    def test_controlled_x_is_cnot(self):
        np.testing.assert_array_equal(controlled(X, 1), matrix_of(CNOT))

    def test_doubly_controlled_x_is_ccx(self):
        np.testing.assert_array_equal(controlled(X, 2), matrix_of(CCX))

    def test_controlled_generic_block_structure(self):
        m = controlled(ry(0.9), 1)
        np.testing.assert_allclose(m[:2, :2], np.eye(2))
        np.testing.assert_allclose(m[2:, 2:], matrix_of(ry(0.9)))
        assert np.all(m[:2, 2:] == 0) and np.all(m[2:, :2] == 0)

    def test_rejects_multiqubit_base(self):
        with pytest.raises(ValueError, match="single-qubit"):
            controlled(CNOT, 1)

    def test_rejects_bad_control_count(self):
        with pytest.raises(ValueError, match="num_controls"):
            controlled(X, 3)

    def test_controlled_of_unitary_is_unitary(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = u3(*rng.uniform(-np.pi, np.pi, size=3))
            assert is_unitary(controlled(g, 1))
            assert is_unitary(controlled(g, 2))


def test_matrix_of_returns_fresh_arrays():
    a = matrix_of(H)
    a[0, 0] = 99.0
    assert matrix_of(H)[0, 0] != 99.0


def test_h_squared_is_identity_and_phase_gap_zero():
    hh = matrix_of(H) @ matrix_of(H)
    np.testing.assert_allclose(hh, np.eye(2), atol=1e-15)
    assert equal_up_to_global_phase(matrix_of(H), matrix_of(u2(0.0, np.pi)), tol=1e-15)
