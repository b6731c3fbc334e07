"""Statevector kernel: conventions, validation, and algebraic invariants."""

import numpy as np
import pytest

from mzsim.states import (
    ALGEBRAIC_TOL,
    MAX_QUBITS,
    StateVector,
    _apply_paulis,
    apply_unitary,
    bitstring_of,
    equal_up_to_global_phase,
    index_of,
    init_state,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def apply_gate(state: StateVector, matrix: np.ndarray, targets: tuple[int, ...]) -> StateVector:
    """Apply a unitary to `targets` of `state`, refusing one that breaks normalization."""
    amps = apply_unitary(state.amplitudes, matrix, tuple(targets), state.num_qubits)
    norm = float(np.sum(np.abs(amps) ** 2))
    if abs(norm - 1.0) > ALGEBRAIC_TOL * 10:
        raise ValueError(f"gate application broke normalization: {norm!r}")
    return StateVector(state.num_qubits, amps)


def is_unitary(matrix: np.ndarray, tol: float = ALGEBRAIC_TOL) -> bool:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def random_unitary(rng, dim):
    # QR of a Ginibre matrix, phase-fixed: Haar distributed
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


class TestLabels:
    def test_bitstring_of_pads_to_width(self):
        assert bitstring_of(2, 2) == "10"
        assert bitstring_of(0, 3) == "000"
        assert bitstring_of(5, 4) == "0101"

    def test_index_roundtrip(self):
        for n in (1, 2, 5):
            for i in range(2**n):
                assert index_of(bitstring_of(i, n)) == i

    def test_qubit0_is_most_significant(self):
        # X on q0 of |00> must land on index 2 = |10>, not index 1
        amps = apply_unitary(init_state(2).amplitudes, X, (0,), 2)
        expected = np.zeros(4, dtype=complex)
        expected[index_of("10")] = 1.0
        np.testing.assert_allclose(amps, expected)

    def test_x_on_last_qubit_is_lsb(self):
        amps = apply_unitary(init_state(3).amplitudes, X, (2,), 3)
        assert abs(amps[index_of("001")]) == 1.0


class TestStateVector:
    def test_init_state_is_all_zeros_ket(self):
        s = init_state(3)
        assert s.num_qubits == 3
        assert s.amplitudes[0] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(2, np.array([1.0, 0.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([np.nan, 0.0]))

    def test_qubit_bounds(self):
        with pytest.raises(ValueError):
            init_state(0)
        with pytest.raises(ValueError):
            init_state(MAX_QUBITS + 1)

    @pytest.mark.parametrize("num_qubits", [0, MAX_QUBITS + 1])
    def test_constructor_checks_qubit_bounds_before_amplitudes(self, num_qubits):
        with pytest.raises(ValueError, match=rf"num_qubits must be in \[1, {MAX_QUBITS}\]"):
            StateVector(num_qubits, np.array([1.0]))

    def test_probability_dict_cutoff(self):
        s = apply_gate(init_state(2), H, (0,))
        full = s.probability_dict()
        assert set(full) == {"00", "10"}
        np.testing.assert_allclose(sorted(full.values()), [0.5, 0.5])
        # cutoff drops entries at or below the threshold
        assert s.probability_dict(cutoff=0.6) == {}

    def test_amplitude_lookup(self):
        s = apply_gate(init_state(2), X, (1,))
        assert s.amplitude("01") == 1.0
        with pytest.raises(ValueError):
            s.amplitude("0")


class TestApplyUnitary:
    def test_bell_state(self):
        amps = init_state(2).amplitudes
        amps = apply_unitary(amps, H, (0,), 2)
        amps = apply_unitary(amps, CX, (0, 1), 2)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(amps, [s, 0, 0, s], atol=1e-15)

    def test_target_order_matters(self):
        # CX with (target, control) ordering flips the other way
        amps = apply_unitary(init_state(2).amplitudes, X, (1,), 2)  # |01>
        flipped = apply_unitary(amps, CX, (1, 0), 2)
        assert abs(flipped[index_of("11")]) == 1.0

    def test_middle_qubit_of_three(self):
        amps = apply_unitary(init_state(3).amplitudes, X, (1,), 3)
        assert abs(amps[index_of("010")]) == 1.0

    def test_rejects_bad_matrix_shape(self):
        with pytest.raises(ValueError, match="does not act on"):
            apply_unitary(init_state(2).amplitudes, H, (0, 1), 2)

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            apply_unitary(init_state(2).amplitudes, CX, (0, 0), 2)

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_unitary(init_state(2).amplitudes, X, (2,), 2)

    def test_linearity(self):
        # kernel is linear: U(a x + b y) == a Ux + b Uy
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=8) + 1j * rng.normal(size=8)
            y = rng.normal(size=8) + 1j * rng.normal(size=8)
            a, b = rng.normal(size=2)
            u = random_unitary(rng, 4)
            targets = tuple(rng.permutation(3)[:2])
            lhs = apply_unitary(a * x + b * y, u, targets, 3)
            rhs = a * apply_unitary(x, u, targets, 3) + b * apply_unitary(y, u, targets, 3)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
            # trailing batch axes: each column evolves on its own
            m = int(rng.integers(1, 5))
            batch = rng.normal(size=(8, m)) + 1j * rng.normal(size=(8, m))
            out = apply_unitary(batch, u, targets, 3)
            assert out.shape == (8, m)
            for j in range(m):
                np.testing.assert_allclose(
                    out[:, j], apply_unitary(batch[:, j], u, targets, 3), atol=1e-12)

    def test_same_bits_as_moving_the_axes(self):
        """The cached transposes are the views `np.moveaxis` makes, so every
        amplitude is bit for bit what moving the axes on each call gives."""
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            targets = tuple(rng.permutation(n)[:int(rng.integers(1, min(n, 3) + 1))].tolist())
            k = len(targets)
            shape = (2**n, *rng.integers(1, 4, size=int(rng.integers(0, 3))).tolist())
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            u = random_unitary(rng, 2**k)
            tensor = np.moveaxis(amps.reshape((2,) * n + shape[1:]), targets, range(k))
            moved = (u @ tensor.reshape(2**k, -1)).reshape(tensor.shape)
            expected = np.moveaxis(moved, range(k), targets).reshape(shape)
            assert np.array_equal(apply_unitary(amps, u, targets, n), expected)

    def test_target_checks_hold_whatever_was_cached(self):
        """Invalid targets raise on every call, after the same targets were
        used validly and before they are."""
        two, three = init_state(2).amplitudes, init_state(3).amplitudes
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                apply_unitary(three, X, (3,), 3)
            apply_unitary(init_state(4).amplitudes, X, (3,), 4)
            apply_unitary(three, X, (2,), 3)
            with pytest.raises(ValueError, match="out of range"):
                apply_unitary(two, X, (2,), 2)
            with pytest.raises(ValueError, match="out of range"):
                apply_unitary(two, CX, (0, -1), 2)
            apply_unitary(three, CX, (1, 2), 3)
            with pytest.raises(ValueError, match="duplicate"):
                apply_unitary(three, CX, (1, 1), 3)
            with pytest.raises(ValueError, match="duplicate"):
                apply_unitary(np.eye(4, dtype=complex), CX, (1, 1), 2)

    def test_norm_preserved_by_random_unitaries(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, n + 1))
            s = random_state(rng, n)
            u = random_unitary(rng, 2**k)
            out = apply_gate(s, u, tuple(rng.permutation(n)[:k]))
            np.testing.assert_allclose(np.sum(out.probabilities()), 1.0, atol=1e-12)

    def test_apply_gate_rejects_norm_breaking_matrix(self):
        with pytest.raises(ValueError, match="normalization"):
            apply_gate(init_state(1), 2.0 * X, (0,))


class TestPauliStep:
    """`_apply_paulis` is a bit flip and a phase per column, with the
    probabilities the Pauli's matrix gives."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_apply_unitary_column_by_column(self, n):
        rng = np.random.default_rng(n)
        cols = 11
        mixed = rng.permutation([-1, 0, 1, 2, *rng.integers(-1, 3, cols - 4)])
        for q in sorted({0, n - 1}):
            batch = rng.normal(size=(2**n, cols)) + 1j * rng.normal(size=(2**n, cols))
            before = batch.copy()
            for codes in (mixed, np.full(cols, -1), *(np.full(cols, p) for p in range(3))):
                codes = codes.astype(np.int8)
                out = _apply_paulis(batch, codes, q)
                assert out.shape == batch.shape
                assert np.array_equal(batch, before)
                for j, p in enumerate(codes.tolist()):
                    col = batch[:, j]
                    expected = col if p < 0 else apply_unitary(col, (X, Y, Z)[p], (q,), n)
                    assert np.array_equal(np.abs(out[:, j]) ** 2, np.abs(expected) ** 2)

    def test_trailing_batch_axes(self):
        rng = np.random.default_rng(5)
        n, q = 4, 2
        batch = rng.normal(size=(2**n, 3, 4)) + 1j * rng.normal(size=(2**n, 3, 4))
        codes = rng.integers(-1, 3, size=(3, 4)).astype(np.int8)
        out = _apply_paulis(batch, codes, q)
        for (a, b), p in np.ndenumerate(codes):
            col = batch[:, a, b]
            expected = col if p < 0 else apply_unitary(col, (X, Y, Z)[p], (q,), n)
            assert np.array_equal(np.abs(out[:, a, b]) ** 2, np.abs(expected) ** 2)


class TestPredicates:
    def test_is_unitary(self):
        assert is_unitary(H)
        assert is_unitary(CX)
        assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
        assert not is_unitary(np.ones((2, 3)))

    def test_equal_up_to_global_phase(self):
        rng = np.random.default_rng(21)
        v = random_state(rng, 2).amplitudes
        for phi in (0.0, 0.3, np.pi, -2.1):
            assert equal_up_to_global_phase(v, np.exp(1j * phi) * v)
        assert not equal_up_to_global_phase(v, np.roll(v, 1))

    def test_phase_equality_respects_tol(self):
        v = np.array([1.0, 0.0])
        w = np.array([np.sqrt(1 - 1e-6), np.sqrt(1e-6)])
        assert not equal_up_to_global_phase(v, w, tol=ALGEBRAIC_TOL)
        assert equal_up_to_global_phase(v, w, tol=1e-2)

    def test_phase_equality_of_mismatched_shapes_and_zero_vectors(self):
        assert not equal_up_to_global_phase(np.ones(2), np.ones(4))
        assert not equal_up_to_global_phase(np.eye(2), np.ones(4))
        # two zero vectors have no phase to align, and only they are phase-equal
        assert equal_up_to_global_phase(np.zeros(4), np.zeros(4))
        assert not equal_up_to_global_phase(np.zeros(2), np.array([0.0, 1.0]))
