import numpy as np
import pytest

from mzsim.circuit import (
    Circuit,
    CircuitError,
    CountsHistogram,
    Instruction,
    simulate_ideal,
    unitary_of,
)
from mzsim.gates import CNOT, GateDef, H, matrix_of
from mzsim.states import equal_up_to_global_phase, index_of


class TestInstruction:
    def test_gate_instruction_needs_gate(self):
        with pytest.raises(CircuitError, match="needs a GateDef"):
            Circuit(2).append(Instruction("gate", (0,)))

    def test_gate_arity_must_match(self):
        with pytest.raises(CircuitError, match="acts on"):
            Circuit(2).append(Instruction("gate", (0, 1), gate=H))

    def test_unknown_kind(self):
        with pytest.raises(CircuitError, match="unknown instruction kind"):
            Circuit(2).append(Instruction("reset", (0,)))

    def test_measure_shape(self):
        with pytest.raises(CircuitError, match="one qubit and one clbit"):
            Circuit(2, 1).append(Instruction("measure", (0, 1), clbit=0))
        with pytest.raises(CircuitError, match="one qubit and one clbit"):
            Circuit(2, 1).append(Instruction("measure", (0,)))  # no clbit

    def test_repeated_qubit(self):
        with pytest.raises(CircuitError, match="repeated qubit"):
            Circuit(2).append(Instruction("gate", (1, 1), gate=CNOT))


class TestBuilder:
    def test_methods_chain(self):
        c = Circuit(3, 3).h(0).cx(0, 1).ccx(0, 1, 2).barrier().measure_all()
        assert len(c.instructions) == 7
        assert c.count_gates() == {"H": 1, "CNOT": 1, "CCX": 1}

    def test_qubit_range_checked(self):
        with pytest.raises(CircuitError, match="out of range"):
            Circuit(2).h(2)

    @pytest.mark.parametrize("qubit", [1.5, 1.0, True, "1"])
    def test_qubit_must_be_an_integer(self, qubit):
        with pytest.raises(CircuitError, match="expected an integer index"):
            Circuit(2).h(qubit)

    @pytest.mark.parametrize("clbit", [0.5, 0.0, False, "0"])
    def test_clbit_must_be_an_integer(self, clbit):
        with pytest.raises(CircuitError, match="expected an integer index"):
            Circuit(2, 2).measure(0, clbit)

    def test_numpy_integer_indices_become_ints(self):
        c = Circuit(2, 2).cx(np.int64(0), np.int32(1)).measure(np.int64(1), np.int8(1))
        assert [(inst.qubits, inst.clbit) for inst in c.instructions] == [((0, 1), None),
                                                                         ((1,), 1)]
        assert all(type(i) is int for i in (*c.instructions[0].qubits, c.instructions[1].clbit))

    def test_size_limits(self):
        with pytest.raises(CircuitError):
            Circuit(0)
        with pytest.raises(CircuitError):
            Circuit(25)
        with pytest.raises(CircuitError):
            Circuit(1, num_clbits=-1)

    def test_measurement_is_terminal(self):
        c = Circuit(2, 2).h(0).measure(0, 0)
        with pytest.raises(CircuitError, match="terminal"):
            c.h(0)
        # untouched qubits keep working
        c.x(1)
        assert c.count_gates() == {"H": 1, "X": 1}

    def test_double_measure_rejected(self):
        c = Circuit(1, 2).measure(0, 0)
        with pytest.raises(CircuitError, match="measured twice"):
            c.measure(0, 1)

    def test_clbit_range_checked(self):
        with pytest.raises(CircuitError, match="clbit"):
            Circuit(1, 0).measure(0, 0)
        with pytest.raises(CircuitError, match="clbit"):
            Circuit(2, 1).measure(1, 1)

    def test_two_qubit_gate_after_partial_measure_rejected(self):
        c = Circuit(2, 2).measure(1, 1)
        with pytest.raises(CircuitError, match="measured"):
            c.cx(0, 1)

    def test_measured_qubits_sorted_regardless_of_order(self):
        c = Circuit(3, 3).measure(2, 2).measure(0, 0)
        assert c.measured_qubits == (0, 2)

    def test_measure_all_maps_qubit_i_to_clbit_i(self):
        c = Circuit(3, 3).measure_all()
        assert [(i.qubits[0], i.clbit) for i in c.instructions] == [(0, 0), (1, 1), (2, 2)]

    def test_barrier_defaults_to_all_qubits(self):
        c = Circuit(3).barrier()
        assert c.instructions[0].qubits == (0, 1, 2)
        c2 = Circuit(3).barrier(1)
        assert c2.instructions[0].qubits == (1,)

    def test_copy_is_independent(self):
        a = Circuit(2, 2).h(0)
        b = a.copy()
        b.cx(0, 1)
        assert len(a.instructions) == 1
        assert len(b.instructions) == 2
        # copy preserves the terminal-measurement bookkeeping
        c = Circuit(1, 1).measure(0, 0).copy()
        with pytest.raises(CircuitError):
            c.h(0)

    def test_structural_equality(self):
        build = lambda: Circuit(2, 2).h(0).cx(0, 1).measure_all()
        assert build() == build()
        assert build() != Circuit(2, 2).h(0).measure_all()
        assert Circuit(2) != Circuit(3)
        assert Circuit(2) != "not a circuit"

    def test_repr_mentions_sizes(self):
        r = repr(Circuit(2, 2).h(0))
        assert "num_qubits=2" in r and "instructions=1" in r


class TestSimulateIdeal:
    def test_bell_pair(self):
        s = simulate_ideal(Circuit(2).h(0).cx(0, 1))
        np.testing.assert_allclose(
            s.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15
        )

    def test_measures_and_barriers_do_not_disturb_state(self):
        plain = simulate_ideal(Circuit(2).h(0).cx(0, 1))
        decorated = simulate_ideal(Circuit(2, 2).h(0).barrier().cx(0, 1).measure_all())
        np.testing.assert_array_equal(plain.amplitudes, decorated.amplitudes)

    def test_ccx_truth_table(self):
        s = simulate_ideal(Circuit(3).x(0).x(1).ccx(0, 1, 2))
        assert abs(s.amplitudes[index_of("111")]) == 1.0

    def test_u_chain_matches_matrix_product(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            t, p, l = rng.uniform(-np.pi, np.pi, size=3)
            c = Circuit(1).u3(t, p, l, 0).u1(0.3, 0).u2(p, l, 0)
            m = (
                matrix_of(GateDef("U2", (p, l)))
                @ matrix_of(GateDef("U1", (0.3,)))
                @ matrix_of(GateDef("U3", (t, p, l)))
            )
            np.testing.assert_allclose(simulate_ideal(c).amplitudes, m[:, 0], atol=1e-14)


class TestUnitaryOf:
    def test_matches_direct_product(self):
        c = Circuit(2).h(0).cx(0, 1)
        cx = matrix_of(CNOT)
        h_full = np.kron(matrix_of(H), np.eye(2))
        np.testing.assert_allclose(unitary_of(c), cx @ h_full, atol=1e-14)

    def test_swap_unitary(self):
        c = Circuit(2).swap(0, 1)
        expected = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_allclose(unitary_of(c), expected)

    def test_empty_circuit_is_identity(self):
        np.testing.assert_array_equal(unitary_of(Circuit(3)), np.eye(8))

    def test_rejects_measured_circuit(self):
        with pytest.raises(CircuitError, match="measured"):
            unitary_of(Circuit(1, 1).h(0).measure(0, 0))

    def test_qubit_cap(self):
        assert unitary_of(Circuit(6)).shape == (64, 64)
        with pytest.raises(CircuitError, match="capped at 6"):
            unitary_of(Circuit(7))

    def test_column_action_agrees_with_statevector_sim(self):
        # unitary columns == simulate_ideal on each basis input
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = Circuit(3)
            for _ in range(6):
                kind = rng.integers(3)
                if kind == 0:
                    c.h(int(rng.integers(3)))
                elif kind == 1:
                    a, b = rng.permutation(3)[:2]
                    c.cx(int(a), int(b))
                else:
                    c.ry(float(rng.uniform(0, np.pi)), int(rng.integers(3)))
            u = unitary_of(c)
            first_col = simulate_ideal(c).amplitudes
            np.testing.assert_allclose(u[:, 0], first_col, atol=1e-12)
            assert equal_up_to_global_phase(u @ u.conj().T, np.eye(8), tol=1e-10)


class TestCountsHistogram:
    def test_probabilities_sorted_and_normalized(self):
        h = CountsHistogram(8, {"11": 2, "00": 6})
        assert h.probabilities() == {"00": 0.75, "11": 0.25}

    def test_sum_must_match_shots(self):
        with pytest.raises(ValueError, match="sum"):
            CountsHistogram(10, {"0": 4})

    def test_key_lengths_consistent(self):
        with pytest.raises(ValueError, match="key lengths"):
            CountsHistogram(2, {"0": 1, "00": 1})

    def test_keys_must_be_bits(self):
        with pytest.raises(ValueError, match="bad histogram entry"):
            CountsHistogram(1, {"0x": 1})

    def test_shots_positive(self):
        with pytest.raises(ValueError, match="shots"):
            CountsHistogram(0, {})
