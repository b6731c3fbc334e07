"""Interferometer experiment builders and their closed-form observables."""

import numpy as np
import pytest

from mzsim.analysis import eta_from_counts, gamma_from_counts
from mzsim.circuit import simulate_ideal
from mzsim.experiments import (
    GAMMA_MAX,
    ExperimentSpec,
    alpha_beta_from_theta,
    build_bomb,
    build_eraser,
    build_general_bomb,
    build_hardy,
    chain_angles_for_sweep,
    equal_angles,
    eta_equal_bs,
    eta_general,
    gamma_closed,
    gamma_diagonal,
    gamma_from_alpha_beta,
    validate_chain_angles,
)


def hardy_amplitudes(theta0, theta1):
    """Independent closed form for the final 3-qubit state of build_hardy.

    Derived by multiplying the four gate layers by hand: RY(t) sends |0> to
    cos(t/2)|0> + sin(t/2)|1>, and RY(pi - t) swaps the roles of cos and sin.
    """
    c0, s0 = np.cos(theta0 / 2), np.sin(theta0 / 2)
    c1, s1 = np.cos(theta1 / 2), np.sin(theta1 / 2)
    return {
        "000": -c0 * c1 * s0 * s1,
        "001": c0 * c1 * s0 * s1,
        "010": c0 * s0 * s1**2,
        "011": -c0 * s0 * s1**2,
        "100": c1 * s0**2 * s1,
        "101": -c1 * s0**2 * s1,
        "110": c0**2 + s0**2 * c1**2,
        "111": s0**2 * s1**2,
    }


class TestEraserAndBomb:
    def test_eraser_circuit_layout(self):
        names = [i.gate.name for i in build_eraser(True).gate_instructions()]
        assert names == ["H", "CNOT", "H", "H"]
        names = [i.gate.name for i in build_eraser(False).gate_instructions()]
        assert names == ["H", "CNOT", "H"]
        # the extra H acts on the marker qubit
        assert build_eraser(True).gate_instructions()[2].qubits == (1,)

    def test_erased_distribution_is_half_half(self):
        dist = simulate_ideal(build_eraser(True)).probability_dict(cutoff=1e-12)
        assert set(dist) == {"00", "11"}
        np.testing.assert_allclose(list(dist.values()), [0.5, 0.5], atol=1e-14)

    def test_non_erased_distribution_is_uniform(self):
        probs = simulate_ideal(build_eraser(False)).probabilities()
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-14)

    def test_bomb_present_matches_which_path_circuit(self):
        assert build_bomb(True) == build_eraser(False)

    def test_bomb_absent_is_transparent(self):
        dist = simulate_ideal(build_bomb(False)).probability_dict(cutoff=1e-12)
        assert dist == {"00": pytest.approx(1.0)}

    def test_bomb_present_eta_is_one_third(self):
        dist = simulate_ideal(build_bomb(True)).probability_dict()
        assert eta_from_counts(dist, labeling="single-stage") == pytest.approx(1 / 3, abs=1e-12)


class TestChainAngles:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            validate_chain_angles((np.pi,))
        with pytest.raises(ValueError, match="lie in"):
            validate_chain_angles((-0.1, np.pi + 0.1))
        with pytest.raises(ValueError, match="sum to pi"):
            validate_chain_angles((np.pi / 2, np.pi / 2 + 1e-6))

    def test_accepts_tolerable_rounding(self):
        thetas = validate_chain_angles((np.pi / 3,) * 3)
        assert thetas == tuple(float(np.pi / 3) for _ in range(3))

    def test_equal_angles_sum_to_pi(self):
        for n in range(2, 9):
            angles = equal_angles(n)
            assert len(angles) == n
            assert sum(angles) == pytest.approx(np.pi, abs=1e-12)

    def test_sweep_chain_shape(self):
        theta = 0.6 * np.pi
        angles = chain_angles_for_sweep(theta, 4)
        assert angles[-1] == theta
        assert angles[0] == angles[1] == angles[2] == pytest.approx((np.pi - theta) / 3)
        assert sum(angles) == pytest.approx(np.pi, abs=1e-12)
        with pytest.raises(ValueError, match="n >= 2"):
            chain_angles_for_sweep(theta, 1)
        with pytest.raises(ValueError, match="theta"):
            chain_angles_for_sweep(np.pi, 3)


class TestEtaClosedForms:
    def test_two_beamsplitters_give_one_third(self):
        assert eta_equal_bs(2) == pytest.approx(1 / 3, abs=1e-15)

    def test_needs_two_beamsplitters(self):
        with pytest.raises(ValueError, match="n >= 2"):
            eta_equal_bs(1)

    def test_monotone_toward_certain_detection(self):
        values = [eta_equal_bs(n) for n in range(2, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_frozen_reference_points(self):
        assert eta_equal_bs(10) == pytest.approx(0.7961347793734905, abs=1e-15)
        assert eta_equal_bs(100) == pytest.approx(0.9758618684005929, abs=1e-15)
        assert eta_equal_bs(100) > 0.97

    def test_general_form_reduces_to_equal_form(self):
        for n in range(2, 9):
            assert eta_general(equal_angles(n)) == pytest.approx(eta_equal_bs(n), abs=1e-12)

    def test_degenerate_chain_rejected(self):
        # first angle 0 and last angle pi: the photon is routed straight
        # into the absorber and the conditional probability is undefined
        with pytest.raises(ValueError, match="degenerate"):
            eta_general((0.0, np.pi))


class TestGeneralBombCircuit:
    def test_circuit_layout(self):
        c = build_general_bomb(equal_angles(3))
        kinds = [(i.gate.name, i.qubits) for i in c.gate_instructions()]
        assert kinds == [("RY", (0,)), ("CNOT", (0, 1)), ("RY", (0,)),
                         ("CNOT", (0, 2)), ("RY", (0,))]
        assert c.measured_qubits == (0, 1, 2)

    def test_circuit_matches_closed_form(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            raw = rng.uniform(0.05, 1.0, size=n)
            angles = tuple(raw * np.pi / raw.sum())
            dist = simulate_ideal(build_general_bomb(angles)).probability_dict()
            eta_circ = eta_from_counts(dist, labeling="multi-stage")
            assert eta_circ == pytest.approx(eta_general(angles), abs=1e-9)

    def test_rejects_bad_angles(self):
        with pytest.raises(ValueError, match="sum to pi"):
            build_general_bomb((0.3, 0.3))


class TestHardy:
    def test_circuit_amplitudes_match_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            t0, t1 = rng.uniform(0.0, np.pi, size=2)
            state = simulate_ideal(build_hardy(t0, t1))
            for bits, amp in hardy_amplitudes(t0, t1).items():
                assert state.amplitude(bits) == pytest.approx(amp, abs=1e-12)

    def test_angle_validation(self):
        with pytest.raises(ValueError, match="lie in"):
            build_hardy(-0.1, 0.5)
        with pytest.raises(ValueError, match="lie in"):
            build_hardy(0.5, np.pi + 0.2)

    def test_gamma_closed_matches_postselected_circuit(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            t0, t1 = rng.uniform(0.1, 0.95 * np.pi, size=2)
            dist = simulate_ideal(build_hardy(t0, t1)).probability_dict()
            assert gamma_from_counts(dist) == pytest.approx(gamma_closed(t0, t1), abs=1e-12)

    def test_gamma_diagonal_is_the_diagonal(self):
        for t in np.linspace(0.05 * np.pi, 0.95 * np.pi, 13):
            assert gamma_diagonal(t) == pytest.approx(gamma_closed(t, t), abs=1e-14)

    def test_gamma_endpoint_limit(self):
        assert gamma_closed(np.pi, np.pi) == 0.0

    def test_gamma_max_constant(self):
        assert GAMMA_MAX == pytest.approx(0.5 * (5 * np.sqrt(5) - 11), abs=1e-15)
        # the diagonal curve really does top out just below the constant
        grid = np.linspace(0.4 * np.pi, 0.7 * np.pi, 600)
        assert max(gamma_diagonal(t) for t in grid) <= GAMMA_MAX + 1e-12

    def test_substitution_route_agrees(self):
        # gamma via the (alpha, beta) parametrization equals the direct form
        for t in np.linspace(0.1 * np.pi, 0.9 * np.pi, 17):
            a, b = alpha_beta_from_theta(t)
            assert gamma_from_alpha_beta(a, b) == pytest.approx(gamma_diagonal(t), abs=1e-12)

    def test_alpha_beta_validation(self):
        with pytest.raises(ValueError, match="lie in"):
            alpha_beta_from_theta(-0.5)
        with pytest.raises(ValueError, match="alpha\\*beta"):
            gamma_from_alpha_beta(1.0, 1.0)


class TestExperimentSpec:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            ExperimentSpec("teleportation")

    def test_eraser_spec(self):
        spec = ExperimentSpec("eraser", erase=True)
        assert spec.build() == build_eraser(True)
        assert spec.observable() == "distribution"
        assert spec.theory() == {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}
        assert ExperimentSpec("eraser", erase=False).theory() == {
            "00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}

    def test_bomb_spec(self):
        spec = ExperimentSpec("bomb", present=True)
        assert spec.build() == build_bomb(True)
        assert spec.observable() == "eta"
        assert spec.theory() == pytest.approx(1 / 3)
        absent = ExperimentSpec("bomb", present=False)
        assert absent.observable() == "distribution"
        assert absent.theory()["00"] == 1.0

    def test_general_bomb_spec(self):
        angles = equal_angles(4)
        spec = ExperimentSpec("general-bomb", angles=angles)
        assert spec.build() == build_general_bomb(angles)
        assert spec.observable() == "eta"
        assert spec.theory() == pytest.approx(eta_equal_bs(4))

    def test_hardy_spec(self):
        spec = ExperimentSpec("hardy", theta0=0.5, theta1=0.7)
        assert spec.build() == build_hardy(0.5, 0.7)
        assert spec.observable() == "gamma"
        assert spec.theory() == pytest.approx(gamma_closed(0.5, 0.7))

    @pytest.mark.parametrize("angles", [(0.0, np.pi), (0.0, 0.0, np.pi)])
    def test_degenerate_chain_is_rejected_when_made(self, angles):
        with pytest.raises(ValueError, match="degenerate chain"):
            ExperimentSpec("general-bomb", angles=angles)

    def test_chain_angles_are_checked_once(self, monkeypatch):
        calls = []

        def counted(angles):
            calls.append(angles)
            return validate_chain_angles(angles)

        monkeypatch.setattr("mzsim.experiments.validate_chain_angles", counted)
        spec = ExperimentSpec("general-bomb", angles=[np.pi / 4] * 4)
        assert len(calls) == 1
        assert spec.build() == build_general_bomb(equal_angles(4))
        assert spec.theory() == eta_general(equal_angles(4))

    def test_public_chain_functions_check_their_angles(self):
        for public in (build_general_bomb, eta_general):
            with pytest.raises(ValueError, match="sum to pi"):
                public((0.3, 0.3))
            with pytest.raises(ValueError, match="at least 2"):
                public((np.pi,))

    def test_angle_range_checked(self):
        with pytest.raises(ValueError, match="lie in"):
            ExperimentSpec("hardy", theta0=4.0, theta1=0.5)

    @pytest.mark.parametrize("spec", [
        pytest.param(ExperimentSpec("eraser"), id="eraser"),
        pytest.param(ExperimentSpec("eraser", erase=False), id="marker"),
        pytest.param(ExperimentSpec("bomb"), id="bomb"),
        pytest.param(ExperimentSpec("bomb", present=False), id="empty"),
        pytest.param(ExperimentSpec("hardy", theta0=0.5, theta1=0.7), id="hardy"),
        *(pytest.param(ExperimentSpec("general-bomb", angles=equal_angles(n)), id=f"chain-{n}")
          for n in range(2, 25)),
    ])
    def test_num_qubits_is_the_built_width(self, spec):
        assert spec.num_qubits == spec.build().num_qubits

    def test_chain_wider_than_the_simulator_is_rejected_when_made(self):
        with pytest.raises(ValueError, match=r"num_qubits must be in \[1, 24\], got 25"):
            ExperimentSpec("general-bomb", angles=equal_angles(25))
