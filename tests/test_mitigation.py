import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mzsim
from mzsim import mitigation
from mzsim.circuit import CountsHistogram
from mzsim.mitigation import (
    CONDITION_LIMIT,
    ConfusionMatrix,
    IllConditionedMatrixError,
    build_confusion_matrix,
    exact_confusion_matrix,
    mitigate,
    total_variation_distance,
)
from mzsim.cli import main
from mzsim.experiments import build_general_bomb, equal_angles
from mzsim.noise import DeviceModel, device_preset, simulate_noisy


def symmetric_device(p, n=2):
    return DeviceModel("sym", n, 50.0, 50.0, 0.0,
                       tuple((p, p) for _ in range(n)),
                       tuple((q, q + 1) for q in range(n - 1)))


def random_distribution(rng, dim):
    v = rng.random(dim)
    return v / v.sum()


class TestConfusionMatrix:
    def test_columns_must_be_stochastic(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConfusionMatrix(1, np.array([[0.9, 0.0], [0.0, 0.9]]))
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            ConfusionMatrix(1, np.array([[1.5, 0.5], [-0.5, 0.5]]))
        with pytest.raises(ValueError, match="expected 4x4"):
            ConfusionMatrix(2, np.eye(2))

    def test_condition_number_of_identity(self):
        assert ConfusionMatrix(1, np.eye(2)).condition_number() == pytest.approx(1.0)


class TestExactConfusion:
    def test_single_qubit_structure(self):
        dev = DeviceModel("a", 1, 50.0, 50.0, 0.0, ((0.03, 0.07),), ())
        m = exact_confusion_matrix(dev, 1).matrix
        np.testing.assert_allclose(m, [[0.97, 0.07], [0.03, 0.93]])

    def test_tensor_product_structure(self):
        dev = DeviceModel("b", 2, 50.0, 50.0, 0.0, ((0.1, 0.2), (0.05, 0.0)), ((0, 1),))
        m = exact_confusion_matrix(dev, 2).matrix
        m0 = np.array([[0.9, 0.2], [0.1, 0.8]])
        m1 = np.array([[0.95, 0.0], [0.05, 1.0]])
        np.testing.assert_allclose(m, np.kron(m0, m1))

    def test_zero_noise_is_identity(self):
        dev = symmetric_device(0.0, 3)
        np.testing.assert_array_equal(exact_confusion_matrix(dev, 3).matrix, np.eye(8))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_condition_number_from_factors_matches_dense_svd(self, n):
        rng = np.random.default_rng(700 + n)
        readout = tuple((rng.uniform(0.0, 0.45), rng.uniform(0.0, 0.45)) for _ in range(n))
        dev = DeviceModel("skew", n, 50.0, 50.0, 0.0, readout,
                          tuple((q, q + 1) for q in range(n - 1)))
        conf = exact_confusion_matrix(dev, n)
        assert len(conf.factors) == n
        assert conf.condition_number() == pytest.approx(np.linalg.cond(conf.matrix), rel=1e-9)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matrix_is_the_kron_chain_bit_for_bit(self, n):
        rng = np.random.default_rng(900 + n)
        readout = tuple((rng.uniform(0.0, 0.45), rng.uniform(0.0, 0.45)) for _ in range(n))
        dev = DeviceModel("skew", n, 50.0, 50.0, 0.0, readout,
                          tuple((q, q + 1) for q in range(n - 1)))
        chain = np.array([[1.0]])
        for p01, p10 in readout:
            chain = np.kron(chain, np.array([[1 - p01, p10], [p01, 1 - p10]]))
        assert exact_confusion_matrix(dev, n).matrix.tobytes() == chain.tobytes()

    def test_over_limit_message_is_unchanged(self):
        # the last qubit's flip matrix has determinant 1e-9
        readout = ((0.02, 0.05), (0.03, 0.01), (0.5 - 1e-9, 0.5))
        dev = DeviceModel("near", 3, 50.0, 50.0, 0.0, readout, ((0, 1), (1, 2)))
        conf = exact_confusion_matrix(dev, 3)
        dense = np.linalg.cond(conf.matrix)
        assert dense > CONDITION_LIMIT
        with pytest.raises(IllConditionedMatrixError) as info:
            mitigate({"000": 1}, conf)
        assert str(info.value) == (
            f"confusion matrix condition number {dense:.3e} exceeds {CONDITION_LIMIT:.0e}")

    def test_sampled_and_loaded_matrices_use_the_full_svd(self, monkeypatch):
        sampled = build_confusion_matrix(symmetric_device(0.05, 2), 2, shots=500, seed=3)
        loaded = ConfusionMatrix(2, exact_confusion_matrix(symmetric_device(0.05, 2), 2).matrix)
        assert sampled.factors == () and loaded.factors == ()
        calls = []
        monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(np.shape(m)) or 1.0)
        sampled.condition_number()
        loaded.condition_number()
        assert calls == [(4, 4), (4, 4)]

    def test_factor_count_must_match(self):
        with pytest.raises(ValueError, match="factors"):
            ConfusionMatrix(1, np.eye(2), factors=(np.eye(2), np.eye(2)))

    def test_partial_measurement_uses_measured_qubits_rates(self):
        # x(1) then measure(1, 0): the one key bit is qubit 1, read through (0.2, 0.3)
        from mzsim.circuit import Circuit

        dev = DeviceModel("p", 2, 50.0, 50.0, 0.0, ((0.0, 0.0), (0.2, 0.3)), ((0, 1),))
        circ = Circuit(2, 1).x(1).measure(1, 0)
        exact_readout = {"0": 0.3, "1": 0.7}
        corrected = mitigate(exact_readout, exact_confusion_matrix(dev, circ.measured_qubits))
        assert total_variation_distance(corrected, {"1": 1.0}) <= 1e-9
        # an int k still means qubits 0..k-1
        np.testing.assert_array_equal(exact_confusion_matrix(dev, 1).matrix, np.eye(2))

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="2-qubit device"):
            exact_confusion_matrix(symmetric_device(0.1, 2), (0, 2))


class TestBuildConfusion:
    def test_converges_to_exact(self):
        dev = symmetric_device(0.04, 2)
        est = build_confusion_matrix(dev, 2, shots=200_000, seed=11).matrix
        exact = exact_confusion_matrix(dev, 2).matrix
        assert np.max(np.abs(est - exact)) < 0.005

    def test_measured_subset_converges_to_exact(self):
        dev = DeviceModel("p", 3, 50.0, 50.0, 0.0,
                          ((0.0, 0.0), (0.2, 0.3), (0.05, 0.1)), ((0, 1), (1, 2)))
        est = build_confusion_matrix(dev, (1, 2), shots=200_000, seed=11).matrix
        exact = exact_confusion_matrix(dev, (1, 2)).matrix
        assert np.max(np.abs(est - exact)) < 0.005

    def test_deterministic(self):
        dev = symmetric_device(0.1, 2)
        a = build_confusion_matrix(dev, 2, shots=500, seed=3)
        b = build_confusion_matrix(dev, 2, shots=500, seed=3)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_columns_are_distributions(self):
        dev = device_preset("essex")
        m = build_confusion_matrix(dev, 3, shots=2000, seed=0).matrix
        np.testing.assert_allclose(m.sum(axis=0), np.ones(8), atol=1e-12)
        assert np.all(m >= 0)

    def test_validation(self):
        dev = symmetric_device(0.1, 2)
        with pytest.raises(ValueError, match="shots"):
            build_confusion_matrix(dev, 2, shots=0, seed=0)
        with pytest.raises(ValueError, match="2-qubit device"):
            build_confusion_matrix(dev, 3, shots=10, seed=0)


class TestMitigate:
    def test_exact_recovery_interior(self):
        # p = M x with x strictly positive: the direct solve is exact
        rng = np.random.default_rng(0)
        dev = symmetric_device(0.05, 2)
        conf = exact_confusion_matrix(dev, 2)
        for _ in range(25):
            x = 0.1 + rng.random(4)
            x /= x.sum()
            p = conf.matrix @ x
            out = mitigate(p, conf)
            recovered = np.array([out[format(i, "02b")] for i in range(4)])
            np.testing.assert_allclose(recovered, x, atol=1e-8)

    def test_exact_recovery_on_boundary(self):
        # ideal distribution with zero entries still recovers exactly
        dev = symmetric_device(0.03, 2)
        conf = exact_confusion_matrix(dev, 2)
        x = np.array([0.5, 0.0, 0.0, 0.5])
        out = mitigate(conf.matrix @ x, conf)
        recovered = np.array([out[format(i, "02b")] for i in range(4)])
        np.testing.assert_allclose(recovered, x, atol=1e-8)

    def test_output_is_valid_distribution_even_for_noisy_input(self):
        # sampled counts can push the naive inverse outside the simplex
        rng = np.random.default_rng(5)
        dev = symmetric_device(0.08, 2)
        conf = exact_confusion_matrix(dev, 2)
        for _ in range(20):
            raw = rng.multinomial(300, random_distribution(rng, 4))
            counts = {format(i, "02b"): int(c) for i, c in enumerate(raw) if c}
            out = mitigate(counts, conf)
            vals = np.array(list(out.values()))
            assert np.all(vals >= 0)
            assert vals.sum() == pytest.approx(1.0, abs=1e-9)

    def test_never_increases_tv_on_exact_inputs(self):
        # for p = M x the solver returns x itself, so TV can only improve
        rng = np.random.default_rng(9)
        dev = symmetric_device(0.06, 2)
        conf = exact_confusion_matrix(dev, 2)
        for _ in range(25):
            x = random_distribution(rng, 4)
            p = conf.matrix @ x
            out = mitigate(p, conf)
            recovered = np.array([out[format(i, "02b")] for i in range(4)])
            assert total_variation_distance(recovered, x) <= total_variation_distance(p, x) + 1e-12

    def test_accepts_histograms_dicts_and_vectors(self):
        dev = symmetric_device(0.05, 1)
        conf = exact_confusion_matrix(dev, 1)
        hist = CountsHistogram(10, {"0": 7, "1": 3})
        by_hist = mitigate(hist, conf)
        by_dict = mitigate({"0": 7, "1": 3}, conf)
        by_vec = mitigate(np.array([0.7, 0.3]), conf)
        assert by_hist == by_dict == by_vec
        assert set(by_hist) == {"0", "1"}

    def test_ill_conditioned_matrix_rejected(self):
        # p01 = p10 = 0.5 makes the flip matrix singular
        near = ConfusionMatrix(1, np.array([[0.5 + 1e-12, 0.5 - 1e-12],
                                            [0.5 - 1e-12, 0.5 + 1e-12]]))
        assert near.condition_number() > CONDITION_LIMIT
        with pytest.raises(IllConditionedMatrixError, match="condition number"):
            mitigate({"0": 1, "1": 1}, near)

    def test_bad_inputs(self):
        conf = exact_confusion_matrix(symmetric_device(0.01, 1), 1)
        with pytest.raises(ValueError, match="empty"):
            mitigate({}, conf)
        with pytest.raises(ValueError, match="does not have 1 bits"):
            mitigate({"00": 1}, conf)
        with pytest.raises(ValueError, match="power of two"):
            mitigate(np.array([0.2, 0.3, 0.5]), conf)


class TestMalformedDistributions:
    """mitigate and total_variation_distance reject what is not a distribution."""

    conf = exact_confusion_matrix(symmetric_device(0.05, 2), 2)

    def test_empty_vector(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty probability vector"):
                mitigate(np.array([]), self.conf)
            with pytest.raises(ValueError, match="empty probability vector"):
                total_variation_distance(np.array([]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_weights_that_are_not_finite(self, bad):
        with pytest.raises(ValueError, match="is not finite and nonnegative"):
            mitigate(np.array([0.5, bad, 0.25, 0.25]), self.conf)
        with pytest.raises(ValueError, match="is not finite and nonnegative"):
            mitigate({"00": 1.0, "11": bad}, self.conf)
        with pytest.raises(ValueError, match="is not finite and nonnegative"):
            total_variation_distance([0.5, bad], [0.5, 0.5])

    def test_negative_weights(self):
        with pytest.raises(ValueError, match="weight -1.0 of '00' is not finite and nonnegative"):
            mitigate(np.array([-1.0, 2.0, 0.0, 0.0]), self.conf)
        with pytest.raises(ValueError, match="is not finite and nonnegative"):
            total_variation_distance({"0": -1.0, "1": 2.0}, {"0": 1.0})

    def test_vector_of_the_wrong_width(self):
        with pytest.raises(ValueError, match="vector of 8 entries does not fit 2 qubits"):
            mitigate(np.full(8, 0.125), self.conf)


def asymmetric_device(rng, n):
    readout = tuple((rng.uniform(0.005, 0.03), rng.uniform(0.02, 0.07)) for _ in range(n))
    return DeviceModel("skew", n, 50.0, 50.0, 0.0, readout,
                       tuple((q, q + 1) for q in range(n - 1)))


class TestFallbackOptimality:
    """The constrained fallback is checked against the KKT conditions of

        minimize ||M x - p||^2   subject to   x >= 0,  sum(x) = 1,

    computed here from M and p alone, so the check does not trust the solver:
    with g = 2 M^T (M x - p) there is one lambda with g = lambda on the
    support of x and g >= lambda off it.
    """

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fallback_meets_kkt_conditions(self, n):
        rng = np.random.default_rng(1000 + n)
        conf = exact_confusion_matrix(asymmetric_device(rng, n), n)
        m = conf.matrix
        dim = 2**n
        support = rng.choice(dim, size=max(2, dim // 8), replace=False)
        raw = np.bincount(rng.choice(support, size=1000), minlength=dim)
        p = raw / raw.sum()
        assert np.linalg.solve(m, p).min() < -1e-10  # the fallback really runs

        counts = {format(i, f"0{n}b"): int(c) for i, c in enumerate(raw) if c}
        out = mitigate(counts, conf)
        x = np.array([out[format(i, f"0{n}b")] for i in range(dim)])
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-9

        g = 2.0 * m.T @ (m @ x - p)
        on = x > 0.0
        lam = g[on].mean()
        assert np.max(np.abs(g[on] - lam)) <= 1e-7
        assert np.all(g[~on] >= lam - 1e-7)

    def test_solver_failure_is_a_value_error(self, monkeypatch, capsys):
        monkeypatch.setattr(mitigation, "_MAX_STEPS", 0)
        conf = exact_confusion_matrix(symmetric_device(0.08, 2), 2)
        assert np.linalg.solve(conf.matrix, [1.0, 0.0, 0.0, 0.0]).min() < 0
        with pytest.raises(ValueError, match="did not converge"):
            mitigate({"00": 1}, conf)
        # this run's histogram takes the fallback, which now gives up: exit 3
        code = main(["run", "--experiment", "bomb", "--no-bomb", "--device", "vigo",
                     "--shots", "1000", "--seed", "2", "--mitigate"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: mitigation fallback did not converge\n"


def kkt_violation(m, p, x):
    """Largest violation of the KKT conditions of min ||M x - p||^2 / 2 over the
    simplex: g = M^T (M x - p) equals one lambda on the support and is >= it off it."""
    g = m.T @ (m @ x - p)
    on = x > 0.0
    lam = g[on].mean()
    off = lam - g[~on]
    return max(np.abs(g[on] - lam).max(), off.max() if off.size else 0.0)


def support_solution(m, p, support):
    """argmin ||M x - p|| with sum(x) = 1 and x = 0 off `support`, found by
    eliminating the last support entry (x_last = 1 - sum of the others)."""
    cols = m[:, support]
    last = cols[:, -1]
    head, *_ = np.linalg.lstsq(cols[:, :-1] - last[:, None], p - last, rcond=None)
    x = np.zeros(len(p))
    x[support] = np.append(head, 1.0 - head.sum())
    return x


def projected_direct_solve(m, p):
    """The direct solve projected onto the simplex, by bisection on the threshold."""
    v = np.linalg.solve(m, p)
    lo, hi = v.min() - 1.0, v.max()
    for _ in range(200):
        tau = (lo + hi) / 2
        lo, hi = (tau, hi) if np.maximum(v - tau, 0.0).sum() > 1.0 else (lo, tau)
    return np.maximum(v - hi, 0.0)


def sparse_input(n):
    """A TestFallbackOptimality-style histogram on 1/8 of the outcomes."""
    rng = np.random.default_rng(1000 + n)
    conf = exact_confusion_matrix(asymmetric_device(rng, n), n)
    dim = 2**n
    support = rng.choice(dim, size=max(2, dim // 8), replace=False)
    raw = np.bincount(rng.choice(support, size=1000), minlength=dim)
    return conf, raw / raw.sum()


#: seeds of sampled chain histograms whose projected direct solve has the wrong support
CHAIN_SEEDS = {5: 0, 6: 1, 7: 0, 8: 0}


def chain_input(n):
    """A 1024-shot noisy N-stage chain histogram on an asymmetric-readout device."""
    seed = CHAIN_SEEDS[n]
    device = asymmetric_device(np.random.default_rng(seed), n)
    hist = simulate_noisy(build_general_bomb(equal_angles(n)), device, 1024, seed=seed)
    p = np.zeros(2**n)
    for key, count in hist.counts.items():
        p[int(key, 2)] = count / hist.shots
    return exact_confusion_matrix(device, n), p


FALLBACK_INPUTS = ([("sparse", n) for n in range(2, 11)]
                   + [("chain", n) for n in sorted(CHAIN_SEEDS)])


def fallback_input(kind, n):
    return sparse_input(n) if kind == "sparse" else chain_input(n)


class TestSimplexLeastSquares:
    """The fallback against the KKT conditions, computed here from M and p, and
    against scipy's non-negative least squares with a penalty row for sum(x) = 1."""

    @pytest.mark.parametrize("kind, n", FALLBACK_INPUTS)
    def test_meets_kkt_conditions_to_rounding(self, kind, n):
        conf, p = fallback_input(kind, n)
        m = conf.matrix
        assert np.linalg.solve(m, p).min() < -1e-10  # the fallback really runs
        x = np.array(list(mitigate(p, conf).values()))
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) <= 1e-12
        assert kkt_violation(m, p, x) <= 1e-12

    @pytest.mark.parametrize("n", sorted(CHAIN_SEEDS))
    def test_chain_histograms_need_gradient_steps(self, n):
        # the support of the projected direct solve is not the optimal one, so the
        # fallback adds or drops support indices before
        # test_meets_kkt_conditions_to_rounding sees its result
        conf, p = chain_input(n)
        m = conf.matrix
        start = support_solution(m, p, projected_direct_solve(m, p) > 0.0)
        assert start.min() < 0.0 or kkt_violation(m, p, start) > 1e-6

    @pytest.mark.parametrize("kind, n", FALLBACK_INPUTS)
    def test_matches_penalised_nnls(self, kind, n):
        optimize = pytest.importorskip("scipy.optimize")
        conf, p = fallback_input(kind, n)
        m = conf.matrix
        dim = len(p)
        weight = 1e3
        ref, _ = optimize.nnls(np.vstack([m, np.full(dim, weight)]), np.append(p, weight),
                               maxiter=10 * dim)
        ref = np.clip(ref, 0.0, None) / ref.sum()
        x = np.array(list(mitigate(p, conf).values()))
        assert np.abs(x - ref).max() <= 1e-8
        assert np.linalg.norm(m @ x - p) <= np.linalg.norm(m @ ref - p) * (1 + 1e-12)


def heavy_noise_input(n, seed):
    """A 1,024-shot histogram of a Dirichlet(0.3) truth read through heavy readout
    noise: every p01 and p10 from 0.30-0.45 at 7 qubits, 0.38-0.41 at 8."""
    lo, hi = {7: (0.30, 0.45), 8: (0.38, 0.41)}[n]
    rng = np.random.default_rng(seed)
    readout = tuple((rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n))
    conf = exact_confusion_matrix(DeviceModel("heavy", n, 50.0, 50.0, 0.0, readout,
                                              tuple((q, q + 1) for q in range(n - 1))), n)
    truth = rng.dirichlet(np.full(2**n, 0.3))
    return conf, rng.multinomial(1024, conf.matrix @ truth) / 1024


@pytest.mark.parametrize("n, seed", [(n, seed) for n in (7, 8) for seed in range(4)])
def test_heavy_readout_noise_needs_few_support_solves(monkeypatch, n, seed):
    # these inputs need 30-42 support solves; 100 leaves room and bounds a count, not a time
    monkeypatch.setattr(mitigation, "_MAX_STEPS", 100)
    conf, p = heavy_noise_input(n, seed)
    m = conf.matrix
    assert conf.condition_number() <= CONDITION_LIMIT
    assert np.linalg.solve(m, p).min() < -1e-10  # the fallback really runs
    x = np.array(list(mitigate(p, conf).values()))
    assert kkt_violation(m, p, x) <= 1e-12


def wide_input(seed):
    """A wide-mitigate-style input: a 6-8-stage chain with jittered angles on an
    asymmetric-readout device with gate noise, sampled at about 1,000 shots."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 9))
    readout = tuple((rng.uniform(0.005, 0.03), rng.uniform(0.02, 0.07)) for _ in range(n))
    device = DeviceModel("wide", n, rng.uniform(50, 110), rng.uniform(40, 90),
                         rng.uniform(0.008, 0.018), readout,
                         tuple((q, q + 1) for q in range(n - 1)))
    weights = 1.0 + rng.uniform(-0.5, 0.5, n)
    angles = tuple(np.pi * weights / weights.sum())
    shots = int(rng.integers(960, 1089))
    hist = simulate_noisy(build_general_bomb(angles), device, shots, seed=seed)
    return exact_confusion_matrix(device, n), hist


def mitigated_digest(inputs):
    """SHA-256 of each mitigated output's keys, in order, and its float bytes."""
    digest = hashlib.sha256()
    for conf, data in inputs:
        out = mitigate(data, conf)
        digest.update(",".join(out).encode())
        digest.update(np.fromiter(out.values(), float, len(out)).tobytes())
    return digest.hexdigest()


class TestFallbackDigest:
    """The fallback's output bytes, key order included.  They are fixed by the
    final support solve, so any path to the optimal support must keep them."""

    FAMILIES = {
        "sparse": lambda: [sparse_input(n) for n in range(2, 11)],
        "chain": lambda: [chain_input(n) for n in range(5, 9)],
        "wide": lambda: [wide_input(seed) for seed in range(24)],
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_input_takes_the_fallback(self, family):
        for conf, data in self.FAMILIES[family]():
            p, _ = mitigation._as_probability_vector(data, conf.num_qubits)
            assert np.linalg.solve(conf.matrix, p).min() < -1e-10

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_no_direct_solve_runs(self, family, monkeypatch):
        # the factors decide and start every fallback here; only support solves remain
        inputs = self.FAMILIES[family]()
        solved = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
        for conf, data in inputs:
            mitigate(data, conf)
            assert solved and not any(a is conf.matrix for a in solved)
            solved.clear()

    @pytest.mark.parametrize("family, expected", [
        ("sparse", "a3c140ae3355b73a56e758017ce92d6b4e97752b4d535ce96cdb6cfd3c3e1831"),
        ("chain", "663ee574fd0ef28d3d72adb3323eea257ad4bc049924286fa7e6827cf9c24182"),
        ("wide", "c9948426c362c18bd98028128fef864b8d0f714ebc46fb55682233267f058156"),
    ])
    def test_output_bytes_are_pinned(self, family, expected):
        assert mitigated_digest(self.FAMILIES[family]()) == expected


def dense_mitigate(data, conf):
    """`mitigate`'s vector, decided by the dense LU alone: the direct solve, or the
    active-set fallback from it with the dense gradient M^T (M z - p)."""
    p, _ = mitigation._as_probability_vector(data, conf.num_qubits)
    m = conf.matrix
    x = np.linalg.solve(m, p)
    if x.min() < -1e-10:
        x = mitigation._project_to_simplex(x)
        support = x > 0.0
        for _ in range(mitigation._MAX_STEPS):
            z, multiplier = mitigation._support_solve(m, p, support)
            if z[support].min() > 0.0:
                gradient = m.T @ (m @ z - p)
                if gradient.min() >= -multiplier - mitigation._KKT_TOL:
                    x = z
                    break
                support[np.argmin(np.where(support, np.inf, gradient))] = True
                x = z
            else:
                shrinking = np.flatnonzero(support & (z <= 0.0))
                ratios = x[shrinking] / (x[shrinking] - z[shrinking])
                first = np.argmin(ratios)
                x = x + ratios[first] * (z - x)
                x[shrinking[first]] = 0.0
                support[shrinking[first]] = False
        else:
            raise AssertionError("the reference fallback did not converge")
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def readout_conf(rng, n, top):
    readout = tuple((rng.uniform(0.0, top), rng.uniform(0.0, top)) for _ in range(n))
    return exact_confusion_matrix(DeviceModel("r", n, 50.0, 50.0, 0.0, readout,
                                              tuple((q, q + 1) for q in range(n - 1))), n)


class TestFactorDecision:
    """With factors, `mitigate` decides the fallback from the factor solve y and
    starts it there; the dense LU runs only where it decides or is the output.
    Its bytes must equal those of the dense-decided reference above."""

    def test_sampled_inputs_match_the_dense_reference(self):
        rng = np.random.default_rng(28)
        sides = {True: 0, False: 0}
        for _ in range(300):
            n = int(rng.integers(1, 10)) if rng.random() < 0.3 else int(rng.integers(1, 7))
            conf = readout_conf(rng, n, rng.choice([0.03, 0.1, 0.25, 0.45]))
            if conf.condition_number() > CONDITION_LIMIT:
                continue
            truth = rng.dirichlet(np.full(2**n, rng.choice([0.1, 1.0, 10.0])))
            counts = rng.multinomial(int(rng.choice([64, 1024, 8192])), conf.matrix @ truth)
            p, _ = mitigation._as_probability_vector(counts, n)
            sides[bool(np.linalg.solve(conf.matrix, p).min() < -1e-10)] += 1
            out = np.array(list(mitigate(p, conf).values()))
            assert out.tobytes() == dense_mitigate(p, conf).tobytes()
        assert min(sides.values()) >= 50

    def test_inputs_at_the_threshold_match_the_dense_reference(self):
        # x has one entry within about 1e-17 of -1e-10, so the factor solve and the
        # LU can fall on either side of the threshold; where the factors alone would
        # take the fallback but the LU does not, only the margin keeps the bytes
        rng = np.random.default_rng(29)
        band = 0
        for _ in range(120):
            n = int(rng.integers(1, 7))
            conf = readout_conf(rng, n, 0.1)
            x = rng.dirichlet(np.full(2**n, 5.0))
            j = rng.integers(2**n)
            x[(j + 1) % 2**n] += x[j] + 1e-10
            x[j] = -1e-10 + rng.uniform(-1e-17, 1e-17)
            data = conf.matrix @ x
            p, _ = mitigation._as_probability_vector(data, n)  # the vector `mitigate` solves for
            y = mitigation._kron_apply(conf._inverses, p)
            band += bool(y.min() < -1e-10 <= np.linalg.solve(conf.matrix, p).min())
            out = np.array(list(mitigate(data, conf).values()))
            assert out.tobytes() == dense_mitigate(data, conf).tobytes()
        assert band > 0


def test_mitigated_run_never_imports_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mzsim.__file__)))
    code = (
        "import sys\n"
        "from mzsim.cli import main\n"
        "assert main(['run', '--experiment', 'bomb', '--no-bomb', '--device', 'vigo',\n"
        "             '--shots', '1000', '--seed', '2', '--mitigate', '--output', sys.argv[1]]) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestTotalVariation:
    def test_basic_properties(self):
        p = {"0": 0.5, "1": 0.5}
        q = {"0": 1.0}
        assert total_variation_distance(p, p) == 0.0
        assert total_variation_distance(p, q) == pytest.approx(0.5)
        assert total_variation_distance(q, {"1": 1.0}) == pytest.approx(1.0)

    def test_symmetry_and_mixed_input_types(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_distribution(rng, 8)
            q = random_distribution(rng, 8)
            d1 = total_variation_distance(p, q)
            d2 = total_variation_distance(q, p)
            assert d1 == pytest.approx(d2)
            assert 0.0 <= d1 <= 1.0
        pd = {format(i, "03b"): v for i, v in enumerate(p)}
        assert total_variation_distance(pd, q) == pytest.approx(d1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            total_variation_distance({"0": 1.0}, {"00": 1.0})


def test_readout_corruption_then_mitigation_pipeline():
    # end-to-end miniature of the mitigation workflow on sampled data
    from mzsim.circuit import Circuit
    from mzsim.noise import simulate_noisy

    dev = symmetric_device(0.06, 2)
    circ = Circuit(2, 2).h(0).cx(0, 1).measure_all()
    noisy = simulate_noisy(circ, dev, 50_000, seed=21)
    ideal = {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}
    before = total_variation_distance(noisy.probabilities(), ideal)
    after = total_variation_distance(
        mitigate(noisy, exact_confusion_matrix(dev, 2)), ideal)
    assert before > 0.05  # corruption is visible at p = 0.06 per qubit
    assert after < before
    assert after < 0.01
