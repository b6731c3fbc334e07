"""Device presets, calibration loading, and the stochastic noise sampler."""

import json
import tracemalloc
import warnings
from itertools import accumulate

import numpy as np
import pytest

from mzsim import noise
from mzsim._streams import MAX_SHOTS, Streams, _seed_state, below_three, doubles, seed_words
from mzsim.circuit import Circuit, CountsHistogram, gate_ops, simulate_ideal
from mzsim.cli import main
from mzsim.experiments import (
    build_bomb, build_eraser, build_general_bomb, build_hardy, equal_angles,
)
from mzsim.noise import (
    DEVICE_PRESETS,
    HOURGLASS_COUPLING,
    T_COUPLING,
    DeviceModel,
    _fault_paulis,
    _lockstep,
    _patterns,
    _widths,
    device_preset,
    ideal_counts,
    ideal_device,
    load_device,
    simulate_noisy,
)
from mzsim.states import evolve, init_state

T_EDGES = ((0, 1), (1, 2), (1, 3), (3, 4))
HOURGLASS_EDGES = ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))

#: the fault Paulis by code: 0 X, 1 Y, 2 Z
_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class TestPresets:
    def test_all_nine_backends_present(self):
        assert set(DEVICE_PRESETS) == {
            "burlington", "essex", "london", "ourense",
            "valencia-0820", "valencia-0920", "vigo-0820", "vigo-0920", "x2",
        }
        assert all(d.num_qubits == 5 for d in DEVICE_PRESETS.values())

    def test_calibration_table_values(self):
        # spot checks: percentages in the source table are stored as fractions
        vigo = device_preset("vigo-0820")
        assert vigo.t1_us == 73.28 and vigo.t2_us == 50.73
        assert vigo.cnot_error == pytest.approx(0.0107)
        assert vigo.readout_error_of(0) == pytest.approx(0.0166)
        essex = device_preset("essex")
        assert essex.cnot_error == pytest.approx(0.0176)
        assert essex.readout_error_of(3) == pytest.approx(0.0359)
        x2 = device_preset("x2")
        assert x2.t1_us == 57.08
        assert x2.readout_error_of(1) == pytest.approx(0.0318)

    def test_aliases_resolve_to_august_calibrations(self):
        assert device_preset("vigo") is device_preset("vigo-0820")
        assert device_preset("valencia") is device_preset("valencia-0820")
        assert device_preset("  Vigo ") is device_preset("vigo-0820")  # normalized

    def test_unknown_preset_lists_known_names(self):
        with pytest.raises(KeyError, match="unknown device preset"):
            device_preset("athens")

    def test_coupling_shapes(self):
        assert T_COUPLING == T_EDGES
        assert HOURGLASS_COUPLING == HOURGLASS_EDGES
        for name, dev in DEVICE_PRESETS.items():
            assert dev.coupling == (HOURGLASS_EDGES if name == "x2" else T_EDGES)

    def test_single_qubit_error_defaults_to_tenth_of_cnot(self):
        for dev in DEVICE_PRESETS.values():
            assert dev.single_qubit_error == pytest.approx(dev.cnot_error / 10.0)


class TestDeviceModel:
    def test_readout_pair_count_must_match(self):
        with pytest.raises(ValueError, match="readout pair"):
            DeviceModel("d", 2, 50.0, 50.0, 0.01, ((0.1, 0.1),), ((0, 1),))

    def test_needs_a_qubit(self):
        with pytest.raises(ValueError, match="num_qubits must be >= 1, got 0"):
            DeviceModel("d", 0, 50.0, 50.0, 0.01, (), ())

    def test_rate_ranges(self):
        with pytest.raises(ValueError, match="cnot_error"):
            DeviceModel("d", 1, 50.0, 50.0, 1.5, ((0.0, 0.0),), ())
        with pytest.raises(ValueError, match="readout"):
            DeviceModel("d", 1, 50.0, 50.0, 0.0, ((-0.1, 0.0),), ())
        with pytest.raises(ValueError, match="t1_us"):
            DeviceModel("d", 1, 0.0, 50.0, 0.0, ((0.0, 0.0),), ())

    def test_coupling_edges_validated_and_sorted(self):
        with pytest.raises(ValueError, match="coupling"):
            DeviceModel("d", 2, 50.0, 50.0, 0.0, ((0.0, 0.0),) * 2, ((0, 2),))
        with pytest.raises(ValueError, match="coupling"):
            DeviceModel("d", 2, 50.0, 50.0, 0.0, ((0.0, 0.0),) * 2, ((1, 1),))
        dev = DeviceModel("d", 2, 50.0, 50.0, 0.0, ((0.0, 0.0),) * 2, ((1, 0),))
        assert dev.coupling == ((0, 1),)

    def test_mean_readout_error(self):
        dev = DeviceModel("d", 2, 50.0, 50.0, 0.0, ((0.02, 0.04), (0.0, 0.02)), ((0, 1),))
        assert dev.mean_readout_error == pytest.approx((0.03 + 0.01) / 2)
        assert dev.readout_error_of(0) == pytest.approx(0.03)


#: ourense's calibration as a document that spells out every field
OURENSE_DOCUMENT = {
    "name": "ourense", "calibration_date": "2020-08", "num_qubits": 5,
    "t1_us": 93.15, "t2_us": 66.43, "single_qubit_error": 0.00092, "cnot_error": 0.0092,
    "readout_error": [[0.0296, 0.0296]] * 5, "coupling": [[0, 1], [1, 2], [1, 3], [3, 4]],
}


class TestLoadDevice:
    def test_literal_document_matches_the_preset(self):
        assert load_device(json.dumps(OURENSE_DOCUMENT)) == device_preset("ourense")

    def test_file_path_source(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(OURENSE_DOCUMENT))
        assert load_device(str(path)) == device_preset("ourense")

    def test_scalar_readout_becomes_symmetric(self):
        dev = load_device(json.dumps({
            "name": "toy", "num_qubits": 2, "t1_us": 80.0, "t2_us": 60.0,
            "cnot_error": 0.02, "readout_error": 0.05, "coupling": [[0, 1]],
        }))
        assert dev.readout == ((0.05, 0.05), (0.05, 0.05))
        assert dev.single_qubit_error == pytest.approx(0.002)

    def test_asymmetric_readout_pairs(self):
        dev = load_device(json.dumps({
            "name": "toy", "num_qubits": 1, "t1_us": 80.0, "t2_us": 60.0,
            "cnot_error": 0.0, "readout_error": [[0.01, 0.07]], "coupling": [],
        }))
        assert dev.readout == ((0.01, 0.07),)

    def test_missing_fields_reported(self):
        with pytest.raises(ValueError, match="missing field.*t1_us"):
            load_device('{"name": "x", "num_qubits": 1}')

    def test_bad_json(self, tmp_path):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_device("{nope")
        # non-object documents are rejected (arrays only reach the parser via files,
        # since raw-text input is recognized by a leading brace)
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_device(str(path))

    def test_missing_file(self):
        with pytest.raises(ValueError, match="no such calibration file"):
            load_device("/nonexistent/cal.json")

    @pytest.mark.parametrize("count", [4.9, 5.0, True, "5"])
    def test_num_qubits_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="num_qubits must be a JSON integer"):
            load_device(json.dumps({
                "name": "toy", "num_qubits": count, "t1_us": 80.0, "t2_us": 60.0,
                "cnot_error": 0.0, "readout_error": 0.0,
                "coupling": [[0, 1], [1, 2], [1, 3], [3, 4]],
            }))

    @pytest.mark.parametrize("edge", [[0, 1.9], ["0", True], [1.0, 2]])
    def test_coupling_indices_must_be_integers(self, edge):
        with pytest.raises(ValueError, match="invalid calibration.*expected an integer index"):
            load_device(json.dumps({
                "name": "toy", "num_qubits": 3, "t1_us": 80.0, "t2_us": 60.0,
                "cnot_error": 0.0, "readout_error": 0.0, "coupling": [edge, [1, 2]],
            }))

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError, match="invalid calibration"):
            load_device(json.dumps({
                "name": "bad", "num_qubits": 1, "t1_us": 80.0, "t2_us": 60.0,
                "cnot_error": 2.0, "readout_error": 0.0, "coupling": [],
            }))


def test_ideal_device_has_zero_rates():
    dev = ideal_device(3)
    assert dev.cnot_error == 0.0
    assert dev.single_qubit_error == 0.0
    assert dev.readout == ((0.0, 0.0),) * 3
    assert dev.coupling == ((0, 1), (1, 2))  # default path


def test_noise_channel_rates_keyed_by_arity():
    dev = device_preset("vigo")
    p2 = dev.cnot_error
    assert dev.gate_error(1) == pytest.approx(p2 / 10)
    assert dev.gate_error(2) == p2
    # three-qubit rate priced as the gate's own 6-CNOT expansion
    assert dev.gate_error(3) == pytest.approx(1.0 - (1.0 - p2) ** 6)


class TestSampleCounts:
    """`ideal_counts`, the sampler on a device without noise."""

    def test_reproducible_and_complete(self):
        circ = Circuit(2).h(0).cx(0, 1)
        a = ideal_counts(circ, 1000, seed=42)
        b = ideal_counts(circ, 1000, seed=42)
        assert a == b
        assert sum(a.counts.values()) == 1000
        assert set(a.counts) <= {"00", "11"}  # Bell state support only

    def test_shot_i_consumes_uniform_i(self):
        # pin the RNG contract: searchsorted over the cumulative distribution,
        # fed by the raw PCG64 stream in shot order
        circ = Circuit(2).h(0).h(1)
        shots, seed = 64, 9
        us = np.random.default_rng(seed).random(shots)
        cum = np.cumsum(simulate_ideal(circ).probabilities())
        expected: dict[str, int] = {}
        for u in us:
            idx = int(np.searchsorted(cum, u, side="right"))
            key = format(idx, "02b")
            expected[key] = expected.get(key, 0) + 1
        assert list(ideal_counts(circ, shots, seed).counts.items()) == list(expected.items())

    def test_measured_subset_marginalizes(self):
        hist = ideal_counts(Circuit(3, 1).x(0).h(2).measure(0, 0), 100, seed=0)
        assert hist.counts == {"1": 100}
        # measured q2 first: keys still read the qubits in order (q0, q2)
        hist2 = ideal_counts(Circuit(3, 2).x(0).h(2).measure(2, 0).measure(0, 1), 100, seed=0)
        assert set(hist2.counts) <= {"10", "11"}  # q0 always 1, q2 random

    def test_statistics_converge(self):
        hist = ideal_counts(Circuit(1).ry(2 * np.arcsin(np.sqrt(0.3)), 0), 20000, seed=7)
        p1 = hist.counts.get("1", 0) / 20000
        assert abs(p1 - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 20000)

    # the qubits measured, in statement order; None measures none, so all are read
    @pytest.mark.parametrize("measured", [None, (0,), (2, 0), (1, 2)])
    def test_blocks_match_one_sorted_draw(self, measured, monkeypatch):
        """Counting block by block gives the histogram, key order included, of
        one `random(shots)` draw searchsorted and tallied shot by shot."""
        circ = Circuit(3, 3).h(0).ry(0.9, 1).cx(0, 2).h(2)
        for c, q in enumerate(measured or ()):
            circ.measure(q, c)
        for seed, shots in ((0, 1), (5, 37), (2**40 + 1, 1000)):
            expected = _ideal_reference(circ, shots, seed)
            for size in (noise._BLOCK_SHOTS, 1, 7, shots):
                with monkeypatch.context() as patch:
                    patch.setattr(noise, "_BLOCK_SHOTS", size)
                    got = ideal_counts(circ, shots, seed)
                assert got.shots == shots
                assert list(got.counts.items()) == list(expected.counts.items())

    def test_peak_memory_is_bounded_by_the_block(self, monkeypatch):
        """Sixteen times the shots leave the traced peak flat; holding every
        shot's uniform and outcome would add at least 16 bytes a shot."""
        monkeypatch.setattr(noise, "_BLOCK_SHOTS", 256)

        def peak(shots):
            tracemalloc.start()
            try:
                ideal_counts(build_bomb(True), shots, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ideal_counts(build_bomb(True), 4096, 1)  # warm numpy and the free lists
        base = peak(1024)
        assert peak(16 * 1024) < 1.5 * base

    def test_argument_validation(self, monkeypatch):
        circ = Circuit(1)
        with pytest.raises(ValueError, match="shots"):
            ideal_counts(circ, 0, seed=0)
        with pytest.raises(ValueError, match="seed"):
            ideal_counts(circ, 1, seed=-1)

        def unreachable(*args, **kwargs):
            raise AssertionError("sampled past the shot cap")

        monkeypatch.setattr(np.random, "default_rng", unreachable)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            ideal_counts(circ, MAX_SHOTS + 1, seed=0)


class TestSimulateNoisy:
    def test_zero_noise_is_bit_identical_to_ideal_sampling(self):
        # the all-rates-zero channel must not consume any extra randomness
        circuits = [
            Circuit(2, 2).h(0).cx(0, 1).measure_all(),
            Circuit(3, 3).h(0).cx(0, 1).ccx(0, 1, 2).measure_all(),
            Circuit(1, 1).ry(1.1, 0).measure(0, 0),
        ]
        for circ in circuits:
            dev = ideal_device(circ.num_qubits)
            for seed in (0, 3, 17):
                expected = list(_ideal_reference(circ, 500, seed).counts.items())
                assert list(simulate_noisy(circ, dev, 500, seed).counts.items()) == expected
                assert list(ideal_counts(circ, 500, seed).counts.items()) == expected

    def test_deterministic_per_seed(self):
        circ = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        vigo = device_preset("vigo")
        assert simulate_noisy(circ, vigo, 300, 5) == simulate_noisy(circ, vigo, 300, 5)
        assert simulate_noisy(circ, vigo, 300, 5) != simulate_noisy(circ, vigo, 300, 6)

    def test_readout_flip_rate(self):
        # |0> measured through a p01=0.2 flip: expect ~20% ones
        dev = DeviceModel("flippy", 1, 50.0, 50.0, 0.0, ((0.2, 0.0),), ())
        circ = Circuit(1, 1).measure(0, 0)
        hist = simulate_noisy(circ, dev, 20000, seed=1)
        p1 = hist.counts.get("1", 0) / 20000
        assert abs(p1 - 0.2) < 4 * np.sqrt(0.2 * 0.8 / 20000)

    def test_gate_noise_rate(self):
        # single X gate, error rate r: Pauli X or Y after it restores |0>,
        # Pauli Z leaves |1>; so P(measure 0) = 2r/3
        dev = DeviceModel("noisy1q", 1, 50.0, 50.0, 0.0,
                          ((0.0, 0.0),), (), single_qubit_error=0.3)
        circ = Circuit(1, 1).x(0).measure(0, 0)
        hist = simulate_noisy(circ, dev, 20000, seed=2)
        p0 = hist.counts.get("0", 0) / 20000
        assert abs(p0 - 0.2) < 4 * np.sqrt(0.2 * 0.8 / 20000)

    def test_asymmetric_readout_directions(self):
        # p10-only noise never corrupts a |0> preparation
        dev = DeviceModel("oneway", 1, 50.0, 50.0, 0.0, ((0.0, 0.5),), ())
        circ = Circuit(1, 1).measure(0, 0)
        assert simulate_noisy(circ, dev, 2000, seed=3).counts == {"0": 2000}
        # ...but corrupts roughly half of a |1> preparation
        circ1 = Circuit(1, 1).x(0).measure(0, 0)
        hist = simulate_noisy(circ1, dev, 20000, seed=3)
        assert abs(hist.counts["0"] / 20000 - 0.5) < 4 * np.sqrt(0.25 / 20000)

    def test_unmeasured_circuit_reads_all_qubits(self):
        circ = Circuit(2).x(0)
        hist = simulate_noisy(circ, ideal_device(2), 50, seed=0)
        assert hist.counts == {"10": 50}

    def test_measured_subset_key_order(self):
        circ = Circuit(3, 3).x(0).measure(2, 2).measure(0, 0)
        hist = simulate_noisy(circ, ideal_device(3), 40, seed=0)
        # measured_qubits is sorted: key reads (q0, q2)
        assert hist.counts == {"10": 40}

    def test_circuit_must_fit_device(self):
        circ = Circuit(6, 6).measure_all()
        with pytest.raises(ValueError, match="has 5"):
            simulate_noisy(circ, device_preset("vigo"), 10, 0)

    def test_shots_beyond_the_streams_are_rejected_before_sampling(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled past the shot cap")

        monkeypatch.setattr(np.random, "default_rng", unreachable)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            simulate_noisy(build_bomb(True), device_preset("vigo"), MAX_SHOTS + 1, 0)

    def test_noise_moves_distribution(self):
        # with heavy readout error, the histogram departs from ideal
        dev = DeviceModel("loud", 2, 50.0, 50.0, 0.0,
                          ((0.25, 0.25), (0.25, 0.25)), ((0, 1),))
        circ = Circuit(2, 2).measure_all()
        hist = simulate_noisy(circ, dev, 5000, seed=0)
        assert hist.counts.get("00", 0) < 4000  # ideal would be all 5000
        assert set(hist.counts) == {"00", "01", "10", "11"}


def words(seed: int, shots, k: int) -> np.ndarray:
    """The first `k` >= 1 raw words of each stream, as a (len(shots), k) uint64 array."""
    streams = Streams(seed, shots)
    return np.stack([streams.next() for _ in range(k)], axis=1)


class TestBatchedStreams:
    """`Streams` is numpy's per-shot `default_rng((seed, i))` stream, bit for bit."""

    # seeds of 1, 2, 3 and 5 uint32 words; with the shot index's word the
    # last makes 6 entropy words, more than SeedSequence's 4-word pool
    @pytest.mark.parametrize("seed", [0, 2, 2**31 - 1, 2**32 + 5, 2**64 + 7, 2**130 + 3])
    def test_matches_default_rng(self, seed):
        shots = np.arange(4096)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for k in (1, 13, 40):
                expected = np.array([np.random.default_rng((seed, i)).random(k) for i in shots])
                assert np.array_equal(doubles(words(seed, shots, k)), expected)

    def test_any_shot_subset(self):
        shots = np.array([4095, 7, 2**32 - 1, 0])
        expected = np.array([np.random.default_rng((99, int(i))).random(5) for i in shots])
        assert np.array_equal(doubles(words(99, shots, 5)), expected)

    def test_rejects_what_it_cannot_reproduce(self):
        with pytest.raises(ValueError):
            words(-1, np.arange(3), 2)
        with pytest.raises(ValueError):
            words(0, np.array([MAX_SHOTS]), 2)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**64 + 7])
    def test_raw_words_match_default_rng(self, seed):
        shots = np.array([0, 1, 2, 999, 4096, 2**32 - 1])
        expected = np.array([np.random.default_rng((seed, int(i))).bit_generator.random_raw(9)
                             for i in shots])
        assert expected.dtype == np.uint64
        assert np.array_equal(words(seed, shots, 9), expected)

    def test_rows_advance_on_their_own(self):
        """Rows stepped different numbers of times each stay on their own stream."""
        seed, shots = 2**40 + 3, np.array([0, 1, 77, 4096, 2**32 - 1])
        gens = [np.random.default_rng((seed, int(i))).bit_generator for i in shots]
        streams = Streams(seed, shots)
        for rows in ([0, 2], None, [4], [], [1, 2, 3], [3], None, [0, 4]):
            got = streams.next(None if rows is None else np.array(rows, dtype=np.intp))
            picked = range(len(shots)) if rows is None else rows
            assert got.tolist() == [int(gens[r].random_raw()) for r in picked]
        assert streams.next().tolist() == [int(g.random_raw()) for g in gens]


class _CraftedStreams:
    """A stand-in for `Streams` that hands out fixed words, one list per row."""

    def __init__(self, rows):
        self.rows = [list(map(np.uint64, row)) for row in rows]
        self.read = [0] * len(rows)

    def next(self, rows=None):
        if rows is None or isinstance(rows, slice):
            rows = range(len(self.rows))[rows or slice(None)]
        else:
            rows = rows.tolist()
        out = []
        for r in rows:
            out.append(self.rows[r][self.read[r]])
            self.read[r] += 1
        return np.array(out, dtype=np.uint64)


def _steps(size, rates, arities):
    """Gate steps of one rate and arity each, taken by all `size` rows."""
    return [(slice(0, size), rate, arity) for rate, arity in zip(rates, arities)]


class TestFaultDraws:
    """`_fault_paulis` draws `random()`/`integers(3)` sequences from `Streams`."""

    @staticmethod
    def _generator_draws(seed, shot, rates, arities, n_readout):
        traj = np.random.default_rng((seed, shot))
        paulis = []
        for rate, arity in zip(rates, arities):
            hit = traj.random() < rate
            paulis.extend(int(traj.integers(3)) if hit else -1 for _ in range(arity))
        return paulis, traj.random(n_readout)

    # rate 1 makes every gate a hit: random, integers, random, integers, ...
    # so the second integers(3) of each pair reads the high half buffered
    # across a random() call; odd arities leave a half buffered across gates
    @pytest.mark.parametrize("rates, arities", [
        ([1.0] * 6, [1] * 6),
        ([1.0, 1.0, 1.0], [3, 2, 1]),
        ([0.5, 0.2, 0.9, 0.3, 0.7, 0.6, 0.4], [1, 2, 1, 3, 2, 1, 2]),
    ])
    @pytest.mark.parametrize("seed", [3, 2**32 + 9, 2**70 + 1])
    def test_mixed_sequences_match_generator(self, seed, rates, arities):
        shots = np.array([0, 5, 17, 256, 8191, 123456, 2**32 - 2])
        n_readout = 3
        streams = Streams(seed, shots)
        paulis, faulty = _fault_paulis(streams, len(shots), _steps(len(shots), rates, arities))
        assert paulis.dtype == np.int8
        flips = np.stack([doubles(streams.next()) for _ in range(n_readout)], axis=1)
        for row, i in enumerate(shots.tolist()):
            expected, expected_flips = self._generator_draws(seed, i, rates, arities, n_readout)
            assert paulis[row].tolist() == expected
            assert (row in faulty) == any(p >= 0 for p in expected)
            assert np.array_equal(flips[row], expected_flips)

    #: each run's (rate, arity) per fallible gate, falling in length: a chain of
    #: 4 stages, a Hardy test whose CCX (3 qubits) meets the chain's RY at step 2,
    #: a chain of 2 stages and one 2-qubit gate; high rates so that most steps hit
    MIXED_RUNS = [
        [(0.5, 1), (0.9, 2), (0.5, 1), (0.9, 2), (0.5, 1), (0.9, 2), (0.5, 1)],
        [(0.4, 1), (0.4, 1), (0.8, 3), (0.4, 1), (0.4, 1)],
        [(0.6, 1), (0.7, 2), (0.6, 1)],
        [(1.0, 2)],
    ]

    @pytest.mark.parametrize("seed", [3, 2**32 + 9, 2**70 + 1])
    def test_steps_that_mix_rates_and_arities_match_generator(self, seed):
        """Runs of rows step together: each row compares against its own
        run's rate, draws one `integers(3)` per qubit of its own gate, and
        fills its own run's slot columns; then its readout uniforms follow."""
        lengths = [5, 7, 6, 3]
        shots = np.array([0, 5, 17, 256, 8191, 123456, 2**32 - 2, 3, 4, 9, 10, 11, 12,
                          999, 1000, 1001, 77, 78, 79, 2**20, 2**20 + 1])
        steps = list(_lockstep(self.MIXED_RUNS, lengths))
        assert isinstance(steps[2][2], np.ndarray)  # step 2 mixes arities 3, 1 and 1
        assert steps[0][0] is Ellipsis and steps[3][0] == slice(0, 12)
        streams = Streams(seed, shots)
        paulis, faulty = _fault_paulis(streams, len(shots), steps)
        firsts = [0, *accumulate(_widths(steps))]
        assert paulis.shape == (len(shots), firsts[-1])
        n_readout = 3
        flips = np.stack([doubles(streams.next()) for _ in range(n_readout)], axis=1)
        run = np.repeat(np.arange(len(lengths)), lengths)
        for row, i in enumerate(shots.tolist()):
            gates = self.MIXED_RUNS[run[row]]
            rates, arities = [rate for rate, _ in gates], [arity for _, arity in gates]
            expected, expected_flips = self._generator_draws(seed, i, rates, arities, n_readout)
            columns = [firsts[k] + t for k, arity in enumerate(arities) for t in range(arity)]
            assert paulis[row, columns].tolist() == expected
            assert (np.delete(paulis[row], columns) == -1).all()
            assert (row in faulty) == any(p >= 0 for p in expected)
            assert np.array_equal(flips[row], expected_flips)

    def test_below_three_is_lemire_with_one_rejecting_value(self):
        x = np.array([0, 1, 2, 2**31, 0x55555555, 0x55555556, 0xAAAAAAAB, 2**32 - 1],
                     dtype=np.uint64)
        draws, rejects = below_three(x)
        assert draws.tolist() == [(3 * int(v)) >> 32 for v in x.tolist()]
        assert draws.tolist() == [0, 0, 0, 1, 0, 1, 2, 2]
        assert rejects.tolist() == [True] + [False] * 7

    def test_zero_half_rejects_its_shot_only(self):
        """A zero 32-bit half is redrawn in place, as numpy's buffered Lemire
        rule redraws it: from the buffered high half if there is one, else from
        the low half of a fresh word.  Rows that do not reject read no more."""
        def word(low, high):
            return low | high << 32
        hit, miss = 1 << 40, 2**64 - 1  # random() of these is tiny, and nearly 1
        rows = [
            # a zero low half redraws from its buffered high half: 0x55555556 -> 1;
            # the second gate's draw splits a fresh word: 2**31 -> 1
            [hit, word(0, 0x55555556), hit, word(2**31, 7), 101],
            # X from a low half of 1; the second gate's buffered high half is
            # zero, so it redraws from a fresh word: 0xAAAAAAAB -> 2
            [hit, word(1, 0), hit, word(0xAAAAAAAB, 9), 102],
            # two rejections in a row: the zero low half, then its zero high
            # half, then a fresh word's low half -> 2; the second gate reads
            # that word's buffered high half: 0x55555556 -> 1
            [hit, word(0, 0), word(0xAAAAAAAB, 0x55555556), hit, 103],
            # a miss, then a hit that reads a fresh word: 2**31 -> 1
            [miss, hit, word(2**31, 0), 104],
        ]
        streams = _CraftedStreams(rows)
        paulis, faulty = _fault_paulis(streams, 4, _steps(4, [0.5, 0.5], [1, 1]))
        assert paulis.tolist() == [[1, 1], [0, 2], [2, 1], [-1, 1]]
        assert faulty.tolist() == [0, 1, 2, 3]
        # every row has read all but its last word, which comes next
        assert streams.next().tolist() == [101, 102, 103, 104]

    def test_a_gate_that_hits_no_row_draws_no_integers(self, monkeypatch):
        """Only gates that hit a row call `_integers3`, once per touched qubit."""
        def word(low, high):
            return low | high << 32
        hit, miss = 1 << 40, 2**64 - 1
        rows = [
            # the second gate's draw buffers 0x55555556, which the third's first reads
            [miss, hit, word(2**31, 0x55555556), hit, word(0xAAAAAAAB, 9), miss, 105],
            [miss, miss, hit, word(1, 0x55555556), miss, 106],
        ]
        calls = []
        integers3 = noise._integers3

        def counting(streams, hit_rows, half, buffered):
            calls.append(hit_rows.tolist())
            return integers3(streams, hit_rows, half, buffered)

        monkeypatch.setattr(noise, "_integers3", counting)
        streams = _CraftedStreams(rows)
        paulis, faulty = _fault_paulis(streams, 2, _steps(2, [0.5, 0.5, 0.5, 0.5], [2, 1, 2, 3]))
        assert paulis.tolist() == [[-1, -1, 1, 1, 2, -1, -1, -1],
                                   [-1, -1, -1, 0, 1, -1, -1, -1]]
        assert faulty.tolist() == [0, 1]
        assert calls == [[0], [0, 1], [0, 1]]  # the first and last gates hit no row
        assert streams.next().tolist() == [105, 106]


@pytest.mark.parametrize("slots", [1, 8, 9, 40])
def test_byte_key_patterns_match_row_unique(slots):
    """`_patterns` finds what `np.unique(axis=0)` finds: the same patterns in
    the same order, and the same inverse."""
    rng = np.random.default_rng(slots)
    pool = rng.integers(-1, 3, size=(12, slots), dtype=np.int8)
    for rows in (1, 5, 300):
        for paulis in (pool[rng.integers(0, len(pool), rows)],
                       rng.integers(-1, 3, size=(rows, slots), dtype=np.int8),
                       np.full((rows, slots), -1, dtype=np.int8)):
            patterns, column = _patterns(paulis)
            expected, inverse = np.unique(paulis, axis=0, return_inverse=True)
            assert patterns.dtype == np.int8
            assert np.array_equal(patterns, expected)
            assert np.array_equal(column, inverse.reshape(-1))


def _draw(probs, us):
    """The basis index each uniform selects: searchsorted over the cumulative sum."""
    cum = np.cumsum(probs)
    return [min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1) for u in us]


def _tally(outcomes, qubits, num_qubits):
    """Histogram of basis-index outcomes, counted shot by shot: keys in the order of
    their first outcome, each reading the bits of `qubits`."""
    counts = {}
    for index in outcomes:
        key = "".join(str(index >> (num_qubits - 1 - q) & 1) for q in qubits)
        counts[key] = counts.get(key, 0) + 1
    return CountsHistogram(shots=len(outcomes), counts=counts)


def _ideal_reference(circuit, shots, seed):
    """Ideal sampling shot by shot: uniform i of `default_rng(seed)` selects shot i."""
    n = circuit.num_qubits
    us = np.random.default_rng(seed).random(shots)
    outcomes = _draw(simulate_ideal(circuit).probabilities(), us)
    return _tally(outcomes, circuit.measured_qubits or tuple(range(n)), n)


def _reference_simulate_noisy(circuit, device, shots, seed):
    """The per-shot sampler: one `default_rng((seed, i))` per shot, scalar draws."""
    n = circuit.num_qubits
    ops = gate_ops(circuit)
    start = init_state(n).amplitudes
    measured = circuit.measured_qubits or tuple(range(n))
    rates = [device.gate_error(len(targets)) for _, targets in ops]
    fallible = [(pos, rate) for pos, rate in enumerate(rates) if rate > 0.0]
    readout = [(1 << (n - 1 - q), *device.readout[q]) for q in measured]

    us = np.random.default_rng(seed).random(shots)
    outcomes = _draw(np.abs(evolve(start, ops, n)) ** 2, us)
    if not fallible and not any(p01 or p10 for _, p01, p10 in readout):
        return _tally(outcomes, measured, n)

    def read_out(index, traj) -> int:
        for bit, p01, p10 in readout:
            p = p10 if index & bit else p01
            if p > 0.0 and traj.random() < p:
                index ^= bit
        return index

    faulty = {}
    for i in range(shots):
        traj = np.random.default_rng((seed, i))
        faults = []
        for pos, rate in fallible:
            if traj.random() < rate:
                faults.append((pos, tuple(int(traj.integers(3)) for _ in ops[pos][1])))
        if faults:
            faulty.setdefault(tuple(faults), []).append((i, traj))
        else:
            outcomes[i] = read_out(outcomes[i], traj)
    for pattern, group in faulty.items():
        paulis = dict(pattern)
        path = []
        for pos, (matrix, targets) in enumerate(ops):
            path.append((matrix, targets))
            path.extend((_PAULIS[p], (q,)) for q, p in zip(targets, paulis.get(pos, ())))
        draws = _draw(np.abs(evolve(start, path, n)) ** 2, us[[i for i, _ in group]])
        for (i, traj), index in zip(group, draws):
            outcomes[i] = read_out(index, traj)
    return _tally(outcomes, measured, n)


def _partial_measurement_circuit() -> Circuit:
    """The golden pins' H/CX/CCX/SWAP circuit on three qubits; q0 and q2 measured."""
    c = Circuit(3, 2)
    c.h(0).h(1).cx(0, 1).ry(0.7, 2).ccx(0, 1, 2).swap(1, 2).h(2)
    return c.measure(0, 0).measure(2, 1)


def _custom_device(name, cnot_error, single_qubit_error, readout):
    return DeviceModel(name, 5, 50.0, 50.0, cnot_error, readout,
                       ((0, 1), (1, 2), (2, 3), (3, 4)), single_qubit_error=single_qubit_error)


ORACLE_CIRCUITS = {
    "bomb": build_bomb(True),
    "eraser": build_eraser(True),
    "chain4": build_general_bomb(equal_angles(4)),
    "hardy": build_hardy(0.575 * np.pi, 0.575 * np.pi),
    "partial": _partial_measurement_circuit(),
}
ORACLE_DEVICES = {
    **{name: device_preset(name) for name in ("vigo-0820", "london", "x2")},
    "readout-only": _custom_device(
        "readout-only", 0.0, 0.0, ((0.02, 0.08), (0.05, 0.01), (0.12, 0.03), (0.04, 0.06),
                                   (0.07, 0.02))),
    "gate-only": _custom_device("gate-only", 0.05, 0.02, ((0.0, 0.0),) * 5),
    # p01 = 0 on some qubits, p10 = 0 on others and both on one: a zero
    # flip probability consumes no uniform
    "one-way-readout": _custom_device(
        "one-way-readout", 0.03, 0.01, ((0.0, 0.09), (0.06, 0.0), (0.0, 0.0), (0.1, 0.0),
                                        (0.0, 0.05))),
}


@pytest.mark.parametrize("device", ORACLE_DEVICES)
@pytest.mark.parametrize("circuit", ORACLE_CIRCUITS)
def test_matches_per_shot_reference(circuit, device, monkeypatch):
    circ, dev = ORACLE_CIRCUITS[circuit], ORACLE_DEVICES[device]
    for seed in (0, 2, 12345, 2**40 + 1):
        for shots in (1, 7, 1000):
            expected = _reference_simulate_noisy(circ, dev, shots, seed)
            got = simulate_noisy(circ, dev, shots, seed)
            assert list(got.counts.items()) == list(expected.counts.items())
            if shots < 1000 or seed == 2**40 + 1:  # 334 blocks take a while
                # 3 shots a block, then 1 and 3 fault-pattern states a block
                for name, size in (("_BLOCK_SHOTS", 3), ("_BLOCK_AMPS", 2**circ.num_qubits),
                                   ("_BLOCK_AMPS", 3 * 2**circ.num_qubits)):
                    with monkeypatch.context() as patch:
                        patch.setattr(noise, name, size)
                        got = simulate_noisy(circ, dev, shots, seed)
                    assert list(got.counts.items()) == list(expected.counts.items())


def test_matches_per_shot_reference_over_many_pattern_blocks(monkeypatch):
    """An 8-qubit chain at high error rates: hundreds of fault patterns,
    evolved 64 to a block and with the default block size."""
    circ = build_general_bomb(equal_angles(8))
    dev = DeviceModel("noisy-8", 8, 50.0, 50.0, 0.2, ((0.05, 0.12),) * 8,
                      tuple((q, q + 1) for q in range(7)), single_qubit_error=0.05)
    expected = _reference_simulate_noisy(circ, dev, 1500, 11)
    got = simulate_noisy(circ, dev, 1500, 11)
    assert list(got.counts.items()) == list(expected.counts.items())
    with monkeypatch.context() as patch:
        patch.setattr(noise, "_BLOCK_AMPS", 64 * 2**8)
        got = simulate_noisy(circ, dev, 1500, 11)
    assert list(got.counts.items()) == list(expected.counts.items())


def test_generators_are_built_only_for_rejected_draws(monkeypatch):
    """Every shot draws its noise from `Streams`, rejected `integers(3)` halves
    included, and its measurement uniform too: no Generator is built."""
    circ, dev = ORACLE_CIRCUITS["chain4"], ORACLE_DEVICES["gate-only"]
    expected = _reference_simulate_noisy(circ, dev, 500, 4)
    built = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    got = simulate_noisy(circ, dev, 500, 4)
    assert list(got.counts.items()) == list(expected.counts.items())
    assert built == []


#: seeds of two uint32 words (2**32, 2**40 + 1) and of one (0, 2**32 - 1), interleaved
MIXED_WIDTH_SEEDS = (2**32, 0, 2**40 + 1, 2**32 - 1)


@pytest.mark.parametrize("device", ORACLE_DEVICES)
@pytest.mark.parametrize("circuit", ORACLE_CIRCUITS)
def test_repeats_match_per_shot_reference(circuit, device, monkeypatch):
    """Every seed's histogram, key order included, is what the per-shot
    reference gives for that seed alone.  Blocks of 3 rows split each repeat
    and straddle repeats; blocks of shots - 1 and shots + 1 rows straddle
    every boundary between repeats."""
    circ, dev = ORACLE_CIRCUITS[circuit], ORACLE_DEVICES[device]
    shots = 40
    expected = [list(_reference_simulate_noisy(circ, dev, shots, seed).counts.items())
                for seed in MIXED_WIDTH_SEEDS]
    for size in (noise._BLOCK_SHOTS, 3, shots - 1, shots + 1):
        with monkeypatch.context() as patch:
            patch.setattr(noise, "_BLOCK_SHOTS", size)
            got = noise.simulate_noisy_repeats(circ, dev, shots, MIXED_WIDTH_SEEDS)
        assert [hist.shots for hist in got] == [shots] * len(MIXED_WIDTH_SEEDS)
        assert [list(hist.counts.items()) for hist in got] == expected


def test_repeats_of_one_seed_and_of_none():
    circ, dev = ORACLE_CIRCUITS["hardy"], ORACLE_DEVICES["london"]
    assert noise.simulate_noisy_repeats(circ, dev, 100, []) == []
    once, again = noise.simulate_noisy_repeats(circ, dev, 100, [9, 9])
    assert once == again == simulate_noisy(circ, dev, 100, 9)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        noise.simulate_noisy_repeats(circ, dev, 100, [3, -1])


#: points of several noise signatures in one call, interleaved: Hardy at three
#: angles, chains of N = 2-5 and an eraser, under seeds of one and two uint32
#: words, and one point with no seeds
MIXED_POINTS = [
    (build_hardy(0.25 * np.pi, 0.3 * np.pi), (2**32, 0)),
    (build_general_bomb(equal_angles(2)), (3,)),
    (build_hardy(0.575 * np.pi, 0.575 * np.pi), (2**40 + 1, 7, 2**32 - 1)),
    (build_eraser(True), (5, 2**33)),
    (build_general_bomb(equal_angles(3)), ()),
    (build_hardy(0.85 * np.pi, 0.7 * np.pi), (0,)),
    (build_general_bomb(equal_angles(4)), (2**32 + 5, 11)),
    (build_general_bomb(equal_angles(5)), (12,)),
]
POINT_DEVICES = {
    "london": device_preset("london"),
    "one-way-readout": ORACLE_DEVICES["one-way-readout"],
    # most rows fault, so the rows either side of every boundary between points do
    "heavy": _custom_device("heavy", 0.3, 0.1, ((0.05, 0.1),) * 5),
    "ideal": ideal_device(5),
}


@pytest.mark.parametrize("device", POINT_DEVICES)
def test_points_match_per_point_repeats(device, monkeypatch):
    """Every histogram of one call over points of mixed signatures is, bit for
    bit and in key order, what its point's own `simulate_noisy_repeats` gives,
    and what the per-shot reference gives for its seed alone.  Blocks of 7
    rows split points; blocks of shots - 1 and shots + 1 rows straddle every
    boundary between entries, and so between points."""
    dev, shots = POINT_DEVICES[device], 40
    expected = [[list(hist.counts.items())
                 for hist in noise.simulate_noisy_repeats(circ, dev, shots, seeds)]
                for circ, seeds in MIXED_POINTS]
    assert expected == [[list(_reference_simulate_noisy(circ, dev, shots, seed).counts.items())
                         for seed in seeds] for circ, seeds in MIXED_POINTS]
    for size in (noise._BLOCK_SHOTS, 7, shots - 1, shots + 1):
        with monkeypatch.context() as patch:
            patch.setattr(noise, "_BLOCK_SHOTS", size)
            got = noise.simulate_noisy_points(MIXED_POINTS, dev, shots)
        assert [[hist.shots for hist in point] for point in got] == [
            [shots] * len(seeds) for _, seeds in MIXED_POINTS]
        assert [[list(hist.counts.items()) for hist in point] for point in got] == expected


#: points whose widths do not fall with their gate counts: the rows that read
#: the third and fourth measured qubits are not a prefix of the block
SHAPED_POINTS = [
    (Circuit(4, 4).measure_all(), (2**32 + 1, 4)),
    (build_bomb(True), (5,)),
    (_partial_measurement_circuit(), (6, 2**33)),
    (build_general_bomb(equal_angles(3)), (7,)),
]


@pytest.mark.parametrize("device", POINT_DEVICES)
def test_points_of_any_shape_match_per_point_repeats(device, monkeypatch):
    """Readout walks each row's own measured qubits, by an index of the rows
    where they are not a prefix of the block; every histogram is what its
    point gives alone."""
    dev, shots = POINT_DEVICES[device], 40
    expected = [[list(_reference_simulate_noisy(circ, dev, shots, seed).counts.items())
                 for seed in seeds] for circ, seeds in SHAPED_POINTS]
    rows = []
    read_out = noise._read_out

    def spy(outcomes, streams, steps):
        steps = list(steps)
        rows.extend(type(step[0]) for step in steps)
        return read_out(outcomes, streams, steps)

    monkeypatch.setattr(noise, "_read_out", spy)
    for size in (noise._BLOCK_SHOTS, 7, shots - 1, shots + 1):
        with monkeypatch.context() as patch:
            patch.setattr(noise, "_BLOCK_SHOTS", size)
            got = noise.simulate_noisy_points(SHAPED_POINTS, dev, shots)
        assert [[list(hist.counts.items()) for hist in point] for point in got] == expected
    if device != "ideal":
        assert np.ndarray in rows and slice in rows


def test_a_chain_sweep_walks_one_streams(monkeypatch, capsys):
    """Chains of N = 2-5, 2 repeats of 1024 shots: one group and one block, so
    one `Streams` of measurement streams, one a seed, and one of noise streams."""
    built = []

    def counting(*args):
        built.append(len(args))  # the noise streams' shot indices are the second argument
        return Streams(*args)

    monkeypatch.setattr(noise, "Streams", counting)
    assert main(["sweep", "--experiment", "general-bomb", "--n-values", "2,3,4,5",
                 "--theta-start", "0.4", "--theta-stop", "0.4", "--theta-step", "0.1",
                 "--device", "london", "--shots", "1024", "--repeats", "2", "--mitigate"]) == 0
    capsys.readouterr()
    assert built == [1, 2]


def test_points_of_no_seeds_and_of_none():
    dev = device_preset("london")
    assert noise.simulate_noisy_points([], dev, 100) == []
    assert noise.simulate_noisy_points([(build_bomb(True), ()), (build_eraser(True), [])],
                                       dev, 100) == [[], []]


def test_points_are_checked_before_any_is_sampled(monkeypatch):
    def evolve(*args, **kwargs):
        raise AssertionError("a point was evolved before every point was checked")

    monkeypatch.setattr(noise, "evolve", evolve)
    vigo, hardy = device_preset("vigo"), build_hardy(0.5 * np.pi, 0.5 * np.pi)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        noise.simulate_noisy_points([(hardy, [1]), (hardy, [2, -1])], vigo, 100)
    wide = build_general_bomb(equal_angles(6))
    with pytest.raises(ValueError, match="circuit needs 6 qubits but device 'vigo-0820' has 5"):
        noise.simulate_noisy_points([(hardy, [1]), (wide, [2])], vigo, 100)


def test_seeds_of_different_word_counts_never_share_streams():
    assert Streams(np.array([[5, 6]], dtype=np.uint32), [0, 1]).next().tolist() == [
        int(np.random.default_rng((s, i)).bit_generator.random_raw()) for s, i in ((5, 0), (6, 1))]
    with pytest.raises(ValueError, match="word counts"):
        seed_words([2**32 - 1, 2**32])


def test_block_draws_continue_one_stream():
    """Successive `random(k)` calls of one Generator read what one
    `random(shots)` reads, and so do successive `Streams.ahead` calls on the
    stream of `default_rng(seed)`, so uniforms may be drawn block by block.
    Seeds of 1, 2, 3, 4 and 5 words; the last two fill more than the pool."""
    seeds = (0, 7, 2**40 + 1, 2**64 + 3, 2**96 + 5, 2**130 + 3)
    for seed in seeds:
        whole = np.random.default_rng(seed).random(1000)
        rng = np.random.default_rng(seed)
        blocks = [rng.random(k) for k in (1, 3, 256, 13, 727)]
        assert np.array_equal(np.concatenate(blocks), whole)
        streams = Streams(seed_words([seed]))
        blocks = [doubles(streams.ahead(slice(0, 1), k)[0]) for k in (1, 3, 256, 13, 727)]
        assert np.array_equal(np.concatenate(blocks), whole)
    # streams of several seeds of one width, stepped together and one by one
    streams = Streams(seed_words([5, 6, 2**32 - 1]))
    expected = [np.random.default_rng(seed).bit_generator.random_raw(50) for seed in (5, 6, 2**32 - 1)]
    assert np.array_equal(streams.ahead(slice(0, 3), 20), [raw[:20] for raw in expected])
    assert np.array_equal(streams.ahead(slice(1, 2), 30), [expected[1][20:]])
    assert np.array_equal(streams.ahead(slice(0, 3, 2), 30), [expected[0][20:], expected[2][20:]])


def test_measurement_stream_is_trajectory_zeros_below_2_96():
    """Entropy [s] and [s, 0] fill SeedSequence's 4-word pool alike while s
    has at most three words, so the measurement stream `default_rng(s)` is
    trajectory 0's noise stream `default_rng((s, 0))`; from 2**96 on they
    differ (the `noise` module docstring)."""
    for seed, same in ((0, True), (5, True), (2**32, True), (2**70, True), (2**96 - 1, True),
                       (2**96, False), (2**96 + 5, False), (2**130, False)):
        measured = np.random.default_rng(seed).random(3)
        assert np.array_equal(measured, np.random.default_rng((seed, 0)).random(3)) == same
        mine = Streams(seed_words([seed])).ahead(slice(0, 1), 3)[0]
        assert np.array_equal(doubles(mine), measured)
        assert np.array_equal(mine, words(seed, [0], 3)[0]) == same


def _looped_seed_state(words, shots):
    """`_streams._seed_state` as numpy's SeedSequence loop runs it: one hashmix
    or mix of one pool word of every row per step."""
    mask = 0xFFFFFFFF

    class Hash:
        def __init__(self, const, mult):
            self.const, self.mult = const, mult

        def __call__(self, value):
            value = value ^ np.uint32(self.const)
            self.const = self.const * self.mult & mask
            value = value * np.uint32(self.const)
            return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return result ^ (result >> np.uint32(16))

    rows = words.shape[1] if shots is None else len(shots)
    entropy = [np.broadcast_to(w, (rows,)) for w in words]
    if shots is not None:
        entropy.append(np.asarray(shots).astype(np.uint32))
    hashmix = Hash(0x43B0D7E5, 0x931E8875)
    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = Hash(0x8B51F9DD, 0x58F38DED)
    halves = [hashmix(pool[j % 4]).astype(np.uint64) for j in range(8)]
    return np.array([halves[2 * j] | halves[2 * j + 1] << np.uint64(32) for j in range(4)])


@pytest.mark.parametrize("count", range(1, 7))
def test_seeding_matches_seed_sequence(count):
    """The stacked pools give SeedSequence's state for seeds of `count` words,
    with a shot index's word and without, up to more words than the pool."""
    rng = np.random.default_rng(count)
    words = rng.integers(0, 2**32, size=(count, 40), dtype=np.uint32)
    words[-1] |= 1  # a nonzero top word: each seed has exactly `count` words
    seeds = [sum(int(w) << 32 * j for j, w in enumerate(column)) for column in words.T]
    assert np.array_equal(seed_words(seeds), words)
    expected = np.array([np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds])
    assert np.array_equal(_seed_state(words).T, expected)
    shots = rng.integers(0, 2**32, size=40)
    expected = np.array([np.random.SeedSequence((seed, int(i))).generate_state(4, np.uint64)
                         for seed, i in zip(seeds, shots)])
    assert np.array_equal(_seed_state(words, shots).T, expected)
    for shared in (None, shots):  # and a copy of the word-by-word loop, on many more rows
        many = rng.integers(0, 2**32, size=(count, 3000), dtype=np.uint32)
        shots = None if shared is None else rng.integers(0, 2**32, size=3000)
        assert np.array_equal(_seed_state(many, shots), _looped_seed_state(many, shots))
        if shots is not None:  # one column of words for every row
            assert np.array_equal(_seed_state(many[:, :1], shots),
                                  _looped_seed_state(many[:, :1], shots))


#: seeds of 1, 2, 3, 4 and 5 uint32 words, each its own group
WIDE_SEEDS = (9, 2**32 + 1, 2**64 + 3, 2**96 + 5, 2**130 + 7)


@pytest.mark.parametrize("device", ["ideal", "london"])
def test_measurement_uniforms_of_every_seed_width(device, monkeypatch):
    """Each shot's measurement uniform is the one `default_rng(seed)` gives,
    for seeds of every width, with entries spanning blocks and blocks spanning
    entries."""
    circ, shots = build_hardy(0.575 * np.pi, 0.575 * np.pi), 40
    dev = ideal_device(5) if device == "ideal" else device_preset(device)
    reference = _ideal_reference if device == "ideal" else (
        lambda circ, shots, seed: _reference_simulate_noisy(circ, dev, shots, seed))
    expected = [list(reference(circ, shots, seed).counts.items()) for seed in WIDE_SEEDS]
    for size in (noise._BLOCK_SHOTS, 3, shots - 1, shots + 1):
        with monkeypatch.context() as patch:
            patch.setattr(noise, "_BLOCK_SHOTS", size)
            got = noise.simulate_noisy_repeats(circ, dev, shots, WIDE_SEEDS + WIDE_SEEDS[:2])
        assert [list(hist.counts.items()) for hist in got] == expected + expected[:2]


def test_peak_memory_is_bounded_by_the_block(monkeypatch):
    """Sixteen times the rows, as more shots or as more seeds, leave the
    traced peak flat; holding every shot's uniform and outcome would add
    at least 16 bytes a row, 240 KiB here."""
    circ, dev = build_bomb(True), device_preset("vigo")
    monkeypatch.setattr(noise, "_BLOCK_SHOTS", 256)

    def peak(shots, seeds):
        tracemalloc.start()
        try:
            noise.simulate_noisy_repeats(circ, dev, shots, seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    noise.simulate_noisy_repeats(circ, dev, 4096, [1, 2, 3, 4])  # warm numpy and the free lists
    base = peak(1024, [1])
    assert peak(16 * 1024, [1]) < 1.5 * base
    assert peak(4 * 1024, [1, 2, 3, 4]) < 1.5 * base
