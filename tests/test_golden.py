"""Golden reproducibility pins for seeded sampling and CLI output.

The noise model's reproducibility contract (``mzsim.noise`` docstring)
makes every seeded histogram a fixed function of circuit, device, shots
and seed, and the CLI promises byte-identical output for a fixed
configuration.  The values below were recorded from the implementation;
a refactor of the simulator or sampler must leave every one of them
unchanged.  Only a deliberate, documented change to sampling, or to the
mitigation fallback's solver (which moves the mitigated cells of inputs
whose direct solve goes negative), may update them.
"""

import hashlib

import numpy as np
import pytest

from mzsim.circuit import Circuit
from mzsim.cli import main
from mzsim.experiments import (
    build_bomb, build_eraser, build_general_bomb, build_hardy, equal_angles,
)
from mzsim.noise import DeviceModel, device_preset, simulate_noisy

SHOTS = 2000
SEEDS = (0, 2, 12345)
DEVICES = ("vigo-0820", "london", "x2")

CIRCUITS = {
    "bomb": build_bomb(True),
    "eraser": build_eraser(True),
    "chain4": build_general_bomb(equal_angles(4)),
    "hardy": build_hardy(0.575 * np.pi, 0.575 * np.pi),
}

#: asymmetric per-qubit readout and a strong 1-qubit error rate
SKEWED_DEVICE = DeviceModel(
    name="skewed",
    num_qubits=3,
    t1_us=50.0,
    t2_us=40.0,
    cnot_error=0.05,
    single_qubit_error=0.1,
    readout=((0.02, 0.08), (0.05, 0.01), (0.12, 0.03)),
    coupling=((0, 1), (1, 2)),
)


def partial_measurement_circuit() -> Circuit:
    """H/CX/CCX/SWAP on three qubits; only q0 and q2 are measured."""
    c = Circuit(3, 2)
    c.h(0).h(1).cx(0, 1).ry(0.7, 2).ccx(0, 1, 2).swap(1, 2).h(2)
    return c.measure(0, 0).measure(2, 1)


#: simulate_noisy counts at SHOTS shots, keyed by (circuit, device, seed)
GOLDEN_HISTOGRAMS = {
    ("bomb", "vigo-0820", 0): {"00": 504, "01": 504, "10": 481, "11": 511},
    ("bomb", "vigo-0820", 2): {"00": 517, "01": 478, "10": 503, "11": 502},
    ("bomb", "vigo-0820", 12345): {"00": 486, "01": 541, "10": 488, "11": 485},
    ("bomb", "london", 0): {"00": 502, "01": 502, "10": 479, "11": 517},
    ("bomb", "london", 2): {"00": 527, "01": 463, "10": 502, "11": 508},
    ("bomb", "london", 12345): {"00": 497, "01": 525, "10": 476, "11": 502},
    ("bomb", "x2", 0): {"00": 502, "01": 500, "10": 484, "11": 514},
    ("bomb", "x2", 2): {"00": 523, "01": 470, "10": 502, "11": 505},
    ("bomb", "x2", 12345): {"00": 493, "01": 531, "10": 484, "11": 492},
    ("eraser", "vigo-0820", 0): {"00": 976, "01": 27, "10": 35, "11": 962},
    ("eraser", "vigo-0820", 2): {"00": 961, "01": 41, "10": 30, "11": 968},
    ("eraser", "vigo-0820", 12345): {"00": 991, "01": 42, "10": 31, "11": 936},
    ("eraser", "london", 0): {"00": 926, "01": 91, "10": 85, "11": 898},
    ("eraser", "london", 2): {"00": 911, "01": 92, "10": 89, "11": 908},
    ("eraser", "london", 12345): {"00": 948, "01": 90, "10": 85, "11": 877},
    ("eraser", "x2", 0): {"00": 941, "01": 69, "10": 62, "11": 928},
    ("eraser", "x2", 2): {"00": 931, "01": 70, "10": 66, "11": 933},
    ("eraser", "x2", 12345): {"00": 966, "01": 74, "10": 67, "11": 893},
    ("chain4", "vigo-0820", 0): {
        "0000": 969, "0001": 38, "0010": 51, "0011": 51, "0100": 54, "0101": 2, "0110": 34,
        "0111": 25, "1000": 191, "1001": 179, "1010": 15, "1011": 191, "1100": 8, "1101": 5,
        "1110": 13, "1111": 174,
    },
    ("chain4", "vigo-0820", 2): {
        "0000": 969, "0001": 51, "0010": 62, "0011": 37, "0100": 41, "0101": 6, "0110": 34,
        "0111": 36, "1000": 181, "1001": 181, "1010": 11, "1011": 174, "1100": 8, "1101": 10,
        "1110": 10, "1111": 189,
    },
    ("chain4", "vigo-0820", 12345): {
        "0000": 979, "0001": 50, "0010": 58, "0011": 44, "0100": 61, "0101": 2, "0110": 34,
        "0111": 37, "1000": 166, "1001": 181, "1010": 12, "1011": 179, "1100": 12, "1101": 11,
        "1110": 3, "1111": 171,
    },
    ("chain4", "london", 0): {
        "0000": 857, "0001": 67, "0010": 67, "0011": 63, "0100": 72, "0101": 10, "0110": 38,
        "0111": 28, "1000": 216, "1001": 165, "1010": 23, "1011": 181, "1100": 13, "1101": 17,
        "1110": 16, "1111": 167,
    },
    ("chain4", "london", 2): {
        "0000": 841, "0001": 80, "0010": 91, "0011": 45, "0100": 67, "0101": 10, "0110": 36,
        "0111": 39, "1000": 186, "1001": 182, "1010": 27, "1011": 157, "1100": 18, "1101": 21,
        "1110": 17, "1111": 183,
    },
    ("chain4", "london", 12345): {
        "0000": 880, "0001": 72, "0010": 89, "0011": 49, "0100": 77, "0101": 4, "0110": 35,
        "0111": 40, "1000": 175, "1001": 180, "1010": 26, "1011": 168, "1100": 16, "1101": 20,
        "1110": 11, "1111": 158,
    },
    ("chain4", "x2", 0): {
        "0000": 893, "0001": 60, "0010": 63, "0011": 55, "0100": 65, "0101": 8, "0110": 38,
        "0111": 28, "1000": 203, "1001": 178, "1010": 18, "1011": 185, "1100": 13, "1101": 9,
        "1110": 16, "1111": 168,
    },
    ("chain4", "x2", 2): {
        "0000": 898, "0001": 68, "0010": 75, "0011": 43, "0100": 55, "0101": 7, "0110": 38,
        "0111": 37, "1000": 175, "1001": 185, "1010": 19, "1011": 161, "1100": 16, "1101": 17,
        "1110": 14, "1111": 192,
    },
    ("chain4", "x2", 12345): {
        "0000": 905, "0001": 65, "0010": 81, "0011": 45, "0100": 75, "0101": 2, "0110": 36,
        "0111": 36, "1000": 171, "1001": 190, "1010": 19, "1011": 171, "1100": 15, "1101": 16,
        "1110": 7, "1111": 166,
    },
    ("hardy", "vigo-0820", 0): {
        "000": 136, "001": 128, "010": 204, "011": 167, "100": 211, "101": 177, "110": 696,
        "111": 281,
    },
    ("hardy", "vigo-0820", 2): {
        "000": 114, "001": 126, "010": 220, "011": 191, "100": 171, "101": 185, "110": 692,
        "111": 301,
    },
    ("hardy", "vigo-0820", 12345): {
        "000": 110, "001": 127, "010": 202, "011": 198, "100": 185, "101": 199, "110": 687,
        "111": 292,
    },
    ("hardy", "london", 0): {
        "000": 143, "001": 137, "010": 211, "011": 182, "100": 221, "101": 182, "110": 640,
        "111": 284,
    },
    ("hardy", "london", 2): {
        "000": 126, "001": 142, "010": 228, "011": 207, "100": 183, "101": 191, "110": 628,
        "111": 295,
    },
    ("hardy", "london", 12345): {
        "000": 123, "001": 131, "010": 217, "011": 216, "100": 206, "101": 204, "110": 610,
        "111": 293,
    },
    ("hardy", "x2", 0): {
        "000": 142, "001": 136, "010": 207, "011": 180, "100": 214, "101": 178, "110": 661,
        "111": 282,
    },
    ("hardy", "x2", 2): {
        "000": 130, "001": 143, "010": 225, "011": 197, "100": 180, "101": 190, "110": 638,
        "111": 297,
    },
    ("hardy", "x2", 12345): {
        "000": 115, "001": 133, "010": 213, "011": 212, "100": 203, "101": 204, "110": 626,
        "111": 294,
    },
    ("partial", "skewed", 0): {"00": 664, "01": 373, "10": 534, "11": 429},
    ("partial", "skewed", 2): {"00": 672, "01": 381, "10": 531, "11": 416},
    ("partial", "skewed", 12345): {"00": 685, "01": 381, "10": 515, "11": 419},
}

#: every built-in experiment on a preset with mitigation, plus both sweep kinds
CLI_COMMANDS = {
    "run-eraser": ("run", "--experiment", "eraser", "--device", "vigo", "--mitigate"),
    "run-bomb": ("run", "--experiment", "bomb", "--device", "vigo", "--mitigate"),
    "run-general-bomb": ("run", "--experiment", "general-bomb", "--angles",
                         "0.25,0.25,0.25,0.25", "--device", "vigo", "--mitigate"),
    "run-hardy": ("run", "--experiment", "hardy", "--theta0", "0.575", "--theta1",
                  "0.575", "--device", "vigo", "--mitigate"),
    "sweep-hardy-diagonal": ("sweep", "--experiment", "hardy", "--theta-start", "0.55",
                             "--theta-stop", "0.6", "--theta-step", "0.025",
                             "--device", "vigo", "--shots", "2000", "--seed", "7",
                             "--repeats", "3", "--mitigate"),
    "sweep-general-bomb": ("sweep", "--experiment", "general-bomb", "--n-values", "2,3,4,5",
                           "--theta-start", "0.3", "--theta-stop", "0.3", "--theta-step",
                           "0.1", "--device", "london", "--shots", "2000", "--seed", "11",
                           "--repeats", "3", "--mitigate"),
}

#: SHA-256 of each command's stdout
CLI_SHA256 = {
    "run-eraser": "9d1845cbf0e6b60451c2500f8a3a92e0d86adb8f23e1caba72c172e7e0e0b38f",
    "run-bomb": "b1a2b5eb3c83cec97221b2313dd04ad4c1a13ef0fe8385f180db79e2ad58b30c",
    "run-general-bomb": "075f76eaa3400510b093bc5cf797a6331db15afdd0a1649add12c628fa97184e",
    "run-hardy": "73e8af14a54e96a6078e9e0042ddf77257b31dca13eba709038b1ccd4be9f0d8",
    "sweep-hardy-diagonal": "a2d385ceaf05edafa571b11a2949267aa16ce7de8c031fd754a3573e59d36861",
    "sweep-general-bomb": "26f9f939237c6943ca1c355b7819ac920b2787bf690383d09622fa4114328cca",
}


@pytest.mark.parametrize("name", sorted(CIRCUITS))
@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("seed", SEEDS)
def test_noisy_histograms_are_pinned(name, device, seed):
    counts = simulate_noisy(CIRCUITS[name], device_preset(device), SHOTS, seed)
    assert counts.counts == GOLDEN_HISTOGRAMS[(name, device, seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_measurement_histogram_is_pinned(seed):
    counts = simulate_noisy(partial_measurement_circuit(), SKEWED_DEVICE, SHOTS, seed)
    assert counts.counts == GOLDEN_HISTOGRAMS[("partial", "skewed", seed)]


@pytest.mark.parametrize("label", sorted(CLI_COMMANDS))
def test_cli_output_bytes_are_pinned(label, capsys):
    assert main(list(CLI_COMMANDS[label])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[label]
