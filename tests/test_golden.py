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
import json
import random

import numpy as np
import pytest

from mzsim.circuit import Circuit
from mzsim.cli import main
from mzsim.experiments import (
    build_bomb, build_eraser, build_general_bomb, build_hardy, equal_angles,
)
from mzsim.mitigation import exact_confusion_matrix
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
    "sweep-general-bomb": "1236caea5504269b041eb1c32a89c50a02b51406d1654e042e709953a255321c",
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


@pytest.mark.parametrize("label, built", [("sweep-hardy-diagonal", 1), ("sweep-general-bomb", 4)])
def test_a_sweep_builds_each_confusion_matrix_once(label, built, capsys, monkeypatch):
    """One exact confusion matrix per measured set: the Hardy points share one,
    each chain width has its own."""
    calls = []

    def counted(device, qubits):
        calls.append(qubits)
        return exact_confusion_matrix(device, qubits)

    monkeypatch.setattr("mzsim.cli.exact_confusion_matrix", counted)
    assert main(list(CLI_COMMANDS[label])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256[label]
    assert len(calls) == len(set(calls)) == built


def test_a_mitigated_sweep_computes_the_condition_number_once(capsys, monkeypatch):
    """The Hardy points share one confusion matrix, whose condition number is
    one stacked `cond` of its factors, computed at the first `mitigate`."""
    calls = []
    cond = np.linalg.cond

    def counted(x, *args):
        calls.append(np.shape(x))
        return cond(x, *args)

    monkeypatch.setattr(np.linalg, "cond", counted)
    assert main(list(CLI_COMMANDS["sweep-hardy-diagonal"])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_SHA256["sweep-hardy-diagonal"]
    assert calls == [(3, 2, 2)]


HARDY_575 = ("--experiment", "hardy", "--theta0", "0.575", "--theta1", "0.575")

#: output modes the pins above leave out: CSV runs, --exact, ideal sampling,
#: the absent-marker and absent-probe circuits, a config file (a dict below
#: stands for a file holding it), a full Hardy grid and unmitigated sweeps
CLI_MODE_COMMANDS = {
    "run-eraser-csv-mitigate": ("run", "--experiment", "eraser", "--device", "vigo",
                                "--mitigate", "--format", "csv"),
    "run-hardy-csv-mitigate": ("run", *HARDY_575, "--device", "vigo", "--mitigate",
                               "--format", "csv"),
    "run-eraser-exact-json": ("run", "--experiment", "eraser", "--exact"),
    "run-hardy-exact-json": ("run", *HARDY_575, "--exact"),
    "run-eraser-exact-csv": ("run", "--experiment", "eraser", "--exact", "--format", "csv"),
    "run-general-bomb-exact-csv": ("run", "--experiment", "general-bomb", "--angles",
                                   "0.2,0.3,0.5", "--exact", "--format", "csv"),
    "run-hardy-ideal": ("run", *HARDY_575, "--shots", "1000", "--seed", "3"),
    "run-no-erase": ("run", "--experiment", "eraser", "--no-erase", "--shots", "1000",
                     "--seed", "5"),
    "run-no-erase-csv-london": ("run", "--experiment", "eraser", "--no-erase", "--device",
                                "london", "--shots", "1000", "--mitigate", "--format", "csv"),
    "run-no-bomb": ("run", "--experiment", "bomb", "--no-bomb", "--shots", "1000"),
    "run-no-bomb-csv-vigo": ("run", "--experiment", "bomb", "--no-bomb", "--device", "vigo",
                             "--shots", "1000", "--seed", "2", "--mitigate", "--format", "csv"),
    "run-config": ("run", "--config", {"experiment": "general-bomb", "angles": "0.5,0.5",
                                       "device": "london", "shots": 700, "seed": 4,
                                       "mitigate": True, "format": "csv"}),
    "sweep-hardy-full-json": ("sweep", "--experiment", "hardy", "--hardy-grid", "full",
                              "--theta-start", "0.5", "--theta-stop", "0.6", "--theta-step",
                              "0.05", "--device", "vigo", "--shots", "500", "--seed", "9",
                              "--repeats", "2", "--mitigate", "--format", "json"),
    "sweep-general-bomb-x2": ("sweep", "--experiment", "general-bomb", "--n-values", "2,3",
                              "--theta-start", "0.2", "--theta-stop", "0.4", "--theta-step",
                              "0.1", "--device", "x2", "--shots", "500", "--seed", "1",
                              "--repeats", "2"),
    "sweep-hardy-ideal": ("sweep", "--experiment", "hardy", "--theta-start", "0.1",
                          "--theta-stop", "0.9", "--theta-step", "0.2"),
    "sweep-general-bomb-ideal-json": ("sweep", "--experiment", "general-bomb", "--n-values",
                                      "2,4", "--theta-start", "0.25", "--theta-stop", "0.75",
                                      "--theta-step", "0.25", "--format", "json"),
}

#: SHA-256 of each command's stdout, recorded before cli.py's run and sweep
#: paths were merged
CLI_MODE_SHA256 = {
    "run-config": "8bc1f16a756ad68326c20d196553ee4b475f13e07355981fe3c2facc5c833423",
    "run-eraser-csv-mitigate": "1a2b3b22b66690658c8c25d175723a286d36dd9114d0093c4d7e0407a8711013",
    "run-eraser-exact-csv": "a5535c160a446321eba06e742fb4df0716837ab7f6be7d4749a9a5ac8b55d062",
    "run-eraser-exact-json": "b7d6272ca81b17e14a949bde66c1e826eb65470824c25b143f5526574dc6278a",
    "run-general-bomb-exact-csv": "e6472c3d7eadfdeaee1d219298d4ced2115d82751b6e1d407e2cf25dcc5bb237",
    "run-hardy-csv-mitigate": "94a65f617d04ec1ef8afd46a3b526a09e0559ffd63294020ff9217ffd66ad863",
    "run-hardy-exact-json": "510db17d79e3df843e2c49a41f1a31e525f8aec3b667bdc76b164e4004a3f656",
    "run-hardy-ideal": "5713f793a937310054dcd3e97df5ed8856229c966e042a28396f1f168b9439c3",
    "run-no-bomb": "9a0028f68ed16668d720215bb559552e3db16f7973cb1c00218261de37d04263",
    "run-no-bomb-csv-vigo": "b177300c54ed18a5ec8820f842cdb615b137349cd22d5f5b6b1d5ab3e4d8bdcb",
    "run-no-erase": "91b958e7ce39798d69ba92adb9f7f9219352a7767bfbbe6cf17b7d512f49d401",
    "run-no-erase-csv-london": "b83982f070072d3abf0fecdf8b5d54557cc3c2accd2b8b0867e0728f5b674386",
    "sweep-general-bomb-ideal-json": "135829edfb4b5385fe7653a429a4b641d045541ff0f8a24ffc9a302dd85933c0",
    "sweep-general-bomb-x2": "f958bc7e5ff8ddff3dcadf0c37f4d2eb024aa250da58ed1d1322b55a5e24a79e",
    "sweep-hardy-full-json": "d1e20ae66e8fbd8b5d2ee75562b02ecd8901cbedbade0abf52299b988fc95092",
    "sweep-hardy-ideal": "f5199de4ce2ed62a3c40c51f92d0dce5f53eb1255f31b75a3a496bc49f506a03",
}


@pytest.mark.parametrize("label", sorted(CLI_MODE_COMMANDS))
def test_cli_output_modes_are_pinned(label, capsys, tmp_path):
    argv = []
    for arg in CLI_MODE_COMMANDS[label]:
        if isinstance(arg, dict):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(arg))
            arg = str(config)
        argv.append(arg)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_MODE_SHA256[label]
    # --output writes the same bytes and leaves stdout empty
    target = tmp_path / "out.txt"
    assert main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


# ---- transpile ---------------------------------------------------------------

QASM_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def _program(qubits: int, body: list[str]) -> str:
    tail = [f"measure q[{q}] -> c[{q}];" for q in range(qubits)]
    return QASM_HEAD + f"qreg q[{qubits}];\ncreg c[{qubits}];\n" + "\n".join(body + tail) + "\n"


def _random_program(seed: int, gates: int) -> str:
    """Seeded 5-qubit program over the whole gate set, CCX and SWAP included."""
    rng = random.Random(seed)
    params = {"ry": 1, "u1": 1, "u2": 2, "u3": 3}
    names = ("h", "x", "ry", "u1", "u2", "u3") * 3 + ("cx",) * 5 + ("swap", "ccx")
    angles = (lambda: repr(round(rng.uniform(-3.2, 3.2), 6)),
              lambda: f"pi/{rng.choice((2, 3, 4, 8))}",
              lambda: f"-{rng.randrange(1, 8)}*pi/{rng.choice((4, 8, 16))}",
              lambda: f"{rng.uniform(0.01, 0.99):.4e}")
    lines = []
    for i in range(gates):
        name = rng.choice(names)
        arity = {"cx": 2, "swap": 2, "ccx": 3}.get(name, 1)
        args = ""
        if name in params:
            args = "(" + ",".join(rng.choice(angles)() for _ in range(params[name])) + ")"
        lines.append(f"{name}{args} " + ",".join(f"q[{q}]" for q in rng.sample(range(5), arity)) + ";")
        if i % 41 == 40:
            lines.append("barrier q;")
    return QASM_HEAD + "qreg q[5];\ncreg c[5];\n" + "\n".join(lines) + "\nmeasure q -> c;\n"


#: the four paper circuits and one random CCX/SWAP program, as OPENQASM
TRANSPILE_SOURCES = {
    "eraser": _program(2, ["h q[0];", "cx q[0],q[1];", "h q[1];", "h q[0];"]),
    "bomb": _program(2, ["h q[0];", "cx q[0],q[1];", "h q[0];"]),
    "chain4": _program(4, ["ry(pi/4) q[0];", "cx q[0],q[1];", "ry(pi/4) q[0];", "cx q[0],q[2];",
                           "ry(pi/4) q[0];", "cx q[0],q[3];", "ry(pi/4) q[0];"]),
    "hardy": _program(3, ["ry(0.575*pi) q[0];", "ry(0.575*pi) q[1];", "ccx q[0],q[1],q[2];",
                          "ry(0.425*pi) q[0];", "ry(0.425*pi) q[1];"]),
    "random": _random_program(6, 160),
}

#: (source, device, extra flags) of each pinned transpile run
TRANSPILE_CASES = {
    f"{name}-{device}{'-fuse' if fuse else ''}": (name, device, ("--fuse",) if fuse else ())
    for name in TRANSPILE_SOURCES for device in ("london", "x2") for fuse in (False, True)
}
TRANSPILE_CASES["random-vigo-layout-fuse"] = ("random", "vigo", ("--layout", "3,0,4,1,2", "--fuse"))

#: SHA-256 of each run's stdout: the report, a blank line, then the emitted QASM
TRANSPILE_SHA256 = {
    "bomb-london": "de1144e43a28c16131deb0b2de0438f121cf6bed95e2e3df6648ba93de854d4e",
    "bomb-london-fuse": "de98f1439f498d1af6745f3e3bdafe2473a842c587398f33c5b5e15169f0087e",
    "bomb-x2": "a313bd3b75d1df7c56cfbfe6bc9d133b5969c0c7dd0f60ddb2538e65d8ef3415",
    "bomb-x2-fuse": "892a74da4cb6f3a0f173507979b2e3a9a508475e58569d2e013d087ccffacb5b",
    "chain4-london": "2dc717411fbea762ca8cf4b9c8561251a2f76de41bd81020e5dccbd0f19cf972",
    "chain4-london-fuse": "cd9a23e4a2873c04796977885090e4cffbe3e63b8e9aae4858fbd4be9bde4ce9",
    "chain4-x2": "496c6995524800fefa717b6c05a956cb99cbf48529e2e582cdd514d1ce8457aa",
    "chain4-x2-fuse": "c90ccd5c2dc79732d6256f069e168bba86ceff48374d862f468984d6fe211613",
    "eraser-london": "16ed4dc57d92fba873b7bd218b74e1652273e98feea5975782f1f7dd8fc15ea3",
    "eraser-london-fuse": "5317f5f4ce34b8be80d21485ddf3455cdbdedb88e5b8c32d9d0c017a66d0b46d",
    "eraser-x2": "b219d8240ac66311d15beea3e8bf205b4bbdb2e7cf6989920066f512716106b0",
    "eraser-x2-fuse": "e99a6ddbcd4a1a69aa0d1a101e04bb8834893173184b640feb297868b2697889",
    "hardy-london": "42f9aaa01f2c6a8581743a8505562c17bf529a626c88baa45f9d19378b0e99f4",
    "hardy-london-fuse": "9e1ca9175a0ae5926e691b33d8ec59ab2d0c3873974994e2aa45fc427a3b10d5",
    "hardy-x2": "d3ba93932c1c9d3e62e5a67775518adea873e1de0c9929215c5863cf00f0641d",
    "hardy-x2-fuse": "e66643f1cf95e482cf026091f22717f507f3dbfca989dc99f500b5a25cbc3774",
    "random-london": "5b252b85d45034dd09abe50a9d4c0b42cea93408e6eef484e0213f370bcc1105",
    "random-london-fuse": "a5b4b124279ddbc2bf7f15404726aa8389d851466ccba6142cd2ed77f93a8800",
    "random-vigo-layout-fuse": "60ac811a679fa88af0bf3fc8a57e7cfd03564bbc3d96a2f5db0f3da436bced7e",
    "random-x2": "df64d1130b102d17b0fb370f7ee9d417db25ac4b6886e9c92e75b5858a46a4d7",
    "random-x2-fuse": "33c814bbb8586cbbad2d969f75091e61bc3a7045a0ccba930a9153bf93ffbd4d",
}


@pytest.mark.parametrize("label", sorted(TRANSPILE_CASES))
def test_transpile_output_is_pinned(label, capsys, tmp_path):
    name, device, extra = TRANSPILE_CASES[label]
    path = tmp_path / f"{name}.qasm"
    path.write_text(TRANSPILE_SOURCES[name])
    assert main(["transpile", str(path), "--device", device, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRANSPILE_SHA256[label]
    # --output writes the same QASM and leaves the report on stdout
    target = tmp_path / "out.qasm"
    assert main(["transpile", str(path), "--device", device, *extra,
                 "--output", str(target)]) == 0
    report = capsys.readouterr().out
    assert report + "\n" + target.read_text() == out
