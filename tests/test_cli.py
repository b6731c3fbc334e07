"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` so the tests exercise argument
parsing, config merging, and the exit-code contract exactly as a shell
user would hit them.  Each console case whose argv, exit code and stderr
line (or output check) say it all is a row of one table, `CASES`; a few
rows also run as ``python -m mzsim.cli`` processes.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import cli, experiments, noise
from mzsim.cli import CSV_COLUMNS, main
from mzsim.experiments import (
    ExperimentSpec,
    chain_angles_for_sweep,
    equal_angles,
    eta_general,
    gamma_closed,
)
from mzsim.qasm import emit, parse
from mzsim.experiments import build_eraser, build_general_bomb


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# the console cases: one table, run in process and, for a few rows, as a process
# ---------------------------------------------------------------------------

class File(NamedTuple):
    """A file that a case writes into its directory; its path stands in its argv."""
    name: str
    text: str


def config(**doc) -> File:
    return File("cfg.json", json.dumps(doc))


def qasm(body: str, name: str = "in.qasm") -> File:
    return File(name, "OPENQASM 2.0;\n" + body)


def calibration(**changes) -> str:
    """A valid 5-qubit T-coupled calibration document with `changes` applied."""
    doc = {"name": "toy", "num_qubits": 5, "t1_us": 50.0, "t2_us": 50.0,
           "cnot_error": 0.01, "readout_error": 0.02,
           "coupling": [[0, 1], [1, 2], [1, 3], [3, 4]]}
    doc.update(changes)
    return json.dumps(doc)


def line_device(name: str, readout_error: list) -> File:
    """A line-coupled calibration file with one [p01, p10] readout pair per qubit."""
    n = len(readout_error)
    return File(f"{name}.json", json.dumps({
        "name": name, "num_qubits": n, "t1_us": 80, "t2_us": 60, "cnot_error": 0.01,
        "readout_error": readout_error, "coupling": [[q, q + 1] for q in range(n - 1)]}))


def mitigated_sum_is_1(text: str) -> bool:
    return abs(sum(json.loads(text)["mitigated_probabilities"].values()) - 1) <= 1e-9


def csv_lines(tmp: Path) -> int:
    return (tmp / "out.csv").read_text().count("\n")


def routed(out: str) -> str:
    """The QASM of a transpile report, which follows the report after a blank line."""
    return out.split("\n\n", 1)[1]


ERASER = File("eraser.qasm", emit(build_eraser(erase=True)))
VALID = qasm('include "qelib1.inc";\nqreg q[3];\ncreg c[3];\nh q[0];\nccx q[0],q[1],q[2];\n'
             'measure q -> c;\n', "valid.qasm")
DISCONNECTED = calibration(coupling=[[0, 1], [1, 2], [0, 2], [3, 4]])
TWO_QUBIT_DEVICE = calibration(num_qubits=2, coupling=[[0, 1]])
BOMB_RUN = ("run", "--experiment", "bomb", "--shots", "64")
HARDY_SWEEP = ("sweep", "--experiment", "hardy", "--theta-start", "0.5",
               "--theta-stop", "0.5", "--theta-step", "0.1", "--shots", "64")
HARDY_SWEEP_WIDE = ("sweep", "--experiment", "hardy", "--theta-start", "0.5",
                    "--theta-stop", "0.6", "--theta-step", "0.1")
# later flags win, so each sweep-setting case overrides one of these
SWEEP_ON_VIGO = ("sweep", "--theta-start", "0.5", "--theta-stop", "0.6",
                 "--theta-step", "0.1", "--device", "vigo", "--shots", "64")
TRANSPILE = ("transpile", ERASER, "--device", "vigo")
NO_EXPERIMENT = "an experiment is required (--experiment or config file)"
DEGENERATE_CHAIN = "degenerate chain: photon never reaches the detectors"
NOT_MAPPED = "{}-qubit circuit cannot map onto {} physical qubits"
RANGE = "theta range [{}] must lie in [0, 1] and step {} must be finite (units of pi)"
LAYOUT = "layout [{}] must permute physical qubits 0-4, or place the {} logical qubit(s) " \
         "on distinct ones"
CALIBRATION = "invalid calibration document: "
# test functions whose ids the rows keep, so that test ids stay comparable across changes
MALFORMED = "test_malformed_input_exits_2"
REFUSALS = "test_command_line_refusals_are_one_error_line"
SPELT = "test_flags_are_spelt_in_full"
ORDER = "test_settings_are_refused_in_a_fixed_order"
MISSING = "test_missing_settings_are_named"
NO_KIND = "test_a_missing_experiment_is_refused_in_one_wording"
DEGENERATE = "test_degenerate_chain_exits_2_before_sampling"
FORMAT = "test_unknown_format_exits_2_before_sampling"
WIDER = "test_circuit_wider_than_device_or_simulator_exits_2_before_sampling"
SWEEP_SETTING = "TestSweepErrors::test_bad_sweep_settings_exit_2_before_sampling"
CASE = "test_console_case"


@dataclasses.dataclass(frozen=True)
class Case:
    """One console case: `argv` exits `code`, and stderr is "error: `err`" or empty.

    `ids` lists, split on spaces, the test ids the case runs under, each
    declared with `_filed_as`: a case keeps the ids its older tests gave it,
    and a new one runs as `test_console_case[...]`.  "{tmp}" in `argv` and
    `err` stands for the case's directory.  `check(stdout, tmp)` must hold
    for an exit-0 case.  A `process` case also runs as `python -m mzsim.cli`.
    """
    ids: str
    argv: tuple
    code: int = 2
    err: str = ""
    check: Callable | None = None
    process: bool = False


CASES = [
    # -- run: settings that are missing, unknown or of the wrong type
    Case(f"TestRunErrors::test_experiment_required {NO_KIND}[run]", ("run",), err=NO_EXPERIMENT),
    Case(f"{NO_KIND}[run-config]", ("run", "--config", config(exact=True)), err=NO_EXPERIMENT),
    Case(f"TestRunErrors::test_hardy_needs_thetas {MISSING}[hardy-neither]",
         ("run", "--experiment", "hardy"),
         err="hardy requires --theta0 and --theta1 (units of pi)"),
    Case(f"{MISSING}[hardy-theta0-only]", ("run", "--experiment", "hardy", "--theta0", "0.5"),
         err="hardy requires --theta1 (units of pi)"),
    Case(f"{MISSING}[hardy-theta1-only]", ("run", "--experiment", "hardy", "--theta1", "0.5"),
         err="hardy requires --theta0 (units of pi)"),
    Case(f"TestRunErrors::test_general_bomb_needs_angles {MISSING}[general-bomb-no-angles]",
         ("run", "--experiment", "general-bomb"),
         err="general-bomb requires --angles (units of pi)"),
    *(Case(ids, argv, err="unknown experiment 'nope'; choose from ('eraser', 'bomb', "
                          "'general-bomb', 'hardy')")
      for ids, argv in [
          (f"TestRunErrors::test_invalid_experiment_choice_exits_2 {REFUSALS}[experiment-nope]",
           ("run", "--experiment", "nope")),
          (f"{MALFORMED}[config-experiment-unknown]",
           ("run", "--config", config(experiment="nope"))),
      ]),
    Case("TestRunErrors::test_mitigate_needs_device",
         ("run", "--experiment", "eraser", "--mitigate"),
         err="--mitigate needs a noisy device"),
    Case("TestRunErrors::test_bad_angle_list",
         ("run", "--experiment", "general-bomb", "--angles", "0.3,oops"),
         err="bad angles '0.3,oops': could not convert string to float: 'oops'"),
    Case("TestRunErrors::test_angles_violating_sum_rule",
         ("run", "--experiment", "general-bomb", "--angles", "0.5,0.9", "--exact"),
         err="angles must sum to pi within 1e-09, got 4.39822971502571"),
    Case("TestRunErrors::test_unknown_device",
         ("run", "--experiment", "eraser", "--device", "andromeda"),
         err="device 'andromeda' is neither 'ideal', a preset, nor a calibration file"),
    *(Case(f"TestRunErrors::test_shots_beyond_the_streams_exit_2_before_sampling[{name}-{shots}]",
           ("run", "--experiment", "bomb", "--shots", str(shots), *device),
           err=f"shots must be at most 2**32, the streams one seed gives, got {shots}")
      for name, device in (("ideal", ()), ("vigo", ("--device", "vigo")))
      for shots in (2**32 + 1, 10**12)),
    Case("TestRunErrors::test_output_into_missing_directory",
         ("run", "--experiment", "eraser", "--exact", "--output", "{tmp}/no/such/dir/out.json"),
         code=3, err="[Errno 2] No such file or directory: '{tmp}/no/such/dir/out.json'"),
    Case(f"{MALFORMED}[run-shots-0]", BOMB_RUN + ("--shots", "0"), err="shots must be >= 1, got 0"),
    Case(f"{MALFORMED}[run-seed-negative]", BOMB_RUN + ("--seed", "-1"),
         err="seed must be >= 0, got -1"),
    Case(f"{MALFORMED}[exact-with-device]", BOMB_RUN + ("--exact", "--device", "london"),
         err="--exact gives ideal probabilities and cannot take a noisy device"),
    Case(f"{MALFORMED}[config-exact-with-device]",
         ("run", "--config", config(experiment="bomb", exact=True, device="london")),
         err="--exact gives ideal probabilities and cannot take a noisy device"),
    *(Case(f"{FORMAT}[{where}-{name}]", argv + ("--device", "vigo") + extra,
           err=f"unknown format 'xml' (expected {formats})")
      for where, extra in (("flag", ("--format", "xml")),
                           ("config", ("--config", config(format="xml"))))
      for name, argv, formats in (("run", BOMB_RUN, "json or csv"),
                                  ("sweep", HARDY_SWEEP, "csv or json"))),
    Case(f"{REFUSALS}[format-xml]", BOMB_RUN + ("--format", "xml"),
         err="unknown format 'xml' (expected json or csv)"),
    Case(f"{MALFORMED}[config-format-xml]", ("run", "--config", config(experiment="bomb",
                                                                        format="xml")),
         err="unknown format 'xml' (expected json or csv)"),
    # -- what argparse cannot split; a flag is spelt in full
    Case(f"{REFUSALS}[no-command]", (), err="the following arguments are required: command"),
    Case(f"{REFUSALS}[missing-value]", ("run", "--experiment"),
         err="argument --experiment: expected one argument"),
    Case(f"{REFUSALS}[unknown-flag]", BOMB_RUN + ("--sead", "5"),
         err="unrecognized arguments: --sead 5"),
    Case(f"{SPELT}[shots] {MALFORMED}[abbreviated-shots]", BOMB_RUN + ("--shot", "8"),
         err="unrecognized arguments: --shot 8"),
    Case(f"{SPELT}[no-bomb] {MALFORMED}[abbreviated-no-bomb]",
         ("run", "--experiment", "bomb", "--no-b"), err="unrecognized arguments: --no-b"),
    Case(f"{SPELT}[repeats] {MALFORMED}[abbreviated-repeats]", HARDY_SWEEP + ("--rep", "2"),
         err="unrecognized arguments: --rep 2"),
    # -- a flag and its config key are read alike
    *(Case(ids, argv, err="bad shots 'x': invalid literal for int() with base 10: 'x'")
      for ids, argv in [(f"{REFUSALS}[shots-x]", ("run", "--experiment", "bomb", "--shots", "x")),
                        ("test_flag_and_config_key_are_refused_alike",
                         ("run", "--config", config(experiment="bomb", shots="x")))]),
    *(Case(f"{MALFORMED}[config-{name}]", ("run", "--config", config(experiment=kind, **doc)),
           err=err)
      for name, kind, doc, err in [
          ("shots-list", "bomb", dict(shots=[1]), "bad shots [1]: expected an integer"),
          ("shots-text", "bomb", dict(shots="abc"),
           "bad shots 'abc': invalid literal for int() with base 10: 'abc'"),
          ("shots-float", "bomb", dict(shots=2.7), "bad shots 2.7: expected an integer"),
          ("shots-bool", "bomb", dict(shots=True), "bad shots True: expected an integer"),
          ("seed-float", "bomb", dict(seed=1.5), "bad seed 1.5: expected an integer"),
          ("boolean-as-text", "bomb", dict(device="vigo", shots=64, mitigate="false"),
           "bad mitigate 'false': expected a JSON boolean (true or false)"),
          ("angles-bool", "general-bomb", dict(angles=[True, 0]),
           "bad angles [True, 0]: expected a number"),
          ("hardy-thetas-bool", "hardy", dict(theta0=True, theta1=True),
           "bad theta0 True: expected a number"),
          ("hardy-theta1-bool", "hardy", dict(theta0=0.5, theta1=True),
           "bad theta1 True: expected a number"),
      ]),
    # -- run: the first of two bad settings is the one refused
    Case(f"{ORDER}[run-shots-before-seed]",
         ("run", "--experiment", "bomb", "--shots", "0", "--seed", "-1"),
         err="shots must be >= 1, got 0"),
    Case(f"{ORDER}[run-seed-before-mitigate]",
         ("run", "--experiment", "bomb", "--seed", "-1", "--mitigate"),
         err="seed must be >= 0, got -1"),
    Case(f"{ORDER}[run-exact-read-before-shots-checked]",
         ("run", "--experiment", "bomb", "--shots", "0", "--config", config(exact="yes")),
         err="bad exact 'yes': expected a JSON boolean (true or false)"),
    Case(f"{ORDER}[run-device-before-shots-read]",
         ("run", "--experiment", "bomb", "--shots", "x", "--device", "nope"),
         err="device 'nope' is neither 'ideal', a preset, nor a calibration file"),
    Case(f"{ORDER}[run-shots-before-exact-with-device]",
         ("run", "--experiment", "bomb", "--exact", "--device", "vigo", "--shots", "0"),
         err="shots must be >= 1, got 0"),
    # -- run: degenerate chains, and circuits wider than the device or the simulator
    *(Case(ids, ("run", "--experiment", "general-bomb", "--angles", *flags), err=DEGENERATE_CHAIN)
      for ids, flags in [
          (f"{DEGENERATE}[extra0] {MALFORMED}[degenerate-chain-0,1]", ("0,1",)),
          (f"{DEGENERATE}[extra1]", ("0,1", "--exact")),
          (f"{DEGENERATE}[extra2] {MALFORMED}[degenerate-chain-0,0,1]", ("0,0,1",)),
          (f"{DEGENERATE}[extra3]", ("0,1", "--device", "vigo")),
      ]),
    Case(f"{WIDER}[run-chain-wider-than-device]",
         ("run", "--experiment", "general-bomb", "--angles", "0.2,0.2,0.2,0.2,0.1,0.1",
          "--device", "vigo"), err=NOT_MAPPED.format(6, 5)),
    Case(f"{WIDER}[run-chain-wider-than-simulator]",
         ("run", "--experiment", "general-bomb", "--angles", ",".join(["0.04"] * 25)),
         err="num_qubits must be in [1, 24], got 25"),
    Case(f"{WIDER}[run-hardy-wider-than-device]",
         ("run", "--experiment", "hardy", "--theta0", "0.5", "--theta1", "0.5",
          "--device", TWO_QUBIT_DEVICE), err=NOT_MAPPED.format(3, 2)),
    Case(f"{WIDER}[sweep-hardy-wider-than-device]", HARDY_SWEEP + ("--device", TWO_QUBIT_DEVICE),
         err="a Hardy test needs 3 qubits but device 'toy' has 2"),
    Case(f"{WIDER}[transpile-wider-than-device]",
         ("transpile", File("chain.qasm", emit(build_general_bomb(equal_angles(6)))),
          "--device", "vigo"), err=NOT_MAPPED.format(6, 5)),
    Case(f"{CASE}[transpile-six-qubits-on-vigo]",
         ("transpile", qasm('include "qelib1.inc";\nqreg q[6];\nh q[0];\ncx q[0],q[5];\n'),
          "--device", "vigo"), err=NOT_MAPPED.format(6, 5)),
    # -- config files
    Case("TestConfigFile::test_missing_config_file", ("run", "--config", "{tmp}/nope.json"),
         err="config file not found: {tmp}/nope.json"),
    Case("TestConfigFile::test_config_not_json", ("run", "--config", File("cfg.json", "{not json")),
         err="config file is not valid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
    Case("TestConfigFile::test_config_not_an_object",
         ("run", "--config", File("cfg.json", "[1, 2, 3]")),
         err="config file must hold a JSON object"),
    Case(f"{MALFORMED}[config-key-misspelt]",
         ("run", "--config", config(experiment="bomb", shots=100, sead=5)),
         err="config key(s) that name no run flag: sead"),
    Case(f"{MALFORMED}[config-key-of-another-command]",
         ("run", "--config", config(experiment="bomb", shots=100, repeats=2)),
         err="config key(s) that name no run flag: repeats"),
    Case("test_config_key_that_names_no_flag_is_named",
         ("run", "--config", config(experiment="bomb", sead=5, repeats=2)),
         err="config key(s) that name no run flag: repeats, sead"),
    Case(f"{CASE}[config-names-a-config-file]",
         ("run", "--config", config(experiment="bomb", exact=True, config="nowhere.json")),
         err="a config file cannot name another config file (key 'config')"),
    # -- calibration documents
    *(Case(f"{MALFORMED}[{name}]", BOMB_RUN + ("--device", calibration(**changes)),
           err=CALIBRATION + err)
      for name, changes, err in [
          ("readout-list-of-scalars", dict(readout_error=[0.1, 0.2, 0.1, 0.1, 0.1]),
           "cannot unpack non-iterable float object"),
          ("num-qubits-null", dict(num_qubits=None),
           "num_qubits must be a JSON integer, got None"),
          ("num-qubits-float", dict(num_qubits=4.9), "num_qubits must be a JSON integer, got 4.9"),
          ("num-qubits-bool", dict(num_qubits=True),
           "num_qubits must be a JSON integer, got True"),
          ("num-qubits-text", dict(num_qubits="5"), "num_qubits must be a JSON integer, got '5'"),
          ("coupling-float", dict(coupling=[[0, 1.9], [1, 2], [1, 3], [3, 4]]),
           "expected an integer index, got 1.9"),
          ("coupling-text-and-bool", dict(coupling=[["0", True], [1, 2], [1, 3], [3, 4]]),
           "expected an integer index, got '0'"),
      ]),
    *(Case(f"{MALFORMED}[disconnected-{name}]", argv,
           err=CALIBRATION + "coupling graph must be connected")
      for name, argv in [("run", BOMB_RUN + ("--device", DISCONNECTED)),
                         ("transpile", ("transpile", ERASER, "--device", DISCONNECTED)),
                         ("sweep", HARDY_SWEEP + ("--device", DISCONNECTED))]),
    Case(f"{CASE}[coupling-float-in-a-file]",
         ("run", "--experiment", "bomb", "--device", File("toy.json", calibration(
             num_qubits=3, t1_us=80, t2_us=60, coupling=[[0, 1.5], [1, 2]]))),
         err=CALIBRATION + "expected an integer index, got 1.5"),
    # -- sweep settings
    Case(f"{NO_KIND}[sweep] {MALFORMED}[sweep-no-experiment]",
         ("sweep", "--theta-start", "0.5", "--theta-stop", "0.5", "--theta-step", "0.1"),
         err=NO_EXPERIMENT),
    Case(f"{NO_KIND}[sweep-config]",
         ("sweep", "--config", config(theta_start=0.5, theta_stop=0.5, theta_step=0.1)),
         err=NO_EXPERIMENT),
    Case("TestSweepErrors::test_missing_grid_flags",
         ("sweep", "--experiment", "hardy", "--theta-start", "0.5"),
         err="sweep needs --theta-start, --theta-stop, --theta-step (units of pi)"),
    Case("TestSweepErrors::test_general_bomb_needs_n_values",
         ("sweep", "--experiment", "general-bomb", "--theta-start", "0.3", "--theta-stop", "0.5",
          "--theta-step", "0.1"), err="general-bomb sweep needs --n-values"),
    Case("TestSweepErrors::test_unsupported_sweep_via_config",
         ("sweep", "--config", config(experiment="eraser", theta_start=0.3, theta_stop=0.5,
                                      theta_step=0.1)),
         err="sweep supports general-bomb and hardy, not 'eraser'"),
    Case("TestSweepErrors::test_grid_point_on_boundary",
         ("sweep", "--experiment", "general-bomb", "--n-values", "2", "--theta-start", "0.5",
          "--theta-stop", "1.0", "--theta-step", "0.5"),
         err="theta/pi must lie strictly inside (0, 1), got 1.0"),
    Case("TestSweepErrors::test_negative_step", HARDY_SWEEP_WIDE + ("--theta-step", "-0.1"),
         err="theta-step must be positive, got -0.1"),
    Case("TestSweepErrors::test_empty_range",
         ("sweep", "--experiment", "hardy", "--theta-start", "0.6", "--theta-stop", "0.5",
          "--theta-step", "0.1"), err="theta range is empty: [0.6, 0.5]"),
    Case("TestSweepErrors::test_bad_repeats", HARDY_SWEEP + ("--repeats", "0"),
         err="repeats must be >= 1, got 0"),
    Case(f"{MALFORMED}[n-values-2,x]",
         ("sweep", "--experiment", "general-bomb", "--n-values", "2,x", "--theta-start", "0.5",
          "--theta-stop", "0.5", "--theta-step", "0.1"),
         err="bad n_values '2,x': invalid literal for int() with base 10: 'x'"),
    Case(f"{MALFORMED}[sweep-seed-negative]", HARDY_SWEEP + ("--seed", "-1"),
         err="seed must be >= 0, got -1"),
    *(Case(f"{MALFORMED}[config-{name}]", HARDY_SWEEP + ("--config", config(**doc)), err=err)
      for name, doc, err in [
          ("repeats-float", dict(repeats=2.5), "bad repeats 2.5: expected an integer"),
          ("hardy-grid", dict(hardy_grid="xyz"),
           "hardy_grid must be 'diagonal' or 'full', got 'xyz'"),
      ]),
    *(Case(f"{MALFORMED}[config-theta-{name}-bool]",
           ("sweep", "--config", config(experiment="hardy", **doc)),
           err=f"bad theta_{name} True: expected a number")
      for name, doc in [
          ("start", dict(theta_start=True, theta_stop=1, theta_step=0.5)),
          ("stop", dict(theta_start=0.5, theta_stop=True, theta_step=0.5)),
          ("step", dict(theta_start=0.5, theta_stop=0.5, theta_step=True)),
      ]),
    Case(f"{ORDER}[sweep-repeats-before-shots]",
         HARDY_SWEEP_WIDE + ("--repeats", "0", "--shots", "0"), err="repeats must be >= 1, got 0"),
    Case(f"{ORDER}[sweep-repeats-read-before-shots-checked]",
         HARDY_SWEEP_WIDE + ("--repeats", "x", "--shots", "0"),
         err="bad repeats 'x': invalid literal for int() with base 10: 'x'"),
    Case(f"{ORDER}[sweep-shots-before-hardy-grid]",
         HARDY_SWEEP_WIDE + ("--shots", "0", "--hardy-grid", "xyz"),
         err="shots must be >= 1, got 0"),
    Case(f"{ORDER}[sweep-grid-before-shots-read]",
         HARDY_SWEEP_WIDE + ("--theta-step", "-1", "--shots", "x"),
         err="theta-step must be positive, got -1.0"),
    *(Case(f"{SWEEP_SETTING}[{name}]", SWEEP_ON_VIGO + flags, err=err)
      for name, flags, err in [
          ("chain-of-one", ("--experiment", "general-bomb", "--n-values", "2,1"),
           "need n >= 2, got 1"),
          ("chain-of-none", ("--experiment", "general-bomb", "--n-values", "3,0"),
           "need n >= 2, got 0"),
          ("start-below-0", ("--experiment", "hardy", "--theta-start", "-0.1"),
           RANGE.format("-0.1, 0.6", 0.1)),
          ("stop-above-1", ("--experiment", "hardy", "--theta-stop", "1.2"),
           RANGE.format("0.5, 1.2", 0.1)),
          ("chain-stop-above-1", ("--experiment", "general-bomb", "--n-values", "2",
                                  "--theta-stop", "1.5"), RANGE.format("0.5, 1.5", 0.1)),
          ("start-nan", ("--experiment", "hardy", "--theta-start", "nan"),
           RANGE.format("nan, 0.6", 0.1)),
          ("step-inf", ("--experiment", "hardy", "--theta-step", "inf"),
           RANGE.format("0.5, 0.6", "inf")),
          ("stop-inf", ("--experiment", "hardy", "--theta-stop", "inf"),
           RANGE.format("0.5, inf", 0.1)),
          ("start-minus-inf", ("--experiment", "general-bomb", "--n-values", "2",
                               "--theta-start=-inf"), RANGE.format("-inf, 0.6", 0.1)),
          ("chain-wider-than-device", ("--experiment", "general-bomb", "--n-values", "2,6"),
           "a chain of N = 6 needs 6 qubits but device 'vigo-0820' has 5"),
          ("chain-wider-than-simulator", ("--experiment", "general-bomb", "--n-values", "2,30",
                                          "--device", "ideal"),
           "a chain of N = 30 needs 30 qubits, more than the simulator's 24"),
          ("chain-of-10^12", ("--experiment", "general-bomb", "--n-values", "2," + "9" * 12),
           "a chain of N = 999999999999 needs 999999999999 qubits, more than the simulator's 24"),
          ("step-1e-9", ("--experiment", "hardy", "--theta-step", "1e-9"),
           "theta range [0.5, 0.6] in steps of 1e-09 has more than 10001 points"),
          ("step-denormal", ("--experiment", "hardy", "--theta-start", "0", "--theta-stop", "1",
                             "--theta-step", "5e-324"),
           "theta range [0.0, 1.0] in steps of 5e-324 has more than 10001 points"),
          ("shots-above-2^32", ("--experiment", "hardy", "--shots", str(2**32 + 1)),
           "shots must be at most 2**32, the streams one seed gives, got 4294967297"),
      ]),
    Case(f"{CASE}[stop-inf-without-a-device]",
         ("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "inf",
          "--theta-step", "0.1"), err=RANGE.format("0.5, inf", 0.1)),
    Case(f"{CASE}[chain-wider-than-vigo]",
         ("sweep", "--experiment", "general-bomb", "--n-values", "2,6", "--theta-start", "0.5",
          "--theta-stop", "0.5", "--theta-step", "0.1", "--device", "vigo", "--shots", "64"),
         err="a chain of N = 6 needs 6 qubits but device 'vigo-0820' has 5"),
    Case(f"{CASE}[full-grid-of-10001-squared-points]",
         ("sweep", "--experiment", "hardy", "--hardy-grid", "full", "--theta-start", "0",
          "--theta-stop", "1", "--theta-step", "1e-4"),
         err="the sweep grid has 100020001 points, more than 10001"),
    Case(f"{CASE}[repeats-beyond-the-row-cap]",
         ("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "0.5",
          "--theta-step", "0.1", "--device", "vigo", "--shots", "8", "--repeats", "1000000000"),
         err="the sweep would sample 1 point(s) x 1000000000 repeats = 1000000000 rows, more "
             "than 100000", process=True),
    # -- transpile
    Case(f"TestTranspileCommand::test_device_flag_required {REFUSALS}[missing-device]",
         ("transpile", ERASER), err="the following arguments are required: --device"),
    Case("TestTranspileCommand::test_ideal_device_rejected",
         ("transpile", ERASER, "--device", "ideal"),
         err="transpile requires a real device (--device PRESET|FILE)"),
    Case("TestTranspileCommand::test_missing_input",
         ("transpile", "{tmp}/ghost.qasm", "--device", "vigo"),
         err="input file not found: {tmp}/ghost.qasm"),
    Case("TestTranspileCommand::test_parse_error_exits_2",
         ("transpile", qasm("qreg q[1];\nrz(0.1) q[0];\n"), "--device", "vigo"),
         err="line 3, column 1: unsupported gate 'rz'"),
    *(Case(f"TestTranspileCommand::test_oversized_register_exits_2[{name}]",
           ("transpile", qasm(body), "--device", "vigo"), err=err)
      for name, body, err in [
          ("qreg-30", "qreg q[30];\nh q[0];\n",
           "line 2, column 8: qreg q[30] brings the program to 30 qubits; at most 24 are "
           "supported"),
          ("qreg-creg-100000", "qreg q[100000];\ncreg c[100000];\nh q;\nmeasure q -> c;\n",
           "line 2, column 8: qreg q[100000] brings the program to 100000 qubits; at most 24 "
           "are supported"),
          ("creg-100000", "qreg q[2];\ncreg c[100000];\nmeasure q -> c;\n",
           "line 4, column 1: register sizes differ: 2 qubits -> 100000 clbits"),
          ("qreg-5000-digits", "qreg q[" + "9" * 5000 + "];\n",
           "line 2, column 8: register size has 5000 digits, past Python's limit for integer "
           "strings"),
      ]),
    Case("TestTranspileCommand::test_non_ascii_digits_exit_2",
         ("transpile", qasm("qreg q[\u0663];\nh q[\u0661];\n"), "--device", "vigo"),
         err="line 2, column 8: unexpected character '\u0663'"),
    *(Case(f"TestTranspileCommand::test_repeated_barrier_operand_exits_2[{operands}]",
           ("transpile", qasm(f"qreg q[2];\nbarrier {operands};\n"), "--device", "vigo"),
           err=f"line 3, column 1: repeated qubit in {qubits}")
      for operands, qubits in (("q[0],q[0]", (0, 0)), ("q,q[1]", (0, 1, 1)))),
    Case("TestTranspileCommand::test_bad_layout_exits_2", TRANSPILE + ("--layout", "1,1"),
         err=LAYOUT.format("1, 1", 2)),
    Case("TestTranspileCommand::test_negative_layout_after_a_space_is_one_error_line "
         f"{REFUSALS}[layout-space--1,0,1] {MALFORMED}[layout-space--1,0,1]",
         TRANSPILE + ("--layout", "-1,0,1"), err="argument --layout: expected one argument"),
    *(Case(f"{MALFORMED}[layout-{text}]", TRANSPILE + ("--layout", text),
           err=f"bad layout '{text}': invalid literal for int() with base 10: '{bad}'")
      for text, bad in (("a", "a"), ("0,1,x", "x"), ("2.5", "2.5"))),
    *(Case(f"{MALFORMED}[layout-{text}]", TRANSPILE + (f"--layout={text}",),
           err=LAYOUT.format(text.replace(",", ", "), 2))
      for text in ("1,1", "0,0,1", "0,1,7", "-1,0,1", "0,1,2,3,4,5")),
    Case(f"{CASE}[three-qubits-on-layout-1,1]",
         ("transpile", VALID, "--device", "vigo", "--layout", "1,1"), err=LAYOUT.format("1, 1", 3)),
    Case(f"{CASE}[swap-through-a-measured-qubit]",
         ("transpile", qasm('include "qelib1.inc";\nqreg q[5];\ncreg c[5];\n'
                            'measure q[3] -> c[3];\ncx q[4],q[0];\n'), "--device", "vigo"),
         code=3, err="cannot route the CNOT on logical qubits (4, 0): its SWAPs cross physical "
                     "qubit 3, which is already measured", process=True),
    # -- commands that succeed
    Case("TestConfigFile::test_config_supplies_everything",
         ("run", "--config", config(experiment="bomb", bomb=False, exact=True)), code=0,
         check=lambda out, tmp: json.loads(out)["parameters"] == {"present": False}
         and json.loads(out)["exact"] is True),
    Case("TestConfigFile::test_flag_overrides_config",
         ("run", "--config", config(experiment="bomb", bomb=False, exact=True), "--bomb"), code=0,
         check=lambda out, tmp: json.loads(out)["parameters"] == {"present": True}),
    Case("TestConfigFile::test_config_seed_and_shots",
         ("run", "--config", config(experiment="eraser", shots=512, seed=11)), code=0,
         check=lambda out, tmp: (json.loads(out)["shots"], json.loads(out)["seed"]) == (512, 11)),
    Case("TestRunErrors::test_output_file_written",
         ("run", "--experiment", "eraser", "--exact", "--output", "{tmp}/out.json"), code=0,
         check=lambda out, tmp: out == "" and json.loads((tmp / "out.json").read_text())[
             "probabilities"]["00"] == pytest.approx(0.5)),
    Case("TestSweep::test_sweep_json_format",
         ("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "0.5",
          "--theta-step", "0.1", "--format", "json"), code=0,
         check=lambda out, tmp: [r["observable"] for r in json.loads(out)["rows"]] == ["gamma"]),
    Case("TestSweep::test_sweep_output_file",
         ("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "0.5",
          "--theta-step", "0.1", "--output", "{tmp}/out.csv"), code=0,
         check=lambda out, tmp: out == "" and csv_lines(tmp) == 2
         and (tmp / "out.csv").read_text().startswith(",".join(CSV_COLUMNS) + "\n")),
    Case("test_config_key_of_another_experiment_is_ignored",  # as --angles is on an eraser run
         ("run", "--config", config(experiment="eraser", angles="0.5,0.5", exact=True)), code=0,
         check=lambda out, tmp: json.loads(out)["parameters"] == {"erase": True}),
    Case("TestSweep::test_hardy_full_grid",
         ("sweep", "--experiment", "hardy", "--theta-start", "0.4", "--theta-stop", "0.5",
          "--theta-step", "0.1", "--hardy-grid", "full"), code=0,
         check=lambda out, tmp: sorted(
             (r["theta0_over_pi"], r["theta1_over_pi"], r["theta_over_pi"])
             for r in parse_csv(out)[1]) == [("0.4", "0.4", ""), ("0.4", "0.5", ""),
                                             ("0.5", "0.4", ""), ("0.5", "0.5", "")]),
    Case("TestSweep::test_mitigated_sweep_rows",
         ("sweep", "--experiment", "general-bomb", "--n-values", "2", "--theta-start", "0.5",
          "--theta-stop", "0.5", "--theta-step", "0.1", "--device", "vigo-0820", "--shots", "500",
          "--seed", "2", "--repeats", "2", "--mitigate"), code=0,
         check=lambda out, tmp: [r["mitigated"] for r in parse_csv(out)[1]] == [
             "false", "false", "false", "true", "true"]),
    Case("TestTranspileCommand::test_report_and_emitted_qasm", TRANSPILE, code=0,
         check=lambda out, tmp: all(part in out for part in (
             "device: vigo-0820", "qubits: logical 2 -> physical 5", "swaps inserted: 0",
             "estimated error: 0.046340")) and parse(routed(out)).num_qubits == 5
         and {inst.gate.name for inst in parse(routed(out)).gate_instructions()}
         <= {"U1", "U2", "U3", "CNOT"}),
    Case("TestTranspileCommand::test_output_file_holds_qasm_only",
         TRANSPILE + ("--output", "{tmp}/routed.qasm"), code=0,
         check=lambda out, tmp: "estimated fidelity" in out and "OPENQASM" not in out
         and parse((tmp / "routed.qasm").read_text()).num_qubits == 5),
    Case("TestTranspileCommand::test_signed_zeros_keep_their_lines",
         ("transpile", qasm("qreg q[2];\nu1(-0) q[0];\nu1(0) q[0];\nu1(0) q[1];\nu1(-0) q[1];\n"
                            "cx q[0],q[1];\n", "zeros.qasm"), "--device", "vigo"), code=0,
         check=lambda out, tmp: "initial layout: [1, 0, 2, 3, 4]" in out
         and routed(out).split("\n")[3:] == ["u1(-0) q[1];", "u1(0) q[1];", "u1(0) q[0];",
                                              "u1(-0) q[0];", "cx q[1],q[0];", ""]),
    Case("TestTranspileCommand::test_explicit_layout", TRANSPILE + ("--layout", "2,1"), code=0,
         check=lambda out, tmp: "initial layout: [2, 1" in out),
    Case("TestTranspileCommand::test_fuse_flag", TRANSPILE + ("--fuse",), code=0,
         check=lambda out, tmp: parse(routed(out)).count_gates().get("U3", 0) >= 1),
    Case(f"{CASE}[mitigated-hardy-run]",
         ("run", "--experiment", "hardy", "--theta0", "0.575", "--theta1", "0.575",
          "--device", "vigo", "--shots", "256", "--mitigate"),
         code=0, check=lambda out, tmp: mitigated_sum_is_1(out), process=True),
    Case(f"{CASE}[unerased-eraser-run]",
         ("run", "--experiment", "eraser", "--no-erase", "--shots", "1000"),
         code=0, check=lambda out, tmp: sum(json.loads(out)["counts"].values()) == 1000),
    Case(f"{CASE}[heavy7-mitigated-run]",  # readout 0.4 sends it to the constrained fallback
         ("run", "--experiment", "general-bomb", "--angles", "0.15,0.15,0.15,0.15,0.15,0.15,0.1",
          "--device", line_device("heavy7", [[0.4, 0.4]] * 7), "--shots", "1024", "--seed", "1",
          "--mitigate"),
         code=0, check=lambda out, tmp: mitigated_sum_is_1(out)),
    Case(f"{CASE}[skew8-mitigated-run]",  # asymmetric readout: the factors decide the fallback
         ("run", "--experiment", "general-bomb",
          "--angles", "0.13,0.13,0.13,0.13,0.13,0.13,0.13,0.09",
          "--device", line_device("skew8", [[0.01, 0.05], [0.02, 0.04], [0.015, 0.06],
                                            [0.01, 0.03], [0.025, 0.05], [0.02, 0.07],
                                            [0.01, 0.04], [0.03, 0.06]]),
          "--shots", "1024", "--seed", "1", "--mitigate", "--output", "{tmp}/out.json"),
         code=0, check=lambda out, tmp: mitigated_sum_is_1((tmp / "out.json").read_text())),
    Case(f"{CASE}[mitigated-chain-sweep-json]",  # 2 chains x 3 points x 5 rows
         ("sweep", "--experiment", "general-bomb", "--n-values", "2,3", "--theta-start", "0.3",
          "--theta-stop", "0.5", "--theta-step", "0.1", "--device", "london", "--shots", "512",
          "--repeats", "2", "--mitigate", "--format", "json"),
         code=0, check=lambda out, tmp: len(json.loads(out)["rows"]) == 30),
    Case(f"{CASE}[mitigated-full-hardy-grid]",  # a header, then 9 points x 5 rows
         ("sweep", "--experiment", "hardy", "--hardy-grid", "full", "--theta-start", "0.55",
          "--theta-stop", "0.6", "--theta-step", "0.025", "--device", "vigo", "--shots", "512",
          "--repeats", "2", "--mitigate", "--output", "{tmp}/out.csv"),
         code=0, check=lambda out, tmp: csv_lines(tmp) == 46),
    Case(f"{CASE}[mitigated-chains-2-to-5]",  # a header, then 4 chains x 5 rows
         ("sweep", "--experiment", "general-bomb", "--n-values", "2,3,4,5",
          "--theta-start", "0.4", "--theta-stop", "0.4", "--theta-step", "0.1",
          "--device", "london", "--shots", "512", "--repeats", "2", "--mitigate",
          "--output", "{tmp}/out.csv"),
         code=0, check=lambda out, tmp: csv_lines(tmp) == 21),
    Case(f"{CASE}[fused-reversed-layout]",
         ("transpile", VALID, "--device", "vigo", "--fuse", "--layout", "4,3,2,1,0"),
         code=0, check=lambda out, tmp: "initial layout: [4, 3, 2, 1, 0]" in out
         and parse(routed(out)).count_gates().get("U3", 0) >= 1),
    Case(f"{CASE}[fused-runs]",  # one run is the identity, one an x, one starts at u1(-0)
         ("transpile", qasm('include "qelib1.inc";\nqreg q[3];\ncreg c[3];\nu1(0.5) q[0];\n'
                            'u1(-0.5) q[0];\nx q[1];\nu1(-0) q[2];\nu1(0.25) q[2];\n'
                            'cx q[0],q[1];\nmeasure q -> c;\n'),
          "--fuse", "--device", "vigo", "--output", "{tmp}/fused.qasm"),
         code=0, check=lambda out, tmp: (tmp / "fused.qasm").read_text().count("\nu3(") == 2),
    Case(f"{CASE}[5000-minus-signs]",
         ("transpile", qasm("qreg q[2];\nry(" + "-" * 5000 + "1) q;\n"), "--device", "vigo"),
         code=0),
]


def _argv(case: Case, tmp: Path) -> list[str]:
    argv = []
    for arg in case.argv:
        if isinstance(arg, File):
            (tmp / arg.name).write_text(arg.text, encoding="utf-8")
            arg = str(tmp / arg.name)
        argv.append(arg.replace("{tmp}", str(tmp)))
    return argv


def _check(case: Case, code: int, out: str, err: str, tmp: Path):
    assert code == case.code, err
    if code == 0:
        assert err == ""
        if case.check is not None:
            assert case.check(out, tmp), out
        return
    assert out == ""  # a refusal or a failure prints one error line and nothing else
    assert "Traceback" not in err and err.count("\n") == 1, err
    assert err == f"error: {case.err}\n".replace("{tmp}", str(tmp))


def _run_in_process(case: Case, tmp: Path, capsys, monkeypatch):
    if case.code == 2:  # a refusal comes before any shot is sampled
        def sample(*args, **kwargs):
            raise AssertionError("sampled before the command was refused")

        for sampler in ("ideal_counts", "simulate_noisy", "simulate_noisy_points",
                        "simulate_ideal"):
            monkeypatch.setattr(cli, sampler, sample)
    start = time.perf_counter()
    code = main(_argv(case, tmp))
    out, err = capsys.readouterr()
    _check(case, code, out, err, tmp)
    assert time.perf_counter() - start < 60, "a console case took a minute or more"


def _filed_as(test: str):
    """The test `test` ("function" or "Class::function"): it runs in process each
    row whose ids name it, parametrized by what follows the name in brackets, or alone."""
    rows = [(param, case) for case in CASES for name, _, param in
            (i.removesuffix("]").partition("[") for i in case.ids.split()) if name == test]
    if rows[0][0]:
        @pytest.mark.parametrize("case", [case for _, case in rows],
                                 ids=[param for param, _ in rows])
        def run(case, tmp_path, capsys, monkeypatch):
            _run_in_process(case, tmp_path, capsys, monkeypatch)
    else:
        ((_, case),) = rows

        def run(tmp_path, capsys, monkeypatch):
            _run_in_process(case, tmp_path, capsys, monkeypatch)
    return staticmethod(run) if "::" in test else run


# the tests that run the rows, under the ids the rows name
test_a_missing_experiment_is_refused_in_one_wording = _filed_as(NO_KIND)
test_missing_settings_are_named = _filed_as(MISSING)
test_command_line_refusals_are_one_error_line = _filed_as(REFUSALS)
test_malformed_input_exits_2 = _filed_as(MALFORMED)
test_unknown_format_exits_2_before_sampling = _filed_as(FORMAT)
test_flags_are_spelt_in_full = _filed_as(SPELT)
test_flag_and_config_key_are_refused_alike = _filed_as("test_flag_and_config_key_are_refused_alike")
test_settings_are_refused_in_a_fixed_order = _filed_as(ORDER)
test_degenerate_chain_exits_2_before_sampling = _filed_as(DEGENERATE)
test_circuit_wider_than_device_or_simulator_exits_2_before_sampling = _filed_as(WIDER)
test_console_case = _filed_as(CASE)
test_config_key_that_names_no_flag_is_named = _filed_as(
    "test_config_key_that_names_no_flag_is_named")
test_config_key_of_another_experiment_is_ignored = _filed_as(
    "test_config_key_of_another_experiment_is_ignored")


class TestConfigFile:
    test_missing_config_file = _filed_as("TestConfigFile::test_missing_config_file")
    test_config_not_json = _filed_as("TestConfigFile::test_config_not_json")
    test_config_not_an_object = _filed_as("TestConfigFile::test_config_not_an_object")
    test_config_supplies_everything = _filed_as("TestConfigFile::test_config_supplies_everything")
    test_flag_overrides_config = _filed_as("TestConfigFile::test_flag_overrides_config")
    test_config_seed_and_shots = _filed_as("TestConfigFile::test_config_seed_and_shots")


class TestRunExact:
    def test_eraser_erased_probabilities(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--experiment", "eraser", "--exact")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["experiment"] == "eraser"
        assert doc["observable"] == "distribution"
        assert doc["exact"] is True
        assert doc["shots"] is None
        assert doc["device"] == "ideal"
        assert doc["fidelity_estimate"] == 1.0
        assert doc["probabilities"]["00"] == pytest.approx(0.5, abs=1e-12)
        assert doc["probabilities"]["11"] == pytest.approx(0.5, abs=1e-12)
        assert doc["theory"] == {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}
        assert doc["parameters"] == {"erase": True}

    def test_eraser_without_erasure_is_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser", "--no-erase", "--exact")
        assert code == 0
        doc = json.loads(out)
        for key in ("00", "01", "10", "11"):
            assert doc["probabilities"][key] == pytest.approx(0.25, abs=1e-12)

    def test_bomb_eta_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--exact",
            "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 1
        row = rows[0]
        assert row["experiment"] == "bomb"
        assert row["observable"] == "eta"
        assert row["N"] == "2"
        assert float(row["value"]) == pytest.approx(1 / 3, abs=1e-12)
        assert float(row["theory"]) == pytest.approx(1 / 3, abs=1e-12)
        assert row["shots"] == "" and row["seed"] == ""
        assert row["device"] == "ideal"
        assert row["mitigated"] == "false"

    def test_bomb_absent_collapses_to_00(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--no-bomb", "--exact")
        doc = json.loads(out)
        assert code == 0
        assert doc["value"]["00"] == pytest.approx(1.0)
        assert all(v < 1e-12 for k, v in doc["value"].items() if k != "00")
        assert doc["theory"]["00"] == 1.0

    def test_general_bomb_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "general-bomb",
            "--angles", "0.25,0.25,0.25,0.25", "--exact")
        assert code == 0
        doc = json.loads(out)
        expected = eta_general(equal_angles(4))
        assert doc["value"] == pytest.approx(expected, abs=1e-9)
        assert doc["theory"] == pytest.approx(expected, abs=1e-12)
        assert doc["parameters"]["angles_over_pi"] == pytest.approx([0.25] * 4)

    def test_hardy_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "hardy",
            "--theta0", "0.575", "--theta1", "0.575", "--exact")
        assert code == 0
        doc = json.loads(out)
        expected = gamma_closed(0.575 * np.pi, 0.575 * np.pi)
        assert doc["value"] == pytest.approx(expected, abs=1e-9)
        assert doc["observable"] == "gamma"
        assert doc["parameters"]["theta0_over_pi"] == pytest.approx(0.575)

    def test_eraser_csv_distribution_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser", "--exact",
            "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["observable"] for r in rows] == [
            "p_00", "p_01", "p_10", "p_11"]
        probs = {r["observable"]: float(r["value"]) for r in rows}
        assert probs["p_00"] == pytest.approx(0.5, abs=1e-12)
        assert probs["p_11"] == pytest.approx(0.5, abs=1e-12)
        assert probs["p_01"] == pytest.approx(0.0, abs=1e-12)
        assert float(rows[0]["theory"]) == 0.5


class TestRunSampled:
    def test_ideal_sampling_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser",
            "--shots", "4096", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["shots"] == 4096
        assert doc["seed"] == 7
        assert sum(doc["counts"].values()) == 4096
        # the erased interferometer never produces 01 or 10
        assert set(doc["counts"]) <= {"00", "11"}
        total = sum(doc["value"].values())
        assert total == pytest.approx(1.0)

    def test_same_seed_is_byte_identical(self, capsys):
        _, first, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "3")
        _, second, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "3")
        assert first == second

    def test_different_seeds_differ(self, capsys):
        _, first, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "3")
        _, second, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "4")
        assert json.loads(first)["counts"] != json.loads(second)["counts"]

    def test_noisy_device_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--device", "vigo",
            "--shots", "1024", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["device"] == "vigo-0820"
        assert 0.0 < doc["fidelity_estimate"] < 1.0
        assert doc["error_estimate"] == pytest.approx(
            1.0 - doc["fidelity_estimate"])
        assert doc["swap_count"] == 0
        assert sum(doc["counts"].values()) == 1024

    def test_mitigated_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser", "--device", "vigo",
            "--shots", "4096", "--seed", "1", "--mitigate")
        assert code == 0
        doc = json.loads(out)
        probs = doc["mitigated_probabilities"]
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in probs.values())
        assert isinstance(doc["mitigated_value"], dict)

    def test_mitigated_csv_rows_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "hardy",
            "--theta0", "0.5", "--theta1", "0.5",
            "--device", "vigo", "--shots", "1024", "--seed", "5",
            "--mitigate", "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["mitigated"] for r in rows] == ["false", "true"]
        assert all(r["observable"] == "gamma" for r in rows)
        assert all(r["theta0_over_pi"] == "0.5" for r in rows)
        assert all(r["device"] == "vigo-0820" for r in rows)


class TestRunErrors:
    test_experiment_required = _filed_as("TestRunErrors::test_experiment_required")
    test_hardy_needs_thetas = _filed_as("TestRunErrors::test_hardy_needs_thetas")
    test_general_bomb_needs_angles = _filed_as("TestRunErrors::test_general_bomb_needs_angles")
    test_invalid_experiment_choice_exits_2 = _filed_as(
        "TestRunErrors::test_invalid_experiment_choice_exits_2")
    test_mitigate_needs_device = _filed_as("TestRunErrors::test_mitigate_needs_device")
    test_bad_angle_list = _filed_as("TestRunErrors::test_bad_angle_list")
    test_angles_violating_sum_rule = _filed_as("TestRunErrors::test_angles_violating_sum_rule")
    test_unknown_device = _filed_as("TestRunErrors::test_unknown_device")
    test_shots_beyond_the_streams_exit_2_before_sampling = _filed_as(
        "TestRunErrors::test_shots_beyond_the_streams_exit_2_before_sampling")
    test_output_into_missing_directory = _filed_as(
        "TestRunErrors::test_output_into_missing_directory")
    test_output_file_written = _filed_as("TestRunErrors::test_output_file_written")

    @pytest.mark.parametrize("command", [
        ("run", "--experiment", "bomb"),
        ("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "0.6",
         "--theta-step", "0.1"),
    ])
    def test_out_of_memory_exits_3_without_traceback(self, capsys, monkeypatch, command):
        def sample(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr("mzsim.cli.simulate_noisy", sample)  # run
        monkeypatch.setattr("mzsim.cli.simulate_noisy_points", sample)  # sweep
        code, out, err = run_cli(capsys, *command, "--device", "vigo", "--shots", "4294967296")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.45 GiB for an array\n"


class TestSweep:
    test_sweep_json_format = _filed_as("TestSweep::test_sweep_json_format")
    test_sweep_output_file = _filed_as("TestSweep::test_sweep_output_file")
    test_mitigated_sweep_rows = _filed_as("TestSweep::test_mitigated_sweep_rows")
    test_hardy_full_grid = _filed_as("TestSweep::test_hardy_full_grid")

    def test_ideal_general_bomb_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "general-bomb",
            "--n-values", "2,3",
            "--theta-start", "0.3", "--theta-stop", "0.5",
            "--theta-step", "0.1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 6  # 2 chain lengths x 3 grid points
        for row in rows:
            n = int(row["N"])
            t = float(row["theta_over_pi"])
            expected = eta_general(chain_angles_for_sweep(t * np.pi, n))
            assert float(row["value"]) == pytest.approx(expected, abs=1e-9)
            assert float(row["theory"]) == pytest.approx(expected, abs=1e-9)
            assert row["device"] == "ideal"
            assert row["shots"] == "" and row["seed"] == ""
            assert row["mitigated"] == "false"
        assert [float(r["theta_over_pi"]) for r in rows[:3]] == [0.3, 0.4, 0.5]

    def test_config_n_values_list_sweeps_each_length(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "general-bomb", "n_values": [2, 3], "theta_start": 0.4,
            "theta_stop": 0.4, "theta_step": 0.1,
        }))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert [row["N"] for row in rows] == ["2", "3"]
        for row in rows:
            expected = eta_general(chain_angles_for_sweep(0.4 * np.pi, int(row["N"])))
            assert float(row["value"]) == pytest.approx(expected, abs=1e-9)

    def test_hardy_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.5", "--theta-stop", "0.6",
            "--theta-step", "0.05")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            t = float(row["theta_over_pi"])
            assert row["theta0_over_pi"] == row["theta1_over_pi"]
            assert float(row["theta0_over_pi"]) == t
            expected = gamma_closed(t * np.pi, t * np.pi)
            assert float(row["value"]) == pytest.approx(expected, abs=1e-9)
            assert row["observable"] == "gamma"

    def test_noisy_sweep_with_repeats(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "general-bomb",
            "--n-values", "2", "--theta-start", "0.5", "--theta-stop", "0.5",
            "--theta-step", "0.1", "--device", "vigo-0820",
            "--shots", "500", "--seed", "0", "--repeats", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3  # one exact row + two sampled repeats
        ideal, first, second = rows
        assert ideal["device"] == "ideal" and ideal["std_dev"] == ""
        # sampled rows carry self-reproducing derived seeds
        for r, row in enumerate((first, second)):
            expected_seed = int(
                np.random.SeedSequence((0, 0, r)).generate_state(1)[0])
            assert row["seed"] == str(expected_seed)
            assert row["shots"] == "500"
            assert row["device"] == "vigo-0820"
        values = [float(first["value"]), float(second["value"])]
        for row in (first, second):
            assert float(row["std_dev"]) == pytest.approx(np.std(values))

    @pytest.mark.parametrize("base", [0, 7, 2**32 + 3, 2**64 + 5])
    def test_derived_seeds_match_seed_sequence(self, base):
        """Bases of 1, 2 and 3 words, and a sweep with no point to sample."""
        assert cli._derived_seeds(base, 3, 4) == [
            [int(np.random.SeedSequence((base, index, r)).generate_state(1)[0]) for r in range(4)]
            for index in range(3)]
        assert cli._derived_seeds(base, 0, 2) == []

    def test_sweep_determinism(self, capsys):
        argv = ("sweep", "--experiment", "hardy", "--theta-start", "0.55",
                "--theta-stop", "0.6", "--theta-step", "0.05",
                "--device", "vigo", "--shots", "400", "--seed", "9",
                "--repeats", "2")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestSweepErrors:
    test_missing_grid_flags = _filed_as("TestSweepErrors::test_missing_grid_flags")
    test_general_bomb_needs_n_values = _filed_as(
        "TestSweepErrors::test_general_bomb_needs_n_values")
    test_unsupported_sweep_via_config = _filed_as(
        "TestSweepErrors::test_unsupported_sweep_via_config")
    test_grid_point_on_boundary = _filed_as("TestSweepErrors::test_grid_point_on_boundary")
    test_negative_step = _filed_as("TestSweepErrors::test_negative_step")
    test_empty_range = _filed_as("TestSweepErrors::test_empty_range")
    test_bad_repeats = _filed_as("TestSweepErrors::test_bad_repeats")
    test_bad_sweep_settings_exit_2_before_sampling = _filed_as(SWEEP_SETTING)

    @pytest.mark.parametrize("device", [(), ("--device", "vigo")], ids=["ideal", "vigo"])
    def test_undefined_point_exits_3_after_sampling_the_points_before_it(
            self, capsys, monkeypatch, device):
        """At theta = pi post-selection rejects every shot (ROADMAP known defect 4);
        the sweep stops there, having sampled only the points before it."""
        sampled = []

        def sample(points, *args, **kwargs):
            sampled.extend(points)
            return noise.simulate_noisy_points(points, *args, **kwargs)

        monkeypatch.setattr("mzsim.cli.simulate_noisy_points", sample)
        code, out, err = run_cli(capsys, "sweep", "--experiment", "hardy", "--theta-start", "0.8",
                                 "--theta-stop", "1.0", "--theta-step", "0.1", "--shots", "256",
                                 *device)
        assert (code, out) == (3, "")
        assert err == "error: post-selection rejected every shot (witness always read 1)\n"
        assert len(sampled) == (2 if device else 0)

    def test_grid_cap_is_exact(self):
        assert len(cli._grid(0.0, 1.0, 1e-4)) == cli._MAX_GRID_POINTS == 10_001
        assert len(cli._grid(0.0, 0.9999, 1e-4)) == 10_000
        with pytest.raises(cli.ConfigError, match="more than 10001 points"):
            cli._grid(0.0, 1.0, 0.9999e-4)  # 10,002 points

    def test_grid_cap_counts_every_axis_before_any_point_is_made(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 20)
        grid = ("sweep", "--experiment", "hardy", "--theta-start", "0.5",
                "--theta-stop", "0.9", "--theta-step", "0.1")
        with monkeypatch.context() as patched:
            def made(*args, **kwargs):
                raise AssertionError("a point was made before the grid was counted")

            patched.setattr(experiments, "ExperimentSpec", made)
            code, out, err = run_cli(capsys, *grid, "--hardy-grid", "full")
        assert code == 2
        assert out == ""
        assert err == "error: the sweep grid has 25 points, more than 20\n"
        code, out, err = run_cli(capsys, *grid, "--hardy-grid", "diagonal")
        assert code == 0 and err == ""
        assert len(parse_csv(out)[1]) == 5

    def test_sampled_rows_cap_is_exact(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_SAMPLED_ROWS", 6)
        grid = ("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "0.6",
                "--theta-step", "0.05", "--shots", "64")
        code, out, err = run_cli(capsys, *grid, "--device", "vigo", "--repeats", "2")
        assert code == 0 and err == ""
        assert len(parse_csv(out)[1]) == 3 * 3
        code, out, err = run_cli(capsys, *grid, "--device", "vigo", "--repeats", "3")
        assert (code, out) == (2, "")
        assert err == "error: the sweep would sample 3 point(s) x 3 repeats = 9 rows, more than 6\n"
        code, _, err = run_cli(capsys, *grid, "--repeats", "3")  # no device samples no row
        assert code == 0 and err == ""


class TestTranspileCommand:
    test_device_flag_required = _filed_as("TestTranspileCommand::test_device_flag_required")
    test_ideal_device_rejected = _filed_as("TestTranspileCommand::test_ideal_device_rejected")
    test_missing_input = _filed_as("TestTranspileCommand::test_missing_input")
    test_parse_error_exits_2 = _filed_as("TestTranspileCommand::test_parse_error_exits_2")
    test_oversized_register_exits_2 = _filed_as(
        "TestTranspileCommand::test_oversized_register_exits_2")
    test_non_ascii_digits_exit_2 = _filed_as("TestTranspileCommand::test_non_ascii_digits_exit_2")
    test_repeated_barrier_operand_exits_2 = _filed_as(
        "TestTranspileCommand::test_repeated_barrier_operand_exits_2")
    test_bad_layout_exits_2 = _filed_as("TestTranspileCommand::test_bad_layout_exits_2")
    test_negative_layout_after_a_space_is_one_error_line = _filed_as(
        "TestTranspileCommand::test_negative_layout_after_a_space_is_one_error_line")
    test_explicit_layout = _filed_as("TestTranspileCommand::test_explicit_layout")
    test_fuse_flag = _filed_as("TestTranspileCommand::test_fuse_flag")
    test_report_and_emitted_qasm = _filed_as("TestTranspileCommand::test_report_and_emitted_qasm")
    test_output_file_holds_qasm_only = _filed_as(
        "TestTranspileCommand::test_output_file_holds_qasm_only")
    test_signed_zeros_keep_their_lines = _filed_as(
        "TestTranspileCommand::test_signed_zeros_keep_their_lines")


def test_full_negated_flags_and_help_still_work(capsys):
    code, out, _ = run_cli(capsys, "run", "--experiment", "bomb", "--no-bomb", "--exact")
    assert code == 0 and json.loads(out)["parameters"] == {"present": False}
    code, out, _ = run_cli(capsys, "run", "--experiment", "eraser", "--no-erase", "--exact")
    assert code == 0 and json.loads(out)["parameters"] == {"erase": False}
    with pytest.raises(SystemExit) as exited:
        main(["run", "-h"])
    assert exited.value.code == 0
    assert "--shots" in capsys.readouterr().out


def test_every_run_setting_is_a_run_flag_and_a_spec_field():
    flags = set(vars(cli._build_parser().parse_args(["run"])))
    fields = {f.name for f in dataclasses.fields(ExperimentSpec) if f.init}
    for kind, settings in experiments.RUN_SETTINGS.items():
        for setting, (field, _) in settings.items():
            assert setting in flags, (kind, setting)
            assert setting in cli._SETTING_CONVERTERS, (kind, setting)
            assert field in fields, (kind, field)


def _env() -> dict:
    """The environment of a child Python that imports mzsim from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("case", [case for case in CASES if case.process],
                         ids=lambda case: case.ids.removesuffix("]").partition("[")[2])
def test_console_case_as_a_process(case, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "mzsim.cli", *_argv(case, tmp_path)],
                          env=_env(), cwd=tmp_path, capture_output=True, text=True, timeout=60)
    _check(case, proc.returncode, proc.stdout, proc.stderr, tmp_path)


def test_huge_num_qubits_rejected_before_readout_table(capsys, monkeypatch):
    def expand(p, num_qubits):
        raise AssertionError(f"readout table of {num_qubits} pairs built")

    monkeypatch.setattr(noise, "_symmetric_readout", expand)
    code, _, err = run_cli(capsys, *BOMB_RUN, "--device", calibration(num_qubits=10**12))
    assert code == 2
    assert "coupling edges" in err


FIELDS = ("name", "num_qubits", "t1_us", "t2_us", "cnot_error", "single_qubit_error",
          "readout_error", "coupling", "calibration_date")
# Numbers stay small, apart from one huge integer: a qubit count beyond
# what the coupling list can connect must be rejected before anything is
# sized by it.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.just(10**12), st.floats(-1.0, 6.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.text(max_size=3),
)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=5),
                           max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=3),
       dropped=st.sets(st.sampled_from(FIELDS), max_size=1))
def test_malformed_calibration_keeps_exit_code_contract(changes, dropped):
    doc = json.loads(calibration(**changes))
    for key in dropped:
        doc.pop(key, None)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--experiment", "bomb", "--shots", "32", "--seed", "0",
                     "--mitigate", "--device", json.dumps(doc)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert sum(json.loads(out.getvalue())["counts"].values()) == 32
    else:
        assert err.getvalue().startswith("error:")


NAN, INF = float("nan"), float("inf")
#: grid steps in units of pi; at most 21 points per axis, 6 on a full grid
STEPS = (0.05, 0.1, 0.25, 0.5)
FULL_GRID_STEPS = (0.2, 0.25, 0.5)
#: edge and out-of-range values: non-finite angles and angles outside [0, 1],
#: chains of 0 or 1 stages, counts below 1, an unknown format or experiment
OUT_OF_RANGE = st.sampled_from(
    [NAN, INF, -INF, -0.1, 1.5, 0, 1, -1, "", "1.0", "0.5,nan", "1,0", "xml", "teleport"])
# Wrong-typed config values stay small: an integer or numeric text read as
# shots, repeats or a chain length must not ask for a huge run.
WRONG_TYPES = st.recursive(
    st.one_of(st.booleans(), st.integers(-2, 8), st.floats(-1.0, 2.0),
              st.sampled_from([NAN, INF]), st.text("ab ,.", max_size=3)),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
BOOLEAN_FLAGS = ("mitigate", "exact", "erase", "bomb")


@st.composite
def cli_settings(draw):
    """A valid run or sweep command, keyed as in a config file, with up to
    two settings put out of range and one given a wrong JSON type."""
    command = draw(st.sampled_from(["run", "sweep"]))
    device = draw(st.sampled_from(["ideal", "vigo", "london", "x2"]))
    settings = {
        "device": device,
        "shots": draw(st.integers(1, 64)),
        "seed": draw(st.integers(0, 3)),
        "mitigate": device != "ideal" and draw(st.booleans()),
        "format": draw(st.sampled_from(["json", "csv"])),
    }
    if command == "run":
        n = draw(st.integers(2, 8))
        a = draw(st.floats(0.0, 1.0))
        angles = draw(st.sampled_from([[1 / n] * n, [a, 1 - a]]))
        settings.update(
            experiment=draw(st.sampled_from(["eraser", "bomb", "general-bomb", "hardy"])),
            exact=device == "ideal" and draw(st.booleans()),
            erase=draw(st.booleans()), bomb=draw(st.booleans()),
            angles=",".join(repr(t) for t in angles),
            theta0=draw(st.floats(0.0, 1.0)), theta1=draw(st.floats(0.0, 1.0)))
    else:
        grid = draw(st.sampled_from(["diagonal", "full"]))
        start, stop = sorted([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
        settings.update(
            experiment=draw(st.sampled_from(["general-bomb", "hardy"])),
            n_values=",".join(map(str, draw(st.lists(st.integers(2, 8), min_size=1,
                                                     max_size=2)))),
            theta_start=start, theta_stop=stop, hardy_grid=grid,
            theta_step=draw(st.sampled_from(STEPS if grid == "diagonal" else FULL_GRID_STEPS)),
            repeats=draw(st.integers(1, 2)))
    keys = sorted(settings)
    settings.update(draw(st.dictionaries(st.sampled_from(keys), OUT_OF_RANGE, max_size=2)))
    wrong = draw(st.dictionaries(st.sampled_from(keys), WRONG_TYPES, max_size=1))
    # a boolean flag cannot carry any other value, so that goes to the config
    in_config = draw(st.sets(st.sampled_from(keys))) | {
        key for key in BOOLEAN_FLAGS if not isinstance(settings.get(key, False), bool)}
    return command, settings, in_config, wrong


def _flags(settings: dict) -> list[str]:
    flags = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if key in ("mitigate", "exact"):
            flags += [flag] if value else []
        elif key in ("erase", "bomb"):
            flags.append(flag if value else f"--no-{key}")
        else:
            flags.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return flags


@settings(max_examples=100, deadline=None)
@given(drawn=cli_settings())
def test_run_and_sweep_settings_keep_exit_code_contract(drawn, tmp_path_factory):
    command, chosen, in_config, wrong = drawn
    config = {key: chosen[key] for key in in_config}
    config.update(wrong)
    argv = [command, *_flags({k: v for k, v in chosen.items() if k not in config})]
    if config:
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert "error:" in err.getvalue()
        assert out.getvalue() == ""
    elif chosen["format"] == "csv":
        assert out.getvalue().startswith(",".join(CSV_COLUMNS) + "\n")
    else:
        json.loads(out.getvalue())


def test_sampled_commands_never_import_numpy_random():
    """A mitigated run and a noisy sweep draw every random word from `_streams`.

    Older numpy imports numpy.random with numpy itself; there is nothing to check."""
    code = (
        "import sys\n"
        "import numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "from mzsim.cli import main\n"
        "assert main(['run', '--experiment', 'hardy', '--theta0', '0.575', '--theta1', '0.575',\n"
        "             '--device', 'vigo', '--shots', '256', '--mitigate', '--output', sys.argv[1]]) == 0\n"
        "assert main(['sweep', '--experiment', 'general-bomb', '--n-values', '2,3',\n"
        "             '--theta-start', '0.4', '--theta-stop', '0.5', '--theta-step', '0.1',\n"
        "             '--device', 'london', '--shots', '256', '--repeats', '2', '--mitigate',\n"
        "             '--output', sys.argv[1]]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    eager, loaded = proc.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert loaded == "False"
