"""Command-line interface: run, sweep, transpile.

Angles cross this boundary in units of pi (e.g. ``--theta0 0.575`` means
0.575*pi radians); the library itself works in radians throughout.  Exit
codes: 0 success, 2 usage/configuration errors, 3 runtime failures (running
out of memory among them).  All outputs are deterministic: the same
configuration and seed produce byte-identical files.

Noisy runs sample the logical circuit under the arity-keyed noise model;
transpilation (basis decomposition + routing) feeds the reported fidelity
estimate.  Mitigated results unmix the sampled counts with the device's
exact confusion matrix.

`run` and `sweep` share one path: `_device_from` resolves --device,
`_check_sampling` checks shots, seed and --mitigate, and `_write_output`
renders the chosen --format (each command's first format is its default)
to --output or stdout.  `experiments.ExperimentSpec` owns an experiment's
circuit, width and observable.  A bad parameter, or a circuit wider than
the simulator or the device, exits 2 in every command before any sampling.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from ._streams import MAX_SHOTS
from .analysis import run_statistics
from .circuit import CircuitError, simulate_ideal
from .experiments import EXPERIMENT_KINDS, ExperimentSpec, chain_angles_for_sweep
from .mitigation import exact_confusion_matrix, mitigate
from .noise import (
    DeviceModel, device_preset, ideal_counts, load_device, simulate_noisy, simulate_noisy_repeats,
)
from .qasm import QasmError, emit, parse
from .transpile import LayoutError, estimate_fidelity, transpile

CSV_COLUMNS = (
    "experiment", "N", "theta_over_pi", "theta0_over_pi", "theta1_over_pi",
    "shots", "seed", "observable", "value", "theory", "std_dev", "device",
    "mitigated",
)


class ConfigError(ValueError):
    """Bad combination of flags/config-file values."""


#: the most points a sweep may hold, all axes together (a step of 1e-4 over [0, 1])
_MAX_GRID_POINTS = 10_001


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _merged(args: argparse.Namespace, config: dict, key: str, convert, default=None):
    """Explicit flag > config file > default; the value found goes through
    `convert`, whose TypeError or ValueError becomes a ConfigError (exit 2)."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from exc


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected a JSON boolean (true or false)")
    return value


def _integer(value) -> int:
    """A JSON integer or its decimal text; never a float or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError("expected an integer")
    return int(value)


def _split(text) -> list:
    """A comma list's non-blank items; a JSON list passes through."""
    if isinstance(text, (list, tuple)):
        return list(text)
    return [v for v in str(text).split(",") if v.strip()]


def _int_list(text) -> tuple[int, ...]:
    return tuple(_integer(v) for v in _split(text))


def _parse_angle_list(text) -> tuple[float, ...]:
    try:
        return tuple(float(v) * np.pi for v in _split(text))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad angle list {text!r}: {exc}") from exc


def _device_from(args: argparse.Namespace, config: dict) -> tuple[DeviceModel | None, str]:
    """The --device setting and the label output reports for it: 'ideal'
    (the default) gives None; else a preset name or a calibration JSON
    path or text, reported by its model's name."""
    label = _merged(args, config, "device", str, "ideal")
    if label == "ideal":
        return None, label
    try:
        device = device_preset(label)
    except KeyError:
        if not (os.path.exists(label) or label.lstrip().startswith("{")):
            raise ConfigError(
                f"device {label!r} is neither 'ideal', a preset, nor a calibration file"
            ) from None
        try:
            device = load_device(label)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return device, device.name


def _experiment_from(args: argparse.Namespace, config: dict) -> ExperimentSpec:
    kind = _merged(args, config, "experiment", str)
    if kind is None:
        raise ConfigError("an experiment is required (--experiment or config file)")
    try:
        if kind == "eraser":
            return ExperimentSpec("eraser", erase=_merged(args, config, "erase", _boolean, True))
        if kind == "bomb":
            return ExperimentSpec("bomb", present=_merged(args, config, "bomb", _boolean, True))
        if kind == "general-bomb":
            angles = _merged(args, config, "angles", _parse_angle_list)
            if angles is None:
                raise ConfigError("general-bomb requires --angles (units of pi)")
            return ExperimentSpec("general-bomb", angles=angles)
        if kind == "hardy":
            theta0 = _merged(args, config, "theta0", float)
            theta1 = _merged(args, config, "theta1", float)
            if theta0 is None or theta1 is None:
                raise ConfigError("hardy requires --theta0 and --theta1 (units of pi)")
            return ExperimentSpec("hardy", theta0=theta0 * np.pi, theta1=theta1 * np.pi)
        raise ConfigError(f"unknown experiment {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _check_sampling(shots: int, seed: int, mitigate_flag: bool, device: DeviceModel | None):
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ConfigError(f"shots must be at most 2**32, the streams one seed gives, got {shots}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if mitigate_flag and device is None:
        raise ConfigError("--mitigate needs a noisy device")


def execute_run(
    spec: ExperimentSpec,
    device: DeviceModel | None,
    device_label: str,
    shots: int,
    seed: int,
    mitigate_flag: bool,
    exact: bool,
) -> dict:
    _check_sampling(shots, seed, mitigate_flag, device)
    if exact and device is not None:
        raise ConfigError("--exact gives ideal probabilities and cannot take a noisy device")

    circuit = spec.build()
    doc: dict = {
        "experiment": spec.kind,
        "observable": spec.observable(),
        "device": device_label,
        "seed": seed,
        "exact": bool(exact),
        "theory": spec.theory(),
        "parameters": spec.parameters(),
        "fidelity_estimate": 1.0,
        "error_estimate": 0.0,
    }
    if device is not None:
        transpiled = transpile(circuit, device)
        doc["fidelity_estimate"], doc["error_estimate"] = estimate_fidelity(transpiled, device)
        doc["swap_count"] = transpiled.swap_count

    if exact:
        state = simulate_ideal(circuit)
        dist = {k: float(v) for k, v in state.probability_dict().items()}
        doc["shots"] = None
        doc["value"] = spec.value(dist)
        doc["probabilities"] = dict(sorted(dist.items()))
        return doc

    doc["shots"] = shots
    if device is None:
        counts = ideal_counts(circuit, shots, seed)
    else:
        counts = simulate_noisy(circuit, device, shots, seed)
    doc["counts"] = dict(sorted(counts.counts.items()))
    doc["value"] = spec.value(counts)

    if mitigate_flag:
        confusion = exact_confusion_matrix(device, circuit.measured_qubits)
        corrected = mitigate(counts, confusion)
        doc["mitigated_probabilities"] = dict(sorted(corrected.items()))
        doc["mitigated_value"] = spec.value(corrected)
    return doc


def _run_rows(doc: dict, spec: ExperimentSpec) -> list[dict]:
    """Flatten a run document into CSV rows: the observable, then its
    mitigated counterpart; a distribution gives one row per outcome."""
    base = {
        **doc["parameters"],  # Hardy's theta0_over_pi and theta1_over_pi are columns
        "experiment": doc["experiment"],
        "N": spec.num_qubits,
        "shots": doc["shots"] if doc["shots"] is not None else "",
        "seed": "" if doc["exact"] else doc["seed"],
        "device": doc["device"],
    }
    theory = doc["theory"]
    distribution = doc["observable"] == "distribution"
    # mitigated distribution rows print the solver's probabilities, not their
    # renormalised mitigated_value, which can differ in the last bit
    mitigated_key = "mitigated_probabilities" if distribution else "mitigated_value"
    values = [("false", doc["value"])]
    if mitigated_key in doc:
        values.append(("true", doc[mitigated_key]))
    rows = []
    for mitigated, value in values:
        if not distribution:
            rows.append({**base, "observable": doc["observable"], "value": value,
                         "theory": theory, "mitigated": mitigated})
            continue
        for key in sorted(set(doc["value"]) | set(theory)):
            rows.append({**base, "observable": f"p_{key}", "value": value.get(key, 0.0),
                         "theory": theory.get(key, ""), "mitigated": mitigated})
    return rows


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive [start, stop] walk in pi units, cleaned of float dust."""
    if step <= 0:
        raise ConfigError(f"theta-step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"theta range is empty: [{start}, {stop}]")
    # written so that a nan fails it too
    if not (0.0 <= start and stop <= 1.0 and step < math.inf):
        raise ConfigError(f"theta range [{start}, {stop}] must lie in [0, 1] and step {step} "
                          f"must be finite (units of pi)")
    # the walk below lists floor(this) + 1 points, so count them before walking
    if (stop + 1e-9 - start) / step >= _MAX_GRID_POINTS:
        raise ConfigError(f"theta range [{start}, {stop}] in steps of {step} has more "
                          f"than {_MAX_GRID_POINTS} points")
    points = []
    k = 0
    while start + k * step <= stop + 1e-9:
        points.append(round(start + k * step, 10))
        k += 1
    return points


def _derived_seed(base: int, *context: int) -> int:
    """Deterministic per-row seed; printed in the CSV so rows self-reproduce."""
    return int(np.random.SeedSequence((base, *context)).generate_state(1)[0])


def execute_sweep(
    experiment: str,
    n_values: tuple[int, ...],
    theta_grid: list[float],
    hardy_grid: str,
    device: DeviceModel | None,
    device_label: str,
    shots: int,
    seed: int,
    repeats: int,
    mitigate_flag: bool,
) -> list[dict]:
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    _check_sampling(shots, seed, mitigate_flag, device)
    if hardy_grid not in ("diagonal", "full"):
        raise ConfigError(f"hardy_grid must be 'diagonal' or 'full', got {hardy_grid!r}")
    # every point is counted, then built and fitted to the device, before any is sampled
    count = len(theta_grid) * (len(n_values) if experiment == "general-bomb" else
                               len(theta_grid) if hardy_grid == "full" else 1)
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"the sweep grid has {count} points, more than {_MAX_GRID_POINTS}")
    points: list[tuple[str, ExperimentSpec, dict]] = []  # (what it is, spec, cells)
    try:
        if experiment == "general-bomb":
            if not n_values:
                raise ConfigError("general-bomb sweep needs --n-values")
            for n, t in itertools.product(n_values, theta_grid):
                if not 0.0 < t < 1.0:
                    raise ConfigError(f"theta/pi must lie strictly inside (0, 1), got {t}")
                spec = ExperimentSpec("general-bomb", angles=chain_angles_for_sweep(t * np.pi, n))
                points.append((f"a chain of N = {n}", spec, {
                    "theta_over_pi": t, "theta0_over_pi": "", "theta1_over_pi": ""}))
        elif experiment == "hardy":
            diagonal = hardy_grid == "diagonal"
            for t0, t1 in (zip(theta_grid, theta_grid) if diagonal
                           else itertools.product(theta_grid, repeat=2)):
                spec = ExperimentSpec("hardy", theta0=t0 * np.pi, theta1=t1 * np.pi)
                points.append(("a Hardy test", spec, {"theta0_over_pi": t0, "theta1_over_pi": t1,
                                                      "theta_over_pi": t0 if diagonal else ""}))
        else:
            raise ConfigError(f"sweep supports general-bomb and hardy, not {experiment!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for what, spec, _ in points:
        if device is not None and spec.num_qubits > device.num_qubits:
            raise ConfigError(f"{what} needs {spec.num_qubits} qubits but device "
                              f"{device_label!r} has {device.num_qubits}")

    rows: list[dict] = []
    for index, (_, spec, point) in enumerate(points):
        circuit = spec.build()
        cells = {**point, "experiment": spec.kind, "N": spec.num_qubits,
                 "observable": spec.observable(), "theory": spec.theory()}
        exact = spec.value(simulate_ideal(circuit).probability_dict())
        rows.append({**cells, "shots": "", "seed": "", "value": exact, "std_dev": "",
                     "device": "ideal", "mitigated": "false"})
        if device is None:
            continue
        confusion = (exact_confusion_matrix(device, circuit.measured_qubits)
                     if mitigate_flag else None)
        sampled, mitigated = [], []
        seeds = [_derived_seed(seed, index, r) for r in range(repeats)]
        for seed_r, counts in zip(seeds, simulate_noisy_repeats(circuit, device, shots, seeds)):
            repeat = {**cells, "shots": shots, "seed": seed_r, "device": device_label}
            sampled.append({**repeat, "value": spec.value(counts), "mitigated": "false"})
            if mitigate_flag:
                value = spec.value(mitigate(counts, confusion))
                mitigated.append({**repeat, "value": value, "mitigated": "true"})
        for group in (sampled, mitigated):
            if group:
                std = run_statistics([entry["value"] for entry in group], 1.0).std_dev
                rows.extend({**entry, "std_dev": std} for entry in group)
    return rows


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain-float repr; numpy scalars would otherwise print np.float64(...)
        return repr(float(value))
    return str(value)


def _rows_to_csv(rows: list[dict]) -> str:
    """CSV_COLUMNS of each row; a missing column is an empty cell."""
    lines = [",".join(CSV_COLUMNS)]
    for entry in rows:
        lines.append(",".join(_csv_cell(entry.get(col, "")) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _write_text(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_output(args: argparse.Namespace, config: dict, renderers: dict) -> None:
    """Render in the --format chosen from `renderers` (the first one is the
    default) and write to --output, or to stdout."""
    fmt = _merged(args, config, "format", str, next(iter(renderers)))
    if fmt not in renderers:
        raise ConfigError(f"unknown format {fmt!r} (expected {' or '.join(renderers)})")
    _write_text(renderers[fmt](), _merged(args, config, "output", str))


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    spec = _experiment_from(args, config)
    device, device_label = _device_from(args, config)
    doc = execute_run(
        spec,
        device,
        device_label,
        shots=_merged(args, config, "shots", _integer, 8192),
        seed=_merged(args, config, "seed", _integer, 0),
        mitigate_flag=_merged(args, config, "mitigate", _boolean, False),
        exact=_merged(args, config, "exact", _boolean, False),
    )
    _write_output(args, config, {"json": lambda: _dump_json(doc),
                                 "csv": lambda: _rows_to_csv(_run_rows(doc, spec))})
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    experiment = _merged(args, config, "experiment", str)
    if experiment is None:
        raise ConfigError("a sweep experiment is required (--experiment)")
    n_values = _merged(args, config, "n_values", _int_list, ())
    start = _merged(args, config, "theta_start", float)
    stop = _merged(args, config, "theta_stop", float)
    step = _merged(args, config, "theta_step", float)
    if start is None or stop is None or step is None:
        raise ConfigError("sweep needs --theta-start, --theta-stop, --theta-step (units of pi)")
    device, device_label = _device_from(args, config)
    rows = execute_sweep(
        experiment,
        n_values,
        _grid(start, stop, step),
        _merged(args, config, "hardy_grid", str, "diagonal"),
        device,
        device_label,
        shots=_merged(args, config, "shots", _integer, 8192),
        seed=_merged(args, config, "seed", _integer, 0),
        repeats=_merged(args, config, "repeats", _integer, 1),
        mitigate_flag=_merged(args, config, "mitigate", _boolean, False),
    )
    _write_output(args, config, {"csv": lambda: _rows_to_csv(rows),
                                 "json": lambda: _dump_json({"rows": rows})})
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    if not os.path.exists(args.input):
        raise ConfigError(f"input file not found: {args.input}")
    with open(args.input, encoding="utf-8") as fh:
        source = fh.read()
    circuit = parse(source)  # QasmError -> exit 2 in main()
    device, _ = _device_from(args, {})
    if device is None:
        raise ConfigError("transpile requires a real device (--device PRESET|FILE)")
    layout = _merged(args, {}, "layout", _int_list) or None
    result = transpile(circuit, device, initial_layout=layout, fuse=args.fuse)
    fidelity, error = estimate_fidelity(result, device)
    counts = result.circuit.count_gates()
    report = [
        f"device: {device.name}",
        f"qubits: logical {circuit.num_qubits} -> physical {result.circuit.num_qubits}",
        "gate counts: " + (", ".join(f"{name} x{counts[name]}"
                                     for name in sorted(counts)) or "none"),
        f"swaps inserted: {result.swap_count}",
        f"initial layout: {list(result.initial_layout)}",
        f"final layout: {list(result.final_layout)}",
        f"estimated fidelity: {fidelity:.6f}",
        f"estimated error: {error:.6f}",
    ]
    sys.stdout.write("\n".join(report) + "\n")
    text = emit(result.circuit)
    if args.output:
        _write_text(text, args.output)
    else:
        sys.stdout.write("\n" + text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing keeps no
    state in it."""
    parser = argparse.ArgumentParser(
        prog="mzsim",
        description="Simulate interferometer-style experiments on noisy virtual devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--device", help="'ideal' (default), a preset name, or a calibration JSON file")
        p.add_argument("--shots", type=int, help="samples per execution (default 8192)")
        p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
        p.add_argument("--mitigate", action="store_true", default=None,
                       help="also report readout-mitigated results")
        p.add_argument("--output", help="write to this file instead of stdout")

    run_p = sub.add_parser("run", help="execute one experiment")
    add_common(run_p)
    run_p.add_argument("--experiment", choices=EXPERIMENT_KINDS)
    run_p.add_argument("--erase", action=argparse.BooleanOptionalAction, default=None,
                       help="eraser: include the erasing H on the marker qubit")
    run_p.add_argument("--bomb", action=argparse.BooleanOptionalAction, default=None,
                       help="bomb: whether the probe object is present")
    run_p.add_argument("--angles", help="general-bomb: comma list in units of pi, summing to 1")
    run_p.add_argument("--theta0", type=float, help="hardy: first angle / pi")
    run_p.add_argument("--theta1", type=float, help="hardy: second angle / pi")
    run_p.add_argument("--exact", action="store_true", default=None,
                       help="use exact probabilities instead of sampling")
    run_p.add_argument("--format", choices=["json", "csv"], help="output format (default json)")
    run_p.set_defaults(handler=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="scan an experiment over a parameter grid")
    add_common(sweep_p)
    sweep_p.add_argument("--experiment", choices=["general-bomb", "hardy"])
    sweep_p.add_argument("--n-values", help="general-bomb: comma list of chain lengths")
    sweep_p.add_argument("--theta-start", type=float, help="grid start, units of pi")
    sweep_p.add_argument("--theta-stop", type=float, help="grid stop (inclusive), units of pi")
    sweep_p.add_argument("--theta-step", type=float, help="grid step, units of pi")
    sweep_p.add_argument("--hardy-grid", choices=["diagonal", "full"],
                         help="hardy: theta0=theta1 line or full 2-D grid")
    sweep_p.add_argument("--repeats", type=int, help="sampled repetitions per grid point")
    sweep_p.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    sweep_p.set_defaults(handler=_cmd_sweep)

    tr_p = sub.add_parser("transpile", help="map an OPENQASM file onto a device")
    tr_p.add_argument("input", help="OPENQASM 2.0 source file")
    tr_p.add_argument("--device", required=True,
                      help="preset name or calibration JSON file")
    tr_p.add_argument("--layout", help="comma list: physical qubit for each logical qubit")
    tr_p.add_argument("--fuse", action="store_true",
                      help="merge adjacent single-qubit gates into one U3")
    tr_p.add_argument("--output", help="write transpiled QASM here")
    tr_p.set_defaults(handler=_cmd_transpile)
    return parser


def _attached_layout(argv: list[str]) -> list[str]:
    """`argv` with `--layout -1,0,1` written `--layout=-1,0,1`.

    argparse takes a value that starts with '-' and is not a plain negative
    number for an option, so such a layout would never reach the layout check.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--layout" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--layout={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attached_layout(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.handler(args)
    except (ConfigError, QasmError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CircuitError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
