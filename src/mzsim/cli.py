"""Command-line interface: run, sweep, transpile.

Angles cross this boundary in units of pi (e.g. ``--theta0 0.575`` means
0.575*pi radians); the library itself works in radians throughout.  Exit
codes: 0 success, 2 usage/configuration errors, 3 runtime failures (running
out of memory among them).  All outputs are deterministic: the same
configuration and seed produce byte-identical files.

Noisy runs sample the logical circuit under the arity-keyed noise model;
transpilation (basis decomposition + routing) feeds the reported fidelity
estimate.  Mitigated results unmix the sampled counts with the device's
exact confusion matrix.  A sweep takes each point's exact value in grid
order, then samples every point in one `simulate_noisy_points` call and
builds one confusion matrix per measured set; a point whose exact value is
undefined ends the sweep there, and no point from it on is sampled.

Each command is one function (`_cmd_run`, `_cmd_sweep`, `_cmd_transpile`)
that reads, checks and executes its settings in a fixed order, so a command
with two bad settings names the one it reads first.  `run` and `sweep`
share their readers: `_device_from` resolves --device, `_check_sampling`
checks shots, seed and --mitigate, and `_output_from` reads --format (each
command's first format is its default) and --output.
`experiments` owns each experiment kind; this module converts a setting by
its flag's name.  A bad parameter, or a circuit wider than the simulator or
the device, exits 2 in every command before any sampling; so does a sweep
on a device of more than `_MAX_SAMPLED_ROWS` points x repeats.

argparse only splits the command line; what it cannot split is a
ConfigError.  A flag is spelt in full, as its config key is, and both go
through one `_merged` converter and check.  `main` prints each refusal as
one ``error:`` line and returns 2; only ``--help`` raises SystemExit.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from ._streams import _MASK32, MAX_SHOTS, _seed_state, seed_words
from .analysis import run_statistics
from .circuit import CircuitError, simulate_ideal
from .experiments import RUN_SETTINGS, ExperimentSpec, sweep_points
from .mitigation import exact_confusion_matrix, mitigate
from .noise import (
    DeviceModel, device_preset, ideal_counts, load_device, simulate_noisy, simulate_noisy_points,
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
#: the most sampled rows (points x repeats) a sweep on a device may hold.  It bounds
#: the seeds derived before sampling (about 13 MB at the cap), not the histograms a
#: sweep keeps, which grow with its shots and qubits
_MAX_SAMPLED_ROWS = 100_000
#: the one refusal of a command that names no experiment, for run and sweep
_NO_EXPERIMENT = "an experiment is required (--experiment or config file)"


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config_file(args: argparse.Namespace) -> dict:
    if (path := args.config) is None:
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
    if "config" in doc:
        raise ConfigError("a config file cannot name another config file (key 'config')")
    unknown = sorted(doc.keys() - (vars(args).keys() - {"command", "handler"}))
    if unknown:
        raise ConfigError(f"config key(s) that name no {args.command} flag: {', '.join(unknown)}")
    return doc


def _merged(args: argparse.Namespace, config: dict, key: str, convert, default=None):
    """Explicit flag > config file > default; the value found goes through
    `convert`, whose TypeError or ValueError becomes a ConfigError (exit 2)."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        return default
    try:
        return convert(value)
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


def _real(value) -> float:
    """A JSON number or its text; never a boolean."""
    if isinstance(value, bool):
        raise TypeError("expected a number")
    return float(value)


def _split(text) -> list:
    """A comma list's non-blank items; a JSON list passes through."""
    if isinstance(text, (list, tuple)):
        return list(text)
    return [v for v in str(text).split(",") if v.strip()]


def _int_list(text) -> tuple[int, ...]:
    return tuple(_integer(v) for v in _split(text))


#: the converter of each experiment setting, by its flag's name; angles are in units of pi
_SETTING_CONVERTERS = dict(erase=_boolean, bomb=_boolean,
                           theta0=lambda v: _real(v) * np.pi, theta1=lambda v: _real(v) * np.pi,
                           angles=lambda text: tuple(_real(v) * np.pi for v in _split(text)))


def _device_from(args: argparse.Namespace, config: dict) -> DeviceModel | None:
    """The --device setting: 'ideal' (the default) gives None; else a preset
    name or a calibration JSON path or text.  Output names a device by its
    model's name."""
    label = _merged(args, config, "device", str, "ideal")
    if label == "ideal":
        return None
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
    return device


def _experiment_from(args: argparse.Namespace, config: dict) -> ExperimentSpec:
    kind = _merged(args, config, "experiment", str)
    if kind is None:
        raise ConfigError(_NO_EXPERIMENT)
    settings = RUN_SETTINGS.get(kind, {})  # the spec refuses an unknown kind
    fields = {name: _merged(args, config, setting, _SETTING_CONVERTERS[setting], default)
              for setting, (name, default) in settings.items()}
    missing = [f"--{s}" for s, (name, _) in settings.items() if fields[name] is None]
    if missing:  # the settings without a default are angles
        raise ConfigError(f"{kind} requires {' and '.join(missing)} (units of pi)")
    try:
        return ExperimentSpec(kind, **fields)
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


def _derived_seeds(base: int, points: int, repeats: int) -> list[list[int]]:
    """Deterministic per-row seeds, printed in the CSV so rows self-reproduce.

    Point `index`'s repeat r takes the first 32-bit word of
    SeedSequence((base, index, r)), one `_seed_state` row for each.
    """
    index, r = np.divmod(np.arange(points * repeats, dtype=np.uint32), repeats)
    words = np.vstack([np.repeat(seed_words([base]), len(index), axis=1), index, r])
    return (_seed_state(words)[0] & _MASK32).reshape(points, repeats).tolist()


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _csv_cell(value) -> str:
    if value is None or value == "":
        return ""
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


def _output_from(args: argparse.Namespace, config: dict, formats: tuple[str, ...]):
    """--format, one of `formats` (the first is the default), and --output."""
    fmt = _merged(args, config, "format", str, formats[0])
    if fmt not in formats:
        raise ConfigError(f"unknown format {fmt!r} (expected {' or '.join(formats)})")
    return fmt, _merged(args, config, "output", str)


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config_file(args)
    fmt, output = _output_from(args, config, ("json", "csv"))
    spec = _experiment_from(args, config)
    device = _device_from(args, config)
    shots = _merged(args, config, "shots", _integer, 8192)
    seed = _merged(args, config, "seed", _integer, 0)
    mitigate_flag = _merged(args, config, "mitigate", _boolean, False)
    exact = _merged(args, config, "exact", _boolean, False)
    _check_sampling(shots, seed, mitigate_flag, device)
    if exact and device is not None:
        raise ConfigError("--exact gives ideal probabilities and cannot take a noisy device")

    circuit = spec.build()
    doc: dict = {
        "experiment": spec.kind,
        "observable": spec.observable(),
        "device": "ideal" if device is None else device.name,
        "shots": None if exact else shots,
        "seed": seed,
        "exact": exact,
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
        dist = simulate_ideal(circuit).probability_dict()
        doc["value"] = spec.value(dist)
        doc["probabilities"] = dict(sorted(dist.items()))
    else:
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
    _write_text(_dump_json(doc) if fmt == "json" else _rows_to_csv(_run_rows(doc, spec)), output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config_file(args)
    fmt, output = _output_from(args, config, ("csv", "json"))
    experiment = _merged(args, config, "experiment", str)
    if experiment is None:
        raise ConfigError(_NO_EXPERIMENT)
    n_values = _merged(args, config, "n_values", _int_list, ())
    start = _merged(args, config, "theta_start", _real)
    stop = _merged(args, config, "theta_stop", _real)
    step = _merged(args, config, "theta_step", _real)
    if start is None or stop is None or step is None:
        raise ConfigError("sweep needs --theta-start, --theta-stop, --theta-step (units of pi)")
    device = _device_from(args, config)
    theta_grid = _grid(start, stop, step)
    hardy_grid = _merged(args, config, "hardy_grid", str, "diagonal")
    shots = _merged(args, config, "shots", _integer, 8192)
    seed = _merged(args, config, "seed", _integer, 0)
    repeats = _merged(args, config, "repeats", _integer, 1)
    mitigate_flag = _merged(args, config, "mitigate", _boolean, False)
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    _check_sampling(shots, seed, mitigate_flag, device)
    if hardy_grid not in ("diagonal", "full"):
        raise ConfigError(f"hardy_grid must be 'diagonal' or 'full', got {hardy_grid!r}")
    # every point is counted, then made and fitted to the device, before any is sampled
    made = sweep_points(experiment, n_values, theta_grid, hardy_grid)
    try:
        count = next(made)
        if count > _MAX_GRID_POINTS:
            raise ConfigError(f"the sweep grid has {count} points, more than {_MAX_GRID_POINTS}")
        if device is not None and count * repeats > _MAX_SAMPLED_ROWS:
            raise ConfigError(f"the sweep would sample {count} point(s) x {repeats} repeats = "
                              f"{count * repeats} rows, more than {_MAX_SAMPLED_ROWS}")
        points = list(made)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for what, spec, _ in points:
        if device is not None and spec.num_qubits > device.num_qubits:
            raise ConfigError(f"{what} needs {spec.num_qubits} qubits but device "
                              f"{device.name!r} has {device.num_qubits}")

    # Points are valued in order and the first undefined value is raised, as if
    # each point were sampled in turn; sampling stops short of that point, and
    # the points before it are sampled in one call.
    valued, undefined = [], None
    for _, spec, point in points:
        circuit = spec.build()
        try:
            exact = spec.value(simulate_ideal(circuit).probability_dict())
        except ValueError as exc:
            undefined = exc  # raised after the sampled values of the points before it
            break
        valued.append((spec, point, circuit, exact))
    if device is not None:
        seeds = _derived_seeds(seed, len(valued), repeats)
        sampled = simulate_noisy_points([(circuit, point_seeds) for (_, _, circuit, _), point_seeds
                                         in zip(valued, seeds)], device, shots)
    else:
        seeds = sampled = [[] for _ in valued]
    confusions = {}  # measured qubits -> their exact confusion matrix
    rows: list[dict] = []
    for (spec, point, circuit, exact), point_seeds, histograms in zip(valued, seeds, sampled):
        cells = {**point, "experiment": spec.kind, "N": spec.num_qubits,
                 "observable": spec.observable(), "theory": spec.theory()}
        rows.append({**cells, "shots": "", "seed": "", "value": exact, "std_dev": "",
                     "device": "ideal", "mitigated": "false"})
        if device is None:
            continue
        if mitigate_flag and circuit.measured_qubits not in confusions:
            confusions[circuit.measured_qubits] = exact_confusion_matrix(
                device, circuit.measured_qubits)
        raw, mitigated = [], []
        for seed_r, counts in zip(point_seeds, histograms):
            repeat = {**cells, "shots": shots, "seed": seed_r, "device": device.name}
            raw.append({**repeat, "value": spec.value(counts), "mitigated": "false"})
            if mitigate_flag:
                value = spec.value(mitigate(counts, confusions[circuit.measured_qubits]))
                mitigated.append({**repeat, "value": value, "mitigated": "true"})
        for group in (raw, mitigated):
            if group:
                std = run_statistics([entry["value"] for entry in group], 1.0).std_dev
                rows.extend({**entry, "std_dev": std} for entry in group)
    if undefined is not None:
        raise undefined
    _write_text(_rows_to_csv(rows) if fmt == "csv" else _dump_json({"rows": rows}), output)
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    if not os.path.exists(args.input):
        raise ConfigError(f"input file not found: {args.input}")
    with open(args.input, encoding="utf-8") as fh:
        source = fh.read()
    circuit = parse(source)  # QasmError -> exit 2 in main()
    device = _device_from(args, {})
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

class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag is spelt in full, as its config key is
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # what argparse cannot split is refused like a bad setting
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing keeps no
    state in it.  It neither converts nor checks a value: `_merged` does."""
    parser = _Parser(
        prog="mzsim",
        description="Simulate interferometer-style experiments on noisy virtual devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--device", help="'ideal' (default), a preset name, or a calibration JSON file")
        p.add_argument("--shots", help="samples per execution (default 8192)")
        p.add_argument("--seed", help="base RNG seed (default 0)")
        p.add_argument("--mitigate", action="store_true", default=None,
                       help="also report readout-mitigated results")
        p.add_argument("--output", help="write to this file instead of stdout")

    run_p = sub.add_parser("run", help="execute one experiment")
    add_common(run_p)
    run_p.add_argument("--experiment", help=" | ".join(RUN_SETTINGS))
    run_p.add_argument("--erase", action=argparse.BooleanOptionalAction, default=None,
                       help="eraser: include the erasing H on the marker qubit")
    run_p.add_argument("--bomb", action=argparse.BooleanOptionalAction, default=None,
                       help="bomb: whether the probe object is present")
    run_p.add_argument("--angles", help="general-bomb: comma list in units of pi, summing to 1")
    run_p.add_argument("--theta0", help="hardy: first angle / pi")
    run_p.add_argument("--theta1", help="hardy: second angle / pi")
    run_p.add_argument("--exact", action="store_true", default=None,
                       help="use exact probabilities instead of sampling")
    run_p.add_argument("--format", help="json (default) | csv")
    run_p.set_defaults(handler=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="scan an experiment over a parameter grid")
    add_common(sweep_p)
    sweep_p.add_argument("--experiment", help="general-bomb | hardy")
    sweep_p.add_argument("--n-values", help="general-bomb: comma list of chain lengths")
    sweep_p.add_argument("--theta-start", help="grid start, units of pi")
    sweep_p.add_argument("--theta-stop", help="grid stop (inclusive), units of pi")
    sweep_p.add_argument("--theta-step", help="grid step, units of pi")
    sweep_p.add_argument("--hardy-grid", help="hardy: diagonal (theta0=theta1, default) | full")
    sweep_p.add_argument("--repeats", help="sampled repetitions per grid point (default 1)")
    sweep_p.add_argument("--format", help="csv (default) | json")
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


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
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
