"""Seeded workload generators and output checks for the mzsim benchmark.

A workload is a few input sets, each a list of CLI invocations (``Op``)
built from the workload seed; one pass runs one set.  Every file the
program reads (calibration JSON, QASM corpus) is written here, so the
program sees only generated inputs.  The shape of a set is fixed per
workload: the same kinds of invocation, qubit widths, sweep sizes and
input gate counts, and the device of each invocation, whose error rates
set how many sampled shots take a gate fault.  The seed moves angles,
calibrations, gate mixes, orders, ``--seed`` values and (wide-mitigate)
shots within about 6%, so run-to-run spread measures the machine more than
the inputs.

Each Op carries the exit code the CLI contract requires for its input
(0 success, 2 usage/configuration error, 3 runtime failure) and a check of
its output.  Ops that reproduce a known defect name it in ``defect``; they
stay in the mix and are timed like the rest.

Closed forms used by the checks are written out here rather than imported
from the package, so that a check does not trust the code it checks.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable

T_PRESETS = (
    "burlington", "essex", "london", "ourense", "valencia-0820",
    "valencia-0920", "vigo-0820", "vigo-0920",
)
T_EDGES = frozenset({(0, 1), (1, 2), (1, 3), (3, 4)})
HOURGLASS_EDGES = frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)})
PRESET_EDGES = {**{name: T_EDGES for name in T_PRESETS}, "x2": HOURGLASS_EDGES}

CSV_COLUMNS = (
    "experiment", "N", "theta_over_pi", "theta0_over_pi", "theta1_over_pi",
    "shots", "seed", "observable", "value", "theory", "std_dev", "device",
    "mitigated",
)
BASIS = frozenset({"u1", "u2", "u3", "cx"})
TOL = 1e-9

#: exit code each known defect produces at the time the benchmark was defined
DEFECT_EXIT = {"defect-3": 3, "defect-4": 3}


class CheckFailed(Exception):
    """An invocation's output broke the contract for its input."""


@dataclass
class Op:
    """One CLI invocation and what a correct outcome looks like."""

    argv: list[str]
    work: int
    check: Callable[["Op", str], dict]
    output: str | None = None
    expect: int = 0
    defect: str | None = None
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def eta_closed(angles: list[float]) -> float:
    """Chain detection efficiency; angles in radians."""
    head = math.prod(math.cos(t / 2) ** 2 for t in angles[:-1])
    return head * math.cos(angles[-1] / 2) ** 2 / (1.0 - math.sin(angles[-1] / 2) ** 2 * head)


def gamma_closed(t0: float, t1: float) -> float:
    """Post-selected Hardy joint probability; angles in radians."""
    denom = 4.0 * (2.0 * math.cos(t1) * math.sin(t0 / 2) ** 2 + math.cos(t0) + 3.0)
    return math.sin(t1) ** 2 * math.sin(t0) ** 2 / denom


def grid(start: float, stop: float, step: float) -> list[float]:
    """The inclusive sweep grid, walked as the CLI documents it."""
    points, k = [], 0
    while start + k * step <= stop + 1e-9:
        points.append(round(start + k * step, 10))
        k += 1
    return points


def split_pi(rng: random.Random, n: int, jitter: float) -> list[float]:
    """n positive chain angles in units of pi that sum to 1."""
    weights = [1.0 + rng.uniform(-jitter, jitter) for _ in range(n)]
    total = sum(weights)
    head = [w / total for w in weights[:-1]]
    return head + [1.0 - sum(head)]


def _expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CheckFailed(f"no output file: {exc}") from exc


# ---------------------------------------------------------------------------
# sweep-noisy
# ---------------------------------------------------------------------------

def _check_sweep(op: Op, stdout: str) -> dict:
    text = _read(op.output)
    lines = text.rstrip("\n").split("\n")
    _expect(tuple(lines[0].split(",")) == CSV_COLUMNS, "CSV header differs")
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines[1:]]
    _expect(len(rows) == op.params["rows"], f"{len(rows)} rows, expected {op.params['rows']}")
    raw, mitigated = [], []
    for row in rows:
        if row["value"] == "" and op.defect:
            continue  # a degenerate point reported in its row
        value, theory = float(row["value"]), float(row["theory"])
        _expect(0.0 <= value <= 1.0, f"value {value} outside [0, 1]")
        if row["experiment"] == "hardy":
            expected = gamma_closed(float(row["theta0_over_pi"]) * math.pi,
                                    float(row["theta1_over_pi"]) * math.pi)
        else:
            n, t = int(row["N"]), float(row["theta_over_pi"]) * math.pi
            expected = eta_closed([(math.pi - t) / (n - 1)] * (n - 1) + [t])
        _expect(abs(theory - expected) <= TOL, f"theory {theory} != closed form {expected}")
        if row["seed"] == "":
            _expect(abs(value - theory) <= TOL, f"exact row {value} != theory {theory}")
        else:
            (mitigated if row["mitigated"] == "true" else raw).append(abs(value - theory))
    return {"raw": raw, "mitigated": mitigated, "bytes": len(text.encode())}


#: sweep-noisy devices: the Hardy grids on one preset, the chains on another
HARDY_PRESET = "vigo-0820"
CHAIN_PRESET = "london"


def sweep_noisy(rng: random.Random, workdir: str, tiny: bool) -> list[Op]:
    shots = 64 if tiny else 1024
    repeats = 2
    ops: list[Op] = []

    def sweep(experiment: str, start: float, stop: float, step: float, *,
              shots: int, repeats: int, n_values: tuple[int, ...] = (3,),
              defect: str | None = None, sampled_points: int | None = None):
        points = grid(start, stop, step)
        per_point = 1 + 2 * repeats  # exact row + raw and mitigated rows
        sampled = len(points) if sampled_points is None else sampled_points
        out = os.path.join(workdir, f"op{len(ops)}.csv")
        argv = ["sweep", "--experiment", experiment,
                "--theta-start", repr(start), "--theta-stop", repr(stop),
                "--theta-step", repr(step),
                "--device", HARDY_PRESET if experiment == "hardy" else CHAIN_PRESET,
                "--shots", str(shots), "--repeats", str(repeats), "--mitigate",
                "--seed", str(rng.randrange(2**31)), "--output", out]
        if experiment == "general-bomb":
            argv += ["--n-values", ",".join(map(str, n_values))]
        ops.append(Op(argv, work=sampled * len(n_values) * repeats * shots,
                      check=_check_sweep, output=out, defect=defect,
                      params={"rows": len(points) * len(n_values) * per_point}))

    centre = round(0.575 + rng.uniform(-0.01, 0.01), 4)
    sweep("hardy", centre, centre, 0.01, shots=shots // 2, repeats=1)  # light first call
    for _ in range(1 if tiny else 3):
        step = rng.choice((0.01, 0.0125, 0.02, 0.025))
        c = round(0.575 + rng.uniform(-0.01, 0.01), 4)
        sweep("hardy", round(c - step, 4), round(c + step, 4), step,
              shots=shots, repeats=repeats)
    t = round(rng.uniform(0.2, 0.8), 3)
    sweep("general-bomb", t, t, 0.1, shots=shots, repeats=repeats,
          n_values=(2, 3) if tiny else (2, 3, 4, 5))
    # ROADMAP known defect 4: a grid reaching theta = pi aborts the sweep (exit 3)
    step = rng.choice((0.05, 0.1))
    sweep("hardy", round(1.0 - 2 * step, 4), 1.0, step, shots=shots, repeats=1,
          defect="defect-4", sampled_points=2)
    return ops


# ---------------------------------------------------------------------------
# wide-mitigate
# ---------------------------------------------------------------------------

def _check_run_sampled(op: Op, stdout: str) -> dict:
    text = _read(op.output)
    doc = json.loads(text)
    _expect(sum(doc["counts"].values()) == op.params["shots"], "counts do not sum to shots")
    expected = eta_closed([a * math.pi for a in op.params["angles"]])
    _expect(abs(doc["theory"] - expected) <= TOL, "theory differs from the closed form")
    probs = doc["mitigated_probabilities"]
    _expect(len(probs) == 2 ** op.params["qubits"], "mitigated vector has the wrong size")
    _expect(min(probs.values()) >= 0.0, "negative mitigated probability")
    _expect(abs(math.fsum(probs.values()) - 1.0) <= TOL, "mitigated probabilities do not sum to 1")
    for key in ("value", "mitigated_value"):
        _expect(0.0 <= doc[key] <= 1.0, f"{key} outside [0, 1]")
    return {"raw": [abs(doc["value"] - doc["theory"])],
            "mitigated": [abs(doc["mitigated_value"] - doc["theory"])],
            "bytes": len(text.encode())}


def _calibration(rng: random.Random, name: str, qubits: int) -> dict:
    """A device with asymmetric per-qubit readout pairs (p01 < p10)."""
    shape = rng.choice(("star", "line", "tree"))
    if shape == "star":
        coupling = [[0, q] for q in range(1, qubits)]
    elif shape == "line":
        coupling = [[q, q + 1] for q in range(qubits - 1)]
    else:
        coupling = [[(q - 1) // 2, q] for q in range(1, qubits)]
    return {
        "name": name,
        "calibration_date": "2020-09",
        "num_qubits": qubits,
        "t1_us": round(rng.uniform(50, 110), 2),
        "t2_us": round(rng.uniform(40, 90), 2),
        "cnot_error": round(rng.uniform(0.008, 0.018), 5),
        "readout_error": [[round(rng.uniform(0.005, 0.03), 5), round(rng.uniform(0.02, 0.07), 5)]
                          for _ in range(qubits)],
        "coupling": coupling,
    }


def wide_mitigate(rng: random.Random, workdir: str, tiny: bool) -> list[Op]:
    widths = [3, 4, 4] if tiny else [6, 7, 8, 8, 8, 8, 8, 8]
    body = widths[1:]
    rng.shuffle(body)
    ops = []
    for i, qubits in enumerate(widths[:1] + body):
        device = os.path.join(workdir, f"device{i}.json")
        with open(device, "w", encoding="utf-8") as fh:
            json.dump(_calibration(rng, f"gen{i}-q{qubits}", qubits), fh, indent=1)
        angles = split_pi(rng, qubits, jitter=0.5)
        shots = rng.randrange(960, 1089)
        out = os.path.join(workdir, f"op{i}.json")
        argv = ["run", "--experiment", "general-bomb",
                "--angles", ",".join(repr(a) for a in angles),
                "--device", device, "--shots", str(shots), "--mitigate",
                "--seed", str(rng.randrange(2**31)), "--output", out]
        ops.append(Op(argv, work=shots, check=_check_run_sampled, output=out,
                      params={"shots": shots, "angles": angles, "qubits": qubits}))
    return ops


# ---------------------------------------------------------------------------
# transpile-qasm
# ---------------------------------------------------------------------------

_GATE_LINE = re.compile(r"^([a-z0-9]+)(\([^)]*\))? (.*);$")
_ONE_QUBIT = ("h", "x", "ry", "u1", "u2", "u3")
_PARAMS = {"ry": 1, "u1": 1, "u2": 2, "u3": 3}


def _angle(rng: random.Random) -> str:
    form = rng.randrange(4)
    if form == 0:
        return repr(round(rng.uniform(-math.pi, math.pi), 6))
    if form == 1:
        return f"pi/{rng.choice((2, 3, 4, 8, 16))}"
    if form == 2:
        return f"-{rng.randrange(1, 8)}*pi/{rng.choice((4, 8, 16))}"
    return f"{rng.uniform(0.01, 0.99):.4e}"


def random_qasm(rng: random.Random, gates: int) -> str:
    """A 5-qubit program over the whole gate set, CCX and SWAP included."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[5];", "creg c[5];"]
    names = _ONE_QUBIT * 3 + ("cx",) * 5 + ("swap", "ccx")
    for i in range(gates):
        name = rng.choice(names)
        arity = {"cx": 2, "swap": 2, "ccx": 3}.get(name, 1)
        params = ""
        if name in _PARAMS:
            params = "(" + ",".join(_angle(rng) for _ in range(_PARAMS[name])) + ")"
        qubits = ",".join(f"q[{q}]" for q in rng.sample(range(5), arity))
        lines.append(f"{name}{params} {qubits};")
        if i % 97 == 96:
            lines.append("barrier q;")
    lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"


def experiment_qasm(rng: random.Random) -> dict[str, str]:
    """The four paper circuits, written out as OPENQASM."""
    def program(qubits: int, body: list[str]) -> str:
        head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{qubits}];", f"creg c[{qubits}];"]
        tail = [f"measure q[{q}] -> c[{q}];" for q in range(qubits)]
        return "\n".join(head + body + tail) + "\n"

    n = rng.randrange(3, 6)
    angles = [a * math.pi for a in split_pi(rng, n, jitter=0.5)]
    chain = [f"ry({angles[0]!r}) q[0];"]
    for i in range(1, n):
        chain += [f"cx q[0],q[{i}];", f"ry({angles[i]!r}) q[0];"]
    t0, t1 = (rng.uniform(0.4, 0.7) * math.pi for _ in range(2))
    return {
        "eraser": program(2, ["h q[0];", "cx q[0],q[1];", "h q[1];", "h q[0];"]),
        "bomb": program(2, ["h q[0];", "cx q[0],q[1];", "h q[0];"]),
        "general-bomb": program(n, chain),
        "hardy": program(3, [f"ry({t0!r}) q[0];", f"ry({t1!r}) q[1];", "ccx q[0],q[1],q[2];",
                             f"ry({math.pi - t0!r}) q[0];", f"ry({math.pi - t1!r}) q[1];"]),
    }


def malformed_qasm(rng: random.Random, source: str) -> str:
    """A valid program with one statement the grammar or semantics reject."""
    lines = source.split("\n")
    bad = rng.choice(("foo q[0];", "h q[7];", "cx q[0];", "u3(0.1) q[1];", "h q[0]"))
    lines.insert(rng.randrange(5, len(lines) - 2), bad)
    return "\n".join(lines)


def _check_transpile(op: Op, stdout: str) -> dict:
    from mzsim.qasm import parse  # the output must parse again

    text = _read(op.output)
    edges = PRESET_EDGES[op.params["device"]]
    match = re.search(r"^swaps inserted: (\d+)$", stdout, re.M)
    _expect(match is not None, "report lacks the SWAP count")
    circuit = parse(text)
    _expect(circuit.num_qubits == 5, "output is not on the device's 5 qubits")
    for line in text.split("\n")[4:]:
        if not line or line.startswith(("measure", "barrier")):
            continue
        m = _GATE_LINE.match(line)
        _expect(m is not None, f"unexpected statement {line!r}")
        _expect(m.group(1) in BASIS, f"non-basis gate {m.group(1)}")
        if m.group(1) == "cx":
            a, b = (int(q) for q in re.findall(r"q\[(\d+)\]", m.group(3)))
            _expect((min(a, b), max(a, b)) in edges, f"CNOT ({a},{b}) off the coupling graph")
    return {"raw": [], "mitigated": [], "bytes": len(text.encode()) + len(stdout.encode()),
            "swaps": int(match.group(1))}


def _check_rejected(op: Op, stdout: str) -> dict:
    return {"raw": [], "mitigated": [], "bytes": 0}


def transpile_qasm(rng: random.Random, workdir: str, tiny: bool) -> list[Op]:
    # the same devices in every set: the T presets in a seeded order, then x2
    devices = list(T_PRESETS)
    rng.shuffle(devices)
    devices.append("x2")
    sizes = [20, 30] if tiny else list(range(200, 400, 10))
    rng.shuffle(sizes)
    sources = list(experiment_qasm(rng).items())
    sources += [(f"random{i}", random_qasm(rng, g)) for i, g in enumerate(sizes)]
    ops = []

    def add(label: str, source: str, extra: list[str], **kw):
        path = os.path.join(workdir, f"{label}.qasm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
        device = devices[len(ops) % len(devices)]
        out = os.path.join(workdir, f"op{len(ops)}.qasm")
        argv = ["transpile", path, "--device", device, *extra, "--output", out]
        gates = sum(1 for line in source.split("\n")
                    if line and not line.startswith(("OPENQASM", "include", "qreg", "creg",
                                                     "measure", "barrier")))
        ops.append(Op(argv, work=gates, output=out, params={"device": device}, **kw))

    for label, source in sources:
        extra = ["--fuse"] if len(ops) % 2 else []
        if label == "random0":
            layout = list(range(5))
            rng.shuffle(layout)
            extra += ["--layout", ",".join(map(str, layout))]
        add(label, source, extra, check=_check_transpile)
    add("malformed", malformed_qasm(rng, sources[-1][1]), [], check=_check_rejected, expect=2)
    # ROADMAP known defect 3: a non-integer --layout exits 3 instead of 2
    add("layout", sources[-2][1], ["--layout", rng.choice(("a", "0,1,x", "2.5"))],
        check=_check_rejected, expect=2, defect="defect-3")
    return ops


GENERATORS = {
    "sweep-noisy": sweep_noisy,
    "wide-mitigate": wide_mitigate,
    "transpile-qasm": transpile_qasm,
}

#: what ``work`` counts in each workload
WORK_UNITS = {
    "sweep-noisy": "shots",
    "wide-mitigate": "shots",
    "transpile-qasm": "input gates",
}

#: whole passes a timed run makes at least, even past ``--seconds``.  Ops
#: of one kind form a cluster of latencies, so a percentile taken on a
#: cluster edge jumps with the sample count.  The tail percentile is fixed
#: per workload at the highest one with ten samples beyond it after the
#: minimum passes; these minimums put it inside a cluster:
#: the slow end of the Hardy sweeps, the 8-qubit runs and the largest
#: transpile inputs.
MIN_PASSES = {
    "sweep-noisy": 6,
    "wide-mitigate": 5,
    "transpile-qasm": 15,
}

#: input sets per run; passes cycle through them.  The cost of one
#: constrained-fallback solve varies by about 10% with its input, so
#: wide-mitigate draws the most sets to average that out.
VARIANTS = {
    "sweep-noisy": 4,
    "wide-mitigate": 6,
    "transpile-qasm": 4,
}


def generate(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[list[Op]]:
    """The input sets of one run, each a list of ops making one pass.

    Every set has the same shape and amount of work.  Op 0 of set 0 is a
    light call, used to time a fresh process through its first invocation.
    """
    variants = []
    for v in range(VARIANTS[workload]):
        path = os.path.join(workdir, f"v{v}")
        os.makedirs(path)
        variants.append(GENERATORS[workload](random.Random(f"{workload}/{seed}/{v}"), path, tiny))
    return variants
