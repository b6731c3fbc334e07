"""Synthetic device noise and seeded sampling.

The noise model is deliberately simple — calibration summaries give error
*rates*, not process tomography — and is a stochastic-Pauli trajectory
model:

* after each gate, with probability equal to that gate's error rate, a
  uniformly random non-identity Pauli (X, Y or Z) lands on each qubit the
  gate touched;
* each measured bit then flips asymmetrically: 0->1 with probability p01,
  1->0 with probability p10.

`DeviceModel.gate_error(arity)` is the one function that prices a gate:
1-qubit gates cost `single_qubit_error` (default cnot_error/10), 2-qubit
gates `cnot_error`, a bare CCX 1-(1-cnot_error)**6 (its six CNOTs).  The
sampler prices the logical circuit and `transpile.estimate_fidelity` the
transpiled one, so the two differ on CCX and SWAP: the sampler leaves out
CCX's nine 1-qubit gates, prices a SWAP as one 2-qubit gate, not three
CNOTs, and never sees routing SWAPs.  Pricing the transpiled circuit in
the sampler would move every seeded histogram.

Sampling takes one path, ideal sampling included: `ideal_counts` runs the
sampler on `ideal_device`, whose zero rates draw no noise.  Every shot's
outcome is a basis index drawn from the ideal state: its uniform selects
the first index whose cumulative probability exceeds it, the cumulative
distribution being taken once per point.  A shot whose trajectory draws a
gate fault re-evolves the circuit from |0...0> through `states.evolve`, on
the same (matrix, targets) list, with the fault's Paulis applied right
after the failing gate, and redraws its index from that state with the
same uniform.  Within one block of rows, faulty shots
are grouped by fault pattern (the same Paulis after the same gates): each
shot's row of Pauli codes, shifted to 0-3, is one byte-string key, and one
`np.unique` of the keys finds the patterns in the order that sorting the
rows would.  The distinct patterns are evolved together, as the columns of
one (2**n, patterns) array on the gates' batch axis.  After each gate, each
qubit of it that a pattern faults takes one flip-and-phase step over the
whole array (`states._apply_paulis`): X and Y swap the halves of every
column that carries them where the qubit reads 0 and 1, and a per-column
phase of 1, -1, i or -i follows, so every probability is bit for bit what
the Pauli's matrix gives.  At most `_BLOCK_AMPS` amplitudes (and at least
one state) are held at a time.  Readout flips XOR the measured bits of the
index.  The measured bits, packed into an int in qubit order, are the
shot's key, and one tally counts the keys.

Reproducibility contract (bit-exact for a fixed numpy generation):
the measurement outcome of shot i consumes the i-th value of a PCG64
stream seeded with `seed`; the noise draws of trajectory i come from the
PCG64 stream seeded with (seed, i), in this order: one
uniform per gate whose rate is above zero, in circuit order; on a hit,
one integer in {0, 1, 2} (X, Y, Z) per touched qubit in target order;
then one uniform per measured qubit, in ascending qubit order, whose flip
probability for its current bit is above zero.  Events with probability
0 consume no randomness.  Consequently a device with all rates zero draws
no trajectory at all, which is ideal sampling, and trajectories can be
evaluated in parallel without changing results.  For a seed below 2**96
(at most three 32-bit words) the entropy [seed] and [seed, 0] fill
SeedSequence's 4-word pool alike, so the measurement stream is trajectory
0's noise stream: shot 0's measurement uniform is also its first noise
uniform.  From 2**96 on they differ.  Parting them would move every seeded
histogram.

How the sampler meets it: `simulate_noisy_points` samples many circuits,
the points, each under its own seeds, in one pass; `simulate_noisy_repeats`
is its one-point case and `simulate_noisy` the one-seed case of that.  An
entry is one (point, seed).  Entries are grouped by the seed's number of
32-bit words alone: seeds of different word counts seed their streams from
entropy of different lengths, so they are never walked in one `Streams`.
A group's entries are sorted by falling count of fallible gates (rate above
zero); the sort is stable, so a point's entries stay together and in seed
order.  A group walks its rows (entry e, shot i), entry after entry, in
blocks of at most `_BLOCK_SHOTS` rows: a block may span entries and points
and an entry may span blocks, so memory is bounded by the block at any shot
count.  The group seeds each entry's measurement stream, `default_rng(seed_e)`,
once, as one `_streams.Streams` row, and a block continues those of its
entries by jump-ahead: one `Streams.ahead` call per stretch of entries that
take as many rows, one word per uniform, as `random(shots)` reads them.  No
shot builds a numpy Generator, and the sampler never imports numpy.random.
Each point's rows are one contiguous run of the block: the point's ideal
state is evolved when the group first meets it, and its run selects
indices from that state's distribution alone.  The block's noise comes from
one `_streams.Streams`, which holds each row's (seed_e, i) PCG64 state, bit
for bit, as arrays, and advances only the rows that draw.  The runs step
through their fallible gates together: at gate step k the rows of the
points with more than k fallible gates draw, and by the sort they are a
prefix of the block, stepped through views with no index.  Each takes one
word (a `random()`) and compares it with its own point's rate at step k;
the rows it hits then take one `integers(3)` per qubit of their own gate, a
32-bit half: the low half of a fresh word, or the high half numpy buffered
from the last one, even across uniforms in between; a step that hits no row
draws nothing more.  The one 32-bit value that `integers(3)` rejects (zero,
see `_streams.below_three`) is redrawn in place for its row alone, as numpy
redraws it.  Step k has as many Pauli slots as its widest gate has qubits,
and each point's faulty rows are handed their own slot columns, so they are
evolved on that point's gates, their fault patterns together.  The readout uniforms follow, walked by
measured-qubit position j: the rows of the points that measure more than j
qubits, a prefix of the block where the points' measured counts fall with
their gate counts, as a chain's do, and an index of the rows otherwise,
each row with its own index bit and (p01, p10).  A row draws where the
flip probability of its current bit is above zero: every row, with no
index, where every row's is.  Where a block's points share a noise
signature (width, measured qubits, fallible gates' rates and arities), as a
Hardy grid's do, every step takes every row.  The block's keys are tallied,
as ints, into running per-entry counts, once per stretch of runs whose
points share a width and measured qubits; the keys become bit strings once,
at the end of the call.  Every histogram, ideal or noisy, lists its keys in
the order of their first occurrence among the shots.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ._streams import MAX_SHOTS, Streams, _words, below_three, doubles, seed_words
from .circuit import Circuit, CountsHistogram, _index, gate_ops
from .states import _apply_paulis, evolve, init_state

#: canonical 5-qubit T-shaped coupling (hub at qubit 1, tail 3-4)
T_COUPLING: tuple[tuple[int, int], ...] = ((0, 1), (1, 2), (1, 3), (3, 4))
#: 5-qubit "hourglass"/bowtie coupling: two triangles sharing the center
HOURGLASS_COUPLING: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
)

#: (repeat, shot) rows sampled together; bounds memory at any shot count
_BLOCK_SHOTS = 2**16
#: amplitudes of the fault-pattern states evolved together (16 MiB); at least one state
_BLOCK_AMPS = 2**20

def _edge(pair) -> tuple[int, int]:
    a, b = sorted(map(_index, pair))
    return a, b


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected connectivity between physical qubits; must be connected."""

    num_qubits: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset(map(_edge, self.edges))
        for a, b in edges:
            if a == b or not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"bad edge {(a, b)} in coupling graph")
        object.__setattr__(self, "edges", edges)
        adjacency: dict[int, list[int]] = {}
        for a, b in edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        object.__setattr__(self, "_adjacency",
                           {q: tuple(sorted(vs)) for q, vs in adjacency.items()})
        if self.num_qubits > 1 and len(self._bfs(0)) != self.num_qubits:
            raise ValueError("coupling graph must be connected")

    def neighbors(self, q: int) -> list[int]:
        return list(self._adjacency.get(q, ()))

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self.edges

    def degree(self, q: int) -> int:
        return len(self.neighbors(q))

    def _bfs(self, start: int, goal: int | None = None) -> dict[int, int]:
        """BFS predecessor of each qubit reached from `start`, stopping at `goal`."""
        prev = {start: start}
        frontier = deque([start])
        while frontier:
            u = frontier.popleft()
            for v in self._adjacency.get(u, ()):
                if v not in prev:
                    prev[v] = u
                    if v == goal:
                        return prev
                    frontier.append(v)
        return prev

    def shortest_path(self, start: int, goal: int) -> list[int]:
        """BFS path [start, ..., goal]; ties broken toward lower qubit index."""
        prev = self._bfs(start, goal)
        if goal not in prev:
            raise ValueError(f"no path between {start} and {goal}")
        path = [goal]
        while path[-1] != start:
            path.append(prev[path[-1]])
        return path[::-1]


@dataclass(frozen=True)
class DeviceModel:
    """Calibration summary of a backend.

    readout holds one (p01, p10) pair per qubit: p01 is the probability
    of reading 1 when the true bit is 0, p10 the reverse.  `graph` is the
    validated coupling graph, built once here.
    """

    name: str
    num_qubits: int
    t1_us: float
    t2_us: float
    cnot_error: float
    readout: tuple[tuple[float, float], ...]
    coupling: tuple[tuple[int, int], ...]
    single_qubit_error: float = None  # type: ignore[assignment]
    calibration_date: str = ""
    graph: CouplingGraph = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.single_qubit_error is None:
            object.__setattr__(self, "single_qubit_error", self.cnot_error / 10.0)
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if self.t1_us <= 0 or self.t2_us <= 0:
            raise ValueError("t1_us and t2_us must be positive")
        for label, rate in (
            ("cnot_error", self.cnot_error),
            ("single_qubit_error", self.single_qubit_error),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} must be in [0, 1), got {rate}")
        readout = tuple((float(a), float(b)) for a, b in self.readout)
        if len(readout) != self.num_qubits:
            raise ValueError(
                f"need one readout pair per qubit, got {len(readout)} "
                f"for {self.num_qubits} qubits"
            )
        for p01, p10 in readout:
            if not (0.0 <= p01 < 1.0 and 0.0 <= p10 < 1.0):
                raise ValueError(f"readout probabilities must be in [0, 1): {(p01, p10)}")
        object.__setattr__(self, "readout", readout)
        coupling = tuple(map(_edge, self.coupling))
        object.__setattr__(self, "graph", CouplingGraph(self.num_qubits, frozenset(coupling)))
        object.__setattr__(self, "coupling", coupling)

    def gate_error(self, arity: int) -> float:
        """Error probability of one gate on `arity` qubits; see the module docstring."""
        p2 = self.cnot_error
        return {1: self.single_qubit_error, 2: p2, 3: 1.0 - (1.0 - p2) ** 6}.get(arity, 0.0)

    @property
    def mean_readout_error(self) -> float:
        return float(np.mean([(a + b) / 2 for a, b in self.readout]))

    def readout_error_of(self, qubit: int) -> float:
        p01, p10 = self.readout[qubit]
        return (p01 + p10) / 2


def _symmetric_readout(p: float, num_qubits: int) -> tuple[tuple[float, float], ...]:
    return tuple((p, p) for _ in range(num_qubits))


def _preset(
    name: str, date: str, t1: float, t2: float, cnot_pct: float, ro_pct: float,
    coupling: tuple[tuple[int, int], ...],
) -> DeviceModel:
    return DeviceModel(
        name=name,
        calibration_date=date,
        num_qubits=5,
        t1_us=t1,
        t2_us=t2,
        cnot_error=cnot_pct / 100.0,
        readout=_symmetric_readout(ro_pct / 100.0, 5),
        coupling=coupling,
    )


#: five-qubit backends with their averaged calibration summaries
DEVICE_PRESETS: dict[str, DeviceModel] = {
    "burlington": _preset("burlington", "2020-08", 84.88, 67.36, 1.50, 4.64, T_COUPLING),
    "essex": _preset("essex", "2020-08", 104.31, 123.70, 1.76, 3.59, T_COUPLING),
    "london": _preset("london", "2020-08", 61.45, 62.74, 1.75, 4.40, T_COUPLING),
    "ourense": _preset("ourense", "2020-08", 93.15, 66.43, 0.92, 2.96, T_COUPLING),
    "valencia-0820": _preset("valencia-0820", "2020-08", 84.18, 62.78, 1.11, 2.32, T_COUPLING),
    "valencia-0920": _preset("valencia-0920", "2020-09", 100.00, 80.49, 1.10, 2.52, T_COUPLING),
    "vigo-0820": _preset("vigo-0820", "2020-08", 73.28, 50.73, 1.07, 1.66, T_COUPLING),
    "vigo-0920": _preset("vigo-0920", "2020-09", 107.64, 74.04, 0.94, 1.96, T_COUPLING),
    "x2": _preset("x2", "2020-08", 57.08, 45.40, 1.82, 3.18, HOURGLASS_COUPLING),
}

#: bare device names resolve to their earliest calibration
_PRESET_ALIASES = {"vigo": "vigo-0820", "valencia": "valencia-0820"}


def device_preset(name: str) -> DeviceModel:
    key = name.strip().lower()
    key = _PRESET_ALIASES.get(key, key)
    if key not in DEVICE_PRESETS:
        known = sorted(set(DEVICE_PRESETS) | set(_PRESET_ALIASES))
        raise KeyError(f"unknown device preset {name!r}; known: {', '.join(known)}")
    return DEVICE_PRESETS[key]


def load_device(source: str) -> DeviceModel:
    """Load a calibration document from a JSON file path or raw JSON text.

    Required fields: name, num_qubits, t1_us, t2_us, cnot_error,
    readout_error, coupling.  Optional: single_qubit_error (default
    cnot_error/10), calibration_date.  readout_error is either one scalar,
    applied symmetrically to every qubit, or a list of [p01, p10] pairs.
    """
    text = source
    if not source.lstrip().startswith("{"):
        if not os.path.exists(source):
            raise ValueError(f"no such calibration file: {source}")
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"calibration document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("calibration document must be a JSON object")
    required = ["name", "num_qubits", "t1_us", "t2_us", "cnot_error", "readout_error", "coupling"]
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"calibration document missing field(s): {', '.join(missing)}")
    try:
        num_qubits = doc["num_qubits"]
        if isinstance(num_qubits, bool) or not isinstance(num_qubits, int):
            raise TypeError(f"num_qubits must be a JSON integer, got {num_qubits!r}")
        if num_qubits > len(doc["coupling"]) + 1:
            # checked before the readout table grows to num_qubits pairs
            raise ValueError(
                f"{num_qubits} qubits need at least {num_qubits - 1} coupling edges "
                f"to be connected, got {len(doc['coupling'])}"
            )
        ro = doc["readout_error"]
        sq = doc.get("single_qubit_error")
        return DeviceModel(
            name=str(doc["name"]),
            calibration_date=str(doc.get("calibration_date", "")),
            num_qubits=num_qubits,
            t1_us=float(doc["t1_us"]),
            t2_us=float(doc["t2_us"]),
            cnot_error=float(doc["cnot_error"]),
            single_qubit_error=None if sq is None else float(sq),
            readout=(
                _symmetric_readout(ro, num_qubits)
                if isinstance(ro, (int, float)) else ro
            ),
            coupling=doc["coupling"],
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid calibration document: {exc}") from exc


def ideal_device(num_qubits: int, coupling: tuple[tuple[int, int], ...] | None = None) -> DeviceModel:
    """All-zero error rates: the device on which the sampler is ideal sampling (`ideal_counts`)."""
    if coupling is None:
        coupling = tuple((q, q + 1) for q in range(num_qubits - 1))
    return DeviceModel(
        name="ideal",
        num_qubits=num_qubits,
        t1_us=float("inf"),
        t2_us=float("inf"),
        cnot_error=0.0,
        single_qubit_error=0.0,
        readout=_symmetric_readout(0.0, num_qubits),
        coupling=coupling,
    )


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution of `probs` along axis 0, its top edge guarded against rounding."""
    cum = np.cumsum(probs, axis=0)
    cum[-1] = np.maximum(cum[-1], 1.0)
    return cum


def _inverse_cdf(cum: np.ndarray, us, columns=None):
    """Basis index that each uniform in `us` selects from the cumulative distribution `cum`.

    With `columns`, each column of `cum` is a distribution and uniform j
    selects from column `columns[j]`: counting the cumulative probabilities
    at or below it finds what `searchsorted` finds in that column.
    """
    if columns is None:
        index = np.searchsorted(cum, us, side="right")
    else:
        step = max(1, _BLOCK_AMPS // len(cum))  # uniforms compared at once
        index = np.concatenate([
            np.count_nonzero(cum[:, columns[s:s + step]] <= us[s:s + step], axis=0)
            for s in range(0, len(us), step)])
    return np.minimum(index, len(cum) - 1)


def _count(tallies: list[defaultdict[int, int]], entry, outcomes, qubits: tuple[int, ...],
           num_qubits: int):
    """Add basis-index outcomes to running tallies: outcome j to `tallies[entry[j]]`.

    An outcome is tallied under its key, the bits of `qubits` packed into an
    int in that order.  `entry` never decreases, so each tally lists its
    keys in the order in which they first occur, block after block.  Sorting
    the block's (entry, key) values, stably or not, puts each value in one
    run, and the value first occurs at the least position of its run.
    """
    values, size = entry, 0
    for q, after in zip(qubits, (*qubits[1:], None)):
        size += 1
        if after != q + 1:  # q ends a stretch of consecutive qubits: one field of the index
            values = values << size | outcomes >> (num_qubits - 1 - q) & ((1 << size) - 1)
            size = 0
    position = np.argsort(values)
    values = values[position]
    starts = np.flatnonzero(np.diff(values, prepend=-1))
    counts = np.diff(starts, append=len(values))
    order = np.argsort(np.minimum.reduceat(position, starts))
    values = values[starts][order]
    width = len(qubits)
    for r, key, count in zip((values >> width).tolist(), (values & ((1 << width) - 1)).tolist(),
                             counts[order].tolist()):
        tallies[r][key] += count


def simulate_noisy(
    circuit: Circuit, device: DeviceModel, shots: int, seed: int
) -> CountsHistogram:
    """Trajectory sampling of `circuit` under `device`'s noise model.

    The one-seed case of `simulate_noisy_repeats`; keys are listed in the
    order in which they first occur among the shots.
    """
    return simulate_noisy_repeats(circuit, device, shots, [seed])[0]


def simulate_noisy_repeats(
    circuit: Circuit, device: DeviceModel, shots: int, seeds: Sequence[int]
) -> list[CountsHistogram]:
    """`simulate_noisy(circuit, device, shots, seed)` for each seed in `seeds`.

    The one-point case of `simulate_noisy_points`.
    """
    return simulate_noisy_points([(circuit, seeds)], device, shots)[0]


def simulate_noisy_points(
    points: Sequence[tuple[Circuit, Sequence[int]]], device: DeviceModel, shots: int
) -> list[list[CountsHistogram]]:
    """`simulate_noisy_repeats(circuit, device, shots, seeds)` for each point (circuit, seeds).

    The points' shots are sampled together, on the shared path described in
    the module docstring; each histogram is bit for bit what its seed alone
    gives on its circuit.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most 2**32, the streams one seed gives, got {shots}")
    for circuit, seeds in points:
        for seed in seeds:
            if seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed}")
        if circuit.num_qubits > device.num_qubits:
            raise ValueError(
                f"circuit needs {circuit.num_qubits} qubits but device "
                f"{device.name!r} has {device.num_qubits}"
            )
    point_ops, formats, shapes, point_noise = [], [], [], []
    groups: dict[int, list[tuple[int, int]]] = {}  # seed word count -> (point, seed position)
    for p, (circuit, seeds) in enumerate(points):
        n = circuit.num_qubits
        ops = gate_ops(circuit)
        measured = circuit.measured_qubits or tuple(range(n))
        rates = [device.gate_error(len(targets)) for _, targets in ops]
        fallible = tuple((pos, rate) for pos, rate in enumerate(rates) if rate > 0.0)
        arities = tuple(len(ops[pos][1]) for pos, _ in fallible)
        # (rate, arity) of each fallible gate, and (index bit, p01, p10) of each measured qubit
        point_noise.append(([(rate, arity) for (_, rate), arity in zip(fallible, arities)],
                            [(1 << (n - 1 - q), *device.readout[q]) for q in measured]))
        point_ops.append((ops, fallible, arities))
        shapes.append((n, measured))
        formats.append(f"0{len(measured)}b")
        for r, seed in enumerate(seeds):
            groups.setdefault(len(_words(int(seed))), []).append((p, r))

    tallies = [[defaultdict(int) for _ in seeds] for _, seeds in points]  # key, as an int -> shots
    for entries in groups.values():
        # falling count of fallible gates; the sort is stable, so a point's entries stay
        # together and in seed order, and the rows that draw at each gate are a prefix
        entries.sort(key=lambda entry: -len(point_noise[entry[0]][0]))
        noisy = any(gates or any(p01 or p10 for _, p01, p10 in readout)
                    for gates, readout in (point_noise[p] for p, _ in entries))
        words = seed_words([points[p][1][r] for p, r in entries])
        measure = Streams(words)  # each entry's default_rng(seed) stream
        group_tallies = [tallies[p][r] for p, r in entries]
        cum_point = None  # the point whose ideal distribution `cum` holds
        rows = len(entries) * shots
        for first in range(0, rows, _BLOCK_SHOTS):
            last = min(first + _BLOCK_SHOTS, rows)
            # row (e, i) is shot i of the group's e-th entry
            met = range(first // shots, (last - 1) // shots + 1)  # the block's entries
            takes = [min(last, (e + 1) * shots) - max(first, e * shots) for e in met]
            runs, size = [], 0  # runs: each met point and its first row in the block
            for e, take in zip(met, takes):
                if not runs or runs[-1][0] != entries[e][0]:
                    runs.append((entries[e][0], size))
                size += take
            entry = np.repeat(met, takes)
            # the entries continue their measurement streams, a stretch of equal takes at a time
            cuts = [0, *(j for j in range(1, len(met)) if takes[j] != takes[j - 1]), len(met)]
            us = doubles(np.concatenate([measure.ahead(slice(met[a], met[b - 1] + 1), takes[a])
                                         for a, b in zip(cuts, cuts[1:])], axis=None))
            bounds = [start for _, start in runs] + [size]
            outcomes = []
            for (p, start), stop in zip(runs, bounds[1:]):
                if p != cum_point:  # a point's rows are contiguous: it is evolved once a group
                    cum_point = p
                    n = shapes[p][0]
                    cum = _cdf(np.abs(evolve(init_state(n).amplitudes, point_ops[p][0], n)) ** 2)
                outcomes.append(_inverse_cdf(cum, us[start:stop]))
            outcomes = np.concatenate(outcomes)
            if noisy:
                streams = Streams(words[:, entry], np.arange(first, last) - entry * shots)
                lengths = [stop - start for start, stop in zip(bounds, bounds[1:])]
                steps = list(_lockstep([point_noise[p][0] for p, _ in runs], lengths))
                paulis, faulty = _fault_paulis(streams, size, steps)
                if faulty.size:
                    firsts = [0, *accumulate(_widths(steps))]  # each step's first slot
                    cuts = np.searchsorted(faulty, bounds).tolist()  # each run's faulty rows
                    for (p, _), a, b in zip(runs, cuts, cuts[1:]):
                        if a < b:
                            ops, fallible, arities = point_ops[p]
                            mine = faulty[a:b]
                            slots = paulis[mine]
                            if sum(arities) < paulis.shape[1]:  # the point's own slot columns
                                slots = slots[:, [firsts[k] + t for k, arity in enumerate(arities)
                                                  for t in range(arity)]]
                            outcomes[mine] = _faulty_outcomes(
                                slots, us[mine], ops, fallible, arities, shapes[p][0])
                outcomes = _read_out(outcomes, streams,
                                     _lockstep([point_noise[p][1] for p, _ in runs], lengths))
            start = 0  # tally each stretch of runs whose points share a width and measured qubits
            for (p, _), (after, stop) in zip(runs, [*runs[1:], (None, size)]):
                if after is None or shapes[after] != shapes[p]:
                    n, measured = shapes[p]
                    _count(group_tallies, entry[start:stop], outcomes[start:stop], measured, n)
                    start = stop
    return [[CountsHistogram(shots=shots, counts={format(key, fmt): count
                                                  for key, count in tally.items()})
             for tally in point_tallies]
            for point_tallies, fmt in zip(tallies, formats)]


def _lockstep(runs, lengths):
    """The steps that a block's runs of rows take together: run r takes step k with `runs[r][k]`.

    Yields, for each step k, the rows of the runs that take it and then each
    of the step's values: one value where those runs agree on it, else an
    array of each row's own.  The rows are `...` when every run takes the
    step, a prefix slice(0, stop) of the block when those runs lead it, and
    an index of the rows otherwise.
    """
    ends = list(accumulate(lengths))
    for k in range(max(map(len, runs))):
        reach = [r for r, steps in enumerate(runs) if len(steps) > k]
        if len(reach) == len(runs):
            rows = ...
        elif reach[-1] == len(reach) - 1:
            rows = slice(0, ends[reach[-1]])
        else:
            rows = np.concatenate([np.arange(ends[r] - lengths[r], ends[r]) for r in reach])
        step = runs[reach[0]][k]
        if any(runs[r][k] != step for r in reach):
            step = [value[0] if value.count(value[0]) == len(value)
                    else np.repeat(value, [lengths[r] for r in reach])
                    for value in zip(*(runs[r][k] for r in reach))]
        yield rows, *step


def _fault_paulis(streams: Streams, size: int, steps):
    """Pauli slots of the `size` shots of `streams`, and the rows that draw a fault.

    Each gate step (rows, rate, arity) takes one `random()` from the streams
    of its rows, a prefix of the shots; each row it hits then takes one
    `integers(3)` for each of its arity qubits.  The rate and the arity are
    one value or an array of each row's own; a step has as many slots as
    its widest gate.  A slot holds 0-2 for X, Y, Z and -1 where its gate
    did not fail.
    """
    widths = _widths(steps)
    paulis = np.full((size, sum(widths)), -1, dtype=np.int8)
    half = np.zeros(size, dtype=np.uint64)  # each row's buffered high half, if `buffered`
    buffered = np.zeros(size, dtype=bool)
    faulty = np.zeros(size, dtype=bool)
    slot = 0
    for (rows, rate, arity), width in zip(steps, widths):
        hit = np.flatnonzero(doubles(streams.next(rows)) < rate)
        if hit.size:  # a gate that hits no row draws nothing more
            faulty[hit] = True
            for t in range(width):
                draw = hit[arity[hit] > t] if isinstance(arity, np.ndarray) else hit
                paulis[draw, slot + t] = _integers3(streams, draw, half, buffered)
        slot += width
    return paulis, np.flatnonzero(faulty)


def _widths(steps) -> list[int]:
    """The slots of each gate step (rows, rate, arity): as many as its widest gate's qubits."""
    return [int(arity.max()) if isinstance(arity, np.ndarray) else arity for *_, arity in steps]


def _integers3(streams: Streams, rows: np.ndarray, half: np.ndarray, buffered: np.ndarray):
    """numpy's `integers(3)` for the streams in `rows`, redrawn in place where it rejects.

    A row takes the high half it buffered if it has one, else the low half
    of a fresh word, whose high half it buffers; `half` and `buffered` carry
    that buffer between calls.
    """
    out = np.empty(len(rows), dtype=np.int8)
    todo = np.arange(len(rows))  # positions in `rows` still to draw
    while todo.size:
        draw = rows[todo]
        fresh = ~buffered[draw]
        x = half[draw]
        word = streams.next(draw[fresh])
        x[fresh] = word & np.uint64(0xFFFFFFFF)
        half[draw[fresh]] = word >> np.uint64(32)
        buffered[draw] = fresh
        out[todo], reject = below_three(x)
        todo = todo[reject]
    return out


def _faulty_outcomes(paulis, us, ops, fallible, arities, n):
    """Outcomes of the shots whose Pauli slots are the rows of `paulis`.

    `us` are their measurement uniforms.  Shots are grouped by fault
    pattern, and the patterns are evolved together as the columns of one
    state array, at most `_BLOCK_AMPS` amplitudes at a time.
    """
    patterns, column = _patterns(paulis)
    slots: dict[int, list[tuple[int, int]]] = {}  # gate position -> (slot, qubit) of its Paulis
    for (pos, _), offset in zip(fallible, np.cumsum([0, *arities]).tolist()):
        slots[pos] = [(offset + t, q) for t, q in enumerate(ops[pos][1])]
    width = max(1, _BLOCK_AMPS >> n)
    outcomes = np.empty(len(paulis), dtype=np.intp)
    for first in range(0, len(patterns), width):
        block = patterns[first:first + width]
        carried = (block >= 0).any(axis=0).tolist()
        states = np.zeros((2**n, len(block)), dtype=complex)
        states[0] = 1.0
        done = 0  # gates applied so far
        for pos, gate_slots in slots.items():
            states = evolve(states, ops[done:pos + 1], n)
            done = pos + 1
            for slot, q in gate_slots:
                if carried[slot]:
                    states = _apply_paulis(states, block[:, slot], q)
        states = evolve(states, ops[done:], n)
        mine = np.flatnonzero((column >= first) & (column < first + width))
        outcomes[mine] = _inverse_cdf(_cdf(np.abs(states) ** 2), us[mine], column[mine] - first)
    return outcomes


def _patterns(paulis):
    """`np.unique(paulis, axis=0, return_inverse=True)`, sorting rows as byte strings.

    Each row of codes + 1 (0-3) is one `np.void` key, whose byte order is the
    order of the codes, so the patterns, their order and the inverse are the
    same; sorting byte keys is about ten times faster than sorting rows.
    """
    keys = np.ascontiguousarray(paulis + 1).view(np.dtype((np.void, paulis.shape[1])))
    keys, column = np.unique(keys.reshape(-1), return_inverse=True)
    patterns = keys.view(np.int8).reshape(len(keys), paulis.shape[1]) - 1
    return patterns, column.reshape(-1)


def _read_out(outcomes: np.ndarray, streams: Streams, steps) -> np.ndarray:
    """Readout flips of basis-index outcomes, each shot drawing from its row of `streams`.

    Each step (rows, bit, p01, p10) reads one measured qubit of `rows`: its
    index bit and flip probabilities, one value or an array of each row's
    own.  A shot draws a uniform only when the flip probability of the
    qubit's current bit is above zero; where every row's is, every row
    draws, with no index.
    """
    for rows, bit, p01, p10 in steps:
        mine = outcomes[rows]
        p = np.where(mine & bit, p10, p01)
        if p.all():
            flip = doubles(streams.next(rows)) < p
        else:
            draw = np.flatnonzero(p > 0.0)
            flip = np.zeros(len(p), dtype=bool)
            flip[draw] = doubles(streams.next(np.arange(len(outcomes))[rows][draw])) < p[draw]
        outcomes[rows] = mine ^ flip * bit
    return outcomes


def ideal_counts(circuit: Circuit, shots: int, seed: int) -> CountsHistogram:
    """Sample the exact distribution of `circuit` (no noise): the sampler on `ideal_device`."""
    return simulate_noisy_repeats(circuit, ideal_device(circuit.num_qubits), shots, [seed])[0]
