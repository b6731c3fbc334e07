"""In-memory span tracing of mzsim's layers, installed from outside.

Each traced callable is replaced, in every ``mzsim`` namespace that holds
it, by a wrapper that records a span (label, start, end, parent span) and
optional counts.  ``apply_unitary``, for example, is looked up through
``states``, ``circuit`` and ``noise``; ``simulate_noisy``, ``mitigate`` and
``transpile`` through ``cli`` as well as their home modules.  Methods are
patched on their class.  ``uninstall`` puts every original back.

Self time of a span is its duration minus the durations of its direct
children, computed from the parent links after the run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

#: (label, module, attribute, class or None); a label may cover several callables
TRACED = (
    ("cli.main", "mzsim.cli", "main", None),
    ("experiments.build", "mzsim.experiments", "build", "ExperimentSpec"),
    ("circuit.simulate_ideal", "mzsim.circuit", "simulate_ideal", None),
    ("states.apply_unitary", "mzsim.states", "apply_unitary", None),
    ("states.probability_dict", "mzsim.states", "probability_dict", "StateVector"),
    ("gates.matrix_of", "mzsim.gates", "matrix_of", None),
    ("noise.load_device", "mzsim.noise", "load_device", None),
    ("noise.simulate_noisy", "mzsim.noise", "simulate_noisy", None),
    ("mitigation.exact_confusion_matrix", "mzsim.mitigation", "exact_confusion_matrix", None),
    ("mitigation.condition_number", "mzsim.mitigation", "condition_number", "ConfusionMatrix"),
    ("mitigation.mitigate", "mzsim.mitigation", "mitigate", None),
    ("analysis.extract", "mzsim.analysis", "eta_from_counts", None),
    ("analysis.extract", "mzsim.analysis", "gamma_from_counts", None),
    ("analysis.run_statistics", "mzsim.analysis", "run_statistics", None),
    ("qasm.parse", "mzsim.qasm", "parse", None),
    ("qasm.emit", "mzsim.qasm", "emit", None),
    ("transpile.transpile", "mzsim.transpile", "transpile", None),
    ("transpile.decompose_to_basis", "mzsim.transpile", "decompose_to_basis", None),
    ("transpile.route", "mzsim.transpile", "route", None),
    ("transpile.fuse_single_qubit_runs", "mzsim.transpile", "fuse_single_qubit_runs", None),
    ("transpile.estimate_fidelity", "mzsim.transpile", "estimate_fidelity", None),
)

AMPLITUDE_BYTES = 16  # complex128


def _args(args, kwargs, names: tuple[str, ...]) -> tuple:
    """The named leading parameters, however the caller passed them."""
    return tuple(args[i] if i < len(args) else kwargs[name] for i, name in enumerate(names))


def _count_apply_unitary(tracer, args, kwargs, result):
    matrix = _args(args, kwargs, ("amplitudes", "matrix"))[1]
    tracer.add("states.apply_unitary.amps", result.size)
    # computed, not measured: the state read once and written once, plus the matrix
    tracer.add("states.apply_unitary.bytes_computed",
               AMPLITUDE_BYTES * (2 * result.size + matrix.size))


def _count_probability_dict(tracer, args, kwargs, result):
    tracer.add("states.probability_dict.entries", len(result))


def _count_simulate_noisy(tracer, args, kwargs, result):
    tracer.add("noise.simulate_noisy.shots", result.shots)
    tracer.capture("noise.simulate_noisy",
                   _args(args, kwargs, ("circuit", "device", "shots", "seed")))


def _count_mitigate(tracer, args, kwargs, result):
    tracer.add("mitigation.mitigate.dim", len(result))
    tracer.capture("mitigation.mitigate", _args(args, kwargs, ("counts", "confusion")))


def _count_parse(tracer, args, kwargs, result):
    source = _args(args, kwargs, ("source",))[0]
    tracer.add("qasm.parse.bytes", len(source.encode()))


def _count_emit(tracer, args, kwargs, result):
    tracer.add("qasm.emit.bytes", len(result.encode()))


def _count_transpile(tracer, args, kwargs, result):
    tracer.add("transpile.swaps", result.swap_count)
    tracer.add("transpile.gates_out", len(result.circuit.gate_instructions()))


COUNTERS = {
    "states.apply_unitary": _count_apply_unitary,
    "states.probability_dict": _count_probability_dict,
    "noise.simulate_noisy": _count_simulate_noisy,
    "mitigation.mitigate": _count_mitigate,
    "qasm.parse": _count_parse,
    "qasm.emit": _count_emit,
    "transpile.transpile": _count_transpile,
}


class Tracer:
    """Span and count recorder; spans live in flat arrays until ``summary``."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.captured: dict[str, list] = {}
        self.capturing = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def add(self, name: str, amount: float):
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def capture(self, label: str, args):
        if self.capturing:
            self.captured.setdefault(label, []).append(args)

    def _wrap(self, label: str, fn):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        label_id = self._label_ids[label]
        counter = COUNTERS.get(label)
        stack, labels, parents = self._stack, self.span_label, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            labels.append(label_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, name: str, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Patch every traced callable wherever an mzsim namespace holds it."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "mzsim" or name.startswith("mzsim.")]
        for label, module, attr, cls in TRACED:
            home = sys.modules[module]
            if cls is not None:
                owner = getattr(home, cls)
                self._set(owner, attr, self._wrap(label, owner.__dict__[attr]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(label, original)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._set(ns, name, wrapper)

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def _spans(self):
        parent = np.array(self.span_parent, dtype=np.int32)
        duration = (np.array(self.span_end, dtype=np.float64)
                    - np.array(self.span_start, dtype=np.float64))
        return np.array(self.span_label, dtype=np.int32), parent, duration

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls and self time in seconds."""
        label, parent, duration = self._spans()
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        return {name: {"calls": float(np.count_nonzero(label == i)),
                       "self_s": float(own[label == i].sum())}
                for i, name in enumerate(self.labels)}

    def root_seconds(self) -> float:
        """Summed duration of the top-level spans."""
        _, parent, duration = self._spans()
        return float(duration[parent < 0].sum())
