"""mzsim benchmark: CLI workloads measured end to end, and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
sweep-noisy, wide-mitigate and transpile-qasm.

One client in one process calls ``mzsim.cli.main(argv)`` in a closed loop:
each invocation starts when the previous one returns.  A run

1. generates the workload's input sets from ``--seed`` into ``.bench_work/``;
2. with ``--trace 0``, times fresh interpreters through the first
   invocation (set-up) and one fresh pass (peak memory);
3. runs one warm-up pass over input set 0;
4. repeats whole passes, cycling through the input sets, for ``--seconds``
   seconds and at least the workload's minimum number of passes.  The first
   run of an op is checked in full; later runs must give identical bytes.
   With ``--trace 1`` passes come in pairs over one input set, untraced and
   then traced, and the layer metrics are per traced pass.

The last line of stdout is the result JSON; diagnostics (machine context,
tail percentile, median latency, input properties, layer shares) go to
stderr.

Timings on a small shared host switch between a loaded state, the usual
one, and unloaded bursts of a few seconds in which the same pass runs up to
1.6x faster.  How much of a run falls in those bursts varies from run to
run, so a median over the run mixes the two states in a varying proportion.
``wall_s`` and ``work_per_s`` therefore report the loaded state: the 80th
percentile of the pass walls and the 20th of the per-pass throughputs.

An operation fails when its exit code or output breaks the CLI contract.
Inputs that reproduce a ROADMAP known defect are kept in the mix; when they
fail exactly as documented they lower ``ok_frac`` but are not counted in
``failed``, which is reserved for unexpected failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread: the loop is one client in one process, and on a small
# shared machine a second BLAS thread mostly adds contention and spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from invoke import call_cli  # noqa: E402
from workloads import DEFECT_EXIT, MIN_PASSES, WORK_UNITS, CheckFailed, generate  # noqa: E402

#: fresh interpreters per run; the median is reported
FRESH_RUNS = 5
FRESH_TIMEOUT_S = 120


class SourceTreeMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def load_cli():
    """Import ``mzsim.cli`` from this checkout's ``src``, never from elsewhere."""
    package = os.path.join(SRC, "mzsim")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise SourceTreeMissing(f"no mzsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import mzsim
    from mzsim import cli

    if os.path.dirname(os.path.abspath(mzsim.__file__)) != package:
        raise SourceTreeMissing(f"imported mzsim from {mzsim.__file__}, not {package}")
    return cli


def machine_context() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of the BLAS numpy loaded, or the environment's request."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return env or "unknown"


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100.0 * len(ordered)), 1) - 1]


class Bench:
    """Runs passes over a workload's input sets and keeps the outcome tallies."""

    def __init__(self, cli, workload: str, variants, mutate=None):
        self.cli = cli
        self.workload = workload
        self.variants = variants
        self.mutate = mutate
        self.reference: dict[tuple[int, int], str] = {}
        self.passes = 0
        self.attempted = self.ok = self.failed = self.known = 0
        self.failures: list[str] = []
        self.raw_err: list[float] = []
        self.mitigated_err: list[float] = []
        self.output_bytes = 0

    def _digest(self, op, stdout: str) -> str:
        h = hashlib.sha1(stdout.encode())
        if op.output and os.path.exists(op.output):
            with open(op.output, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def run_op(self, variant: int, index: int) -> tuple[float, bool]:
        """Invoke one op; check it fully the first time, then compare bytes."""
        op = self.variants[variant][index]
        key = (variant, index)
        if op.output and os.path.exists(op.output):
            os.remove(op.output)
        start = time.perf_counter()
        code, out, err = call_cli(self.cli.main, op.argv)
        latency = time.perf_counter() - start
        if self.mutate is not None:
            self.mutate(variant, index, op)
        reason = None
        if code != op.expect or "Traceback" in err:
            reason = f"exit {code}, expected {op.expect}: {err.strip()[-200:]}"
        elif key not in self.reference:
            try:
                stats = op.check(op, out)
            except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"check: {type(exc).__name__}: {exc}"
            else:
                self.reference[key] = self._digest(op, out)
                if variant == 0:  # always checked, so these repeat exactly per seed
                    self.raw_err += stats["raw"]
                    self.mitigated_err += stats["mitigated"]
                    self.output_bytes += stats["bytes"]
        elif self._digest(op, out) != self.reference[key]:
            reason = "output differs from the first pass"
        self.attempted += 1
        if reason is None:
            self.ok += 1
        elif op.defect and code == DEFECT_EXIT[op.defect]:
            self.known += 1
        else:
            self.failed += 1
            self.failures.append(f"set {variant} op {index} {' '.join(op.argv[:3])}: {reason}")
        return latency, reason is None

    def next_variant(self) -> int:
        """The input set of the next pass; passes cycle through the sets."""
        variant = self.passes % len(self.variants)
        self.passes += 1
        return variant

    def run_pass(self, variant: int) -> tuple[list[float], int]:
        """(latency of each op, work units of the ops that succeeded)."""
        latencies, work = [], 0
        for index, op in enumerate(self.variants[variant]):
            latency, ok = self.run_op(variant, index)
            latencies.append(latency)
            work += op.work if ok else 0
        return latencies, work

    def timed(self, seconds: float, min_passes: int = 1):
        """Whole passes until `seconds` have gone by and `min_passes` are done.

        Returns [(input set, op latencies, work units done) per pass].
        """
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < min_passes or time.perf_counter() < deadline:
            variant = self.next_variant()
            passes.append((variant, *self.run_pass(variant)))
        return passes


def measure_fresh(ops, workdir: str) -> tuple[list[float], float]:
    """Fresh-interpreter times to the first invocation done, and one pass's peak RSS."""
    argv_file = os.path.join(workdir, "argv.json")
    with open(argv_file, "w", encoding="utf-8") as fh:
        json.dump([op.argv for op in ops], fh)
    firsts, rss_kb = [], None
    for i in range(FRESH_RUNS):
        mode = "pass" if i == FRESH_RUNS - 1 else "first"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "fresh.py"), SRC, argv_file, mode],
            capture_output=True, text=True, timeout=FRESH_TIMEOUT_S, cwd=ROOT)
        marks = dict(line.split(" ", 1) for line in proc.stdout.splitlines() if " " in line)
        if proc.returncode != 0 or "first" not in marks:
            raise RuntimeError(f"fresh interpreter failed: {proc.stderr.strip()[-500:]}")
        firsts.append(float(marks["first"]) - start)
        if mode == "pass":
            rss_kb = float(marks["maxrss_kb"])
    return firsts, rss_kb


def end_to_end(bench: Bench, passes, fresh) -> tuple[dict, dict]:
    firsts, rss_kb = fresh
    walls = [sum(lat) for _, lat, _ in passes]
    latencies = [x for _, lat, _ in passes for x in lat]
    # the highest percentile with ten samples beyond it after the minimum passes
    tail_pct = 100.0 * (1.0 - 10.0 / (MIN_PASSES[bench.workload] * len(bench.variants[0])))
    tail = nearest_rank(latencies, tail_pct)
    # the fresh interpreters ran op 0 of set 0
    first_latency = statistics.median([lat[0] for v, lat, _ in passes if v == 0]
                                      or [lat[0] for _, lat, _ in passes])
    metrics = {
        "setup_s": (statistics.median(firsts) - first_latency, "s"),
        "wall_s": (nearest_rank(walls, 80), "s"),
        "work_per_s": (nearest_rank([work / sum(lat) for _, lat, work in passes], 20), "1/s"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "ok_frac": (bench.ok / bench.attempted, "fraction"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {"tail_percentile": tail_pct, "latency_samples": len(latencies),
             "latency_p50_ms": 1e3 * statistics.median(latencies),
             "pass_walls_s": walls, "work_unit": WORK_UNITS[bench.workload],
             "fresh_first_s": firsts, "first_latency_s": first_latency}
    return metrics, notes


LAYERS = ("cli", "experiments", "circuit", "states", "gates", "noise",
          "mitigation", "analysis", "qasm", "transpile")


def per_layer(bench: Bench, tracer, untraced, traced) -> tuple[dict, dict]:
    from properties import fallback_count, fault_patterns

    n = len(traced)
    spans = tracer.summary()
    wall = tracer.root_seconds() / n
    metrics = {f"{label}.self_s": (s["self_s"] / n, "s") for label, s in spans.items()}
    for label in ("noise.simulate_noisy", "states.apply_unitary", "gates.matrix_of",
                  "mitigation.mitigate"):
        metrics[f"{label}.calls"] = (spans[label]["calls"] / n, "count")
    units = {"noise.simulate_noisy.shots": "count", "states.apply_unitary.amps": "count",
             "states.apply_unitary.bytes_computed": "B",
             "states.probability_dict.entries": "count", "qasm.parse.bytes": "B",
             "qasm.emit.bytes": "B", "transpile.swaps": "count", "transpile.gates_out": "count"}
    for name, unit in units.items():
        metrics[name] = (tracer.counts.get(name, 0.0) / n, unit)
    mitigate_calls = spans["mitigation.mitigate"]["calls"]
    metrics["mitigation.mitigate.dim"] = (
        tracer.counts.get("mitigation.mitigate.dim", 0.0) / mitigate_calls if mitigate_calls else 0.0,
        "count")

    shots, faulty, patterns = fault_patterns(tracer.captured.get("noise.simulate_noisy", []))
    inputs, fallback = fallback_count(tracer.captured.get("mitigation.mitigate", []))
    metrics["noise.faulty_shot_share"] = (faulty / shots if shots else 0.0, "fraction")
    metrics["noise.fault_patterns"] = (patterns / len(bench.variants), "count")
    metrics["mitigation.fallback_share"] = (fallback / inputs if inputs else 0.0, "fraction")
    metrics["cli.output_bytes"] = (float(bench.output_bytes), "B")
    metrics["output.abs_err_raw"] = (statistics.fmean(bench.raw_err) if bench.raw_err else 0.0, "1")
    metrics["output.abs_err_mitigated"] = (
        statistics.fmean(bench.mitigated_err) if bench.mitigated_err else 0.0, "1")

    for layer in LAYERS:
        own = sum(s["self_s"] for label, s in spans.items() if label.split(".")[0] == layer)
        metrics[f"share.{layer}"] = (own / n / wall, "fraction")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(sum(t) - sum(u) for t, u in zip(traced, untraced)), "s")
    notes = {"traced_passes": n, "untraced_passes": len(untraced),
             "self_s_sum_per_pass": sum(s["self_s"] for s in spans.values()) / n,
             "fault_replay": {"shots": shots, "faulty": faulty, "patterns": patterns},
             "mitigate_inputs": {"total": inputs, "fallback": fallback}}
    return metrics, notes


def traced_passes(bench: Bench, seconds: float):
    """Pairs of passes over one input set, untraced then traced.

    Runs at least one pair per input set, so the captured layer inputs, and
    the properties computed from them, repeat exactly for a seed.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < len(bench.variants) or time.perf_counter() < deadline:
        variant = bench.next_variant()
        untraced.append(bench.run_pass(variant)[0])
        tracer.capturing = len(traced) < len(bench.variants)
        tracer.install()
        try:
            traced.append(bench.run_pass(variant)[0])
        finally:
            tracer.uninstall()
    return tracer, untraced, traced


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, mutate=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, diagnostics)."""
    cli = load_cli()
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        variants = generate(workload, seed, workdir, tiny)
        bench = Bench(cli, workload, variants, mutate)
        fresh = None if trace else measure_fresh(variants[0], workdir)
        bench.run_pass(bench.next_variant())  # warm-up, checked in full
        if trace:
            metrics, notes = per_layer(bench, *traced_passes(bench, seconds))
        else:
            passes = bench.timed(seconds, 1 if tiny else MIN_PASSES[workload])
            metrics, notes = end_to_end(bench, passes, fresh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.update(input_sets=len(variants), ops_per_pass=len(variants[0]), ok=bench.ok,
                 known_defect_failures=bench.known, failures=bench.failures[:10])
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        context = machine_context()
        result, notes = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceTreeMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context, "workload": args.workload, "seed": args.seed,
                      **notes}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
