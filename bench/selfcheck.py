"""Tiny-scale self-check of the benchmark itself.

    python3 bench/selfcheck.py

For every workload, on tiny inputs and short runs:

* an untraced and a traced run report every metric ``BENCHMARK.json``
  names, with its unit, and count no failure;
* an output corrupted on its first, fully checked run, and another
  corrupted on a later run, where only its bytes are compared, are each
  counted as failed and make the run incorrect.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def corrupt_on(occurrence: int):
    """A mutate hook that halves the output of op 0 of set 0 on its n-th run."""
    runs = []

    def mutate(variant, index, op):
        if (variant, index) != (0, 0):
            return
        runs.append(index)
        if len(runs) == occurrence:
            with open(op.output, "r+", encoding="utf-8") as fh:
                text = fh.read()
                fh.seek(0)
                fh.truncate()
                fh.write(text[: len(text) // 2])

    mutate.runs = runs
    return mutate


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, notes = run.run_benchmark(workload, seed=7, seconds=0.2, trace=trace, tiny=True)
            got = result["metrics"]
            for metric in names:
                entry = got.get(metric["name"])
                if entry is None or entry["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: {metric['name']} missing or mis-unitted")
            extra = set(got) - {m["name"] for m in names}
            if extra:
                problems.append(f"{workload} trace={int(trace)}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: unexpected failures {notes['failures']}")
        for occurrence in (1, 2):
            mutate = corrupt_on(occurrence)
            result, _ = run.run_benchmark(workload, seed=7, seconds=2.0, trace=True, tiny=True,
                                          mutate=mutate)
            if len(mutate.runs) < occurrence:
                problems.append(f"{workload}: op 0 ran {len(mutate.runs)} times, too few to corrupt")
            elif result["failed"] != 1 or result["correct"]:
                problems.append(f"{workload}: output corrupted on run {occurrence} gave "
                                f"failed={result['failed']} correct={result['correct']}")
        print(f"{workload}: checked", flush=True)
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
