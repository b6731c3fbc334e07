"""Time a fresh interpreter through its first CLI invocation.

    python3 bench/fresh.py SRC_DIR OPS_JSON {first|pass}

Imports ``mzsim.cli`` from SRC_DIR, runs the first argv listed in OPS_JSON
and prints ``first <perf_counter>`` at once; the parent process started its
own clock just before spawning this one (both read CLOCK_MONOTONIC).  With
``pass`` it then runs the remaining argvs, without checks, and prints
``maxrss_kb <peak resident set>`` so the workload's memory is measured in
a process of its own.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    src, ops_path, mode = sys.argv[1:4]
    sys.path.insert(0, src)
    from mzsim import cli

    from invoke import call_cli

    with open(ops_path, encoding="utf-8") as fh:
        argvs = json.load(fh)
    call_cli(cli.main, argvs[0])
    print(f"first {time.perf_counter()!r}", flush=True)
    if mode == "pass":
        for argv in argvs[1:]:
            call_cli(cli.main, argv)
        print(f"maxrss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
