"""One CLI invocation, in-process, with its exit code and captured streams.

Shared by the benchmark loop (``run.py``) and the fresh-process probe
(``fresh.py``), so both call ``mzsim.cli.main`` the same way.
"""

from __future__ import annotations

import contextlib
import io
import traceback


def call_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Run ``main(argv)`` as a shell would see it: (exit code, stdout, stderr).

    argparse usage errors arrive as SystemExit; an uncaught exception is
    what the interpreter would report as exit 1 with a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI contract forbids tracebacks; record one as exit 1
            traceback.print_exc()
            code = 1
    return int(code), out.getvalue(), err.getvalue()
