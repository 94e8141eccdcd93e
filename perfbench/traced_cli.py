"""``python -m logsine`` with every layer traced.

Usage: python -X importtime perfbench/traced_cli.py <logsine arguments>

Stdout carries exactly what ``python -m logsine`` prints for the same
arguments, and the exit code is the same.  The trace summary goes to
stderr as the last line, after the ``-X importtime`` report, prefixed by
``MARKER``.
"""

from __future__ import annotations

import json
import runpy
import sys

MARKER = "perfbench-trace "


def main() -> int:
    args = sys.argv[1:]
    import logsine.cli  # noqa: F401  (the tracer wraps what is imported)

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    sys.argv = ["logsine", *args]
    code = 0
    with tracer.measure():
        try:
            runpy.run_module("logsine", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    sys.stderr.write(MARKER + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
