"""Check that two checkouts print byte-identical CLI output.

Runs ``python -m logsine`` from each checkout's ``src/`` over:

- every subcommand and format at --n-max 12, and every verify suite;
- the numeric subcommands again at ``--tolerance 1e-3``, where the
  working-precision floors set the precision;
- ``zeta --n-max 30``, the s range the benchmark covers;
- the envelope edge ``verify --n-max 13`` (exit 3), and
  ``verify --suite contour --n-max 13`` in JSON and CSV (exit 3, no output);
- commands with no records to print (``zeta --n-max 1`` in every format,
  ``verify --suite recurrence --n-max 1 --format csv``), where CSV output
  is its header alone, and ``bernoulli --n-max 0 --format csv``, whose one
  record is B_0;
- five usage errors (exit 2, no output): a zero, infinite and NaN
  ``--tolerance``, ``--format xml`` and ``verify --n-max -1``.

It compares stdout and exit code, prints one line per command and exits 1
on any difference.

Usage: python scripts/cli_diff.py OLD_CHECKOUT NEW_CHECKOUT
"""

from __future__ import annotations

import os
import subprocess
import sys

FORMATS = ("plain", "json", "csv")
SUITES = ("recurrence", "contour", "identities", "fourier", "all")


def commands() -> list[list[str]]:
    out = []
    for fmt in FORMATS:
        for sub in ("bernoulli", "zeta", "logsine"):
            out.append([sub, "--n-max", "12", "--format", fmt])
        for suite in SUITES:
            out.append(["verify", "--n-max", "12", "--suite", suite, "--format", fmt])
    for sub in ("zeta", "logsine", "verify"):
        out.append([sub, "--n-max", "12", "--tolerance", "1e-3"])
    out.append(["zeta", "--n-max", "30"])
    out.append(["verify", "--n-max", "13"])
    for fmt in ("json", "csv"):
        out.append(["verify", "--suite", "contour", "--n-max", "13", "--format", fmt])
    for fmt in FORMATS:
        out.append(["zeta", "--n-max", "1", "--format", fmt])
    out.append(["verify", "--suite", "recurrence", "--n-max", "1", "--format", "csv"])
    out.append(["bernoulli", "--n-max", "0", "--format", "csv"])
    for bad in ("0", "inf", "nan"):
        out.append(["zeta", "--n-max", "3", "--tolerance", bad])
    out.append(["bernoulli", "--format", "xml"])
    out.append(["verify", "--n-max", "-1"])
    return out


def run(checkout: str, argv: list[str]) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "logsine", *argv], env=env, capture_output=True
    )
    return proc.returncode, proc.stdout


def main(old: str, new: str) -> int:
    differ = 0
    for argv in commands():
        a, b = run(old, argv), run(new, argv)
        same = a == b
        differ += not same
        print(f"{'same' if same else 'DIFFERENT':9} exit {a[0]}/{b[0]}  {' '.join(argv)}")
    print(f"{differ} of {len(commands())} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
