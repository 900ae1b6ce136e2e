"""Print a digest of the CLI's output on a fixed list of command lines.

Each command line runs as its own `python -m ssqp` process against the
`src/` of a checkout: the one given, or else the one this script sits in.
One line is printed per process: the SHA-256 of its stdout followed by
its stderr, its exit code and its arguments.  A refactor that keeps the
CLI's output byte for byte prints the same lines for both checkouts:

    python tools/cli_digest.py > after.txt
    python tools/cli_digest.py path/to/parent-checkout > before.txt
    diff before.txt after.txt

The list covers every solve path: eigencontrol with its declared
projector at n = 49 and 1000, the computed sparse projector, the trivial
branch, a singular subproblem (exit 3, with a condition estimate), the
sweep and diagnose commands, a cone and the degenerate line from a
random start.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS is
set, so the rounding is that of the tier-1 tests.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

EIGEN = ["solve", "--benchmark", "eigencontrol-n49", "--output", "json"]

#: the argument lists, one process each
COMMANDS = [
    EIGEN,
    EIGEN + ["--n", "1000"],
    EIGEN + ["--n", "200", "--u-d-amp", "0.1"],
    EIGEN + ["--n", "200", "--q-d", "-9.0"],
    EIGEN + ["--n", "300", "--rho-rule", "fixed", "--rho", "0", "--tol", "1e-14"],
    ["sweep", "--benchmark", "eigencontrol-n49", "--sweep", "n", "--grid", "150,200,250"],
    ["diagnose", "--benchmark", "eigencontrol-n49", "--n", "200", "--seed", "3"],
    ["solve", "--benchmark", "cone-active", "--output", "json"],
    ["solve", "--benchmark", "degenerate-line", "--start-offset", "random", "--seed", "4"],
]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: cli_digest.py [CHECKOUT]", file=sys.stderr)
        return 2
    root = Path(args[0]) if args else Path(__file__).resolve().parents[1]
    src = root.resolve() / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "ssqp", *command], env=env,
                              capture_output=True)
        digest = hashlib.sha256(done.stdout + done.stderr).hexdigest()
        print(f"{digest}  {done.returncode}  {' '.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
