"""Print digests of the ``vankamg`` command line's output.

Each invocation runs ``vankamg.cli.main`` in this process with stdout and
stderr captured, and prints one line: the sha256 of stdout, the sha256 of
stderr, the exit status and the arguments.  A change that promises
byte-identical output diffs this tool's output on the two source trees.

Run from the repository root::

    PYTHONPATH=src python tools/cli_digest.py [INVOCATION ...]

Each ``INVOCATION`` is one quoted argument list, such as ``"table2"`` or
``"scan-omega --kind jacobi --dim 3"``; without any, ``DEFAULT_INVOCATIONS``
run.  Point ``PYTHONPATH`` at another tree's ``src`` to digest that tree.
Only the standard library and the package are used.

Run as a script, it sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
to 1 before numpy is imported: BLAS products, and with them the bytes of
some ``solve`` runs, depend on the thread count, so digests taken with the
library's default threads would depend on the caller's environment.
"""

from __future__ import annotations

import hashlib
import io
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

if __name__ == "__main__":   # before ``vankamg`` imports numpy
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

from vankamg import cli  # noqa: E402

DEFAULT_INVOCATIONS = [
    "table1",
    "table2",
    "eigfield --kind mass --nu 2",
    "eigfield --kind vanka-e --nu 1",
    "eigfield --kind vanka-v --samples 8 --nu 3",
    "eigfield --kind mass --samples 4 --nu 400",
    "scan-omega --kind vanka-v --nu 1",
    "scan-omega --kind vanka-e --dim 2 --nu 2",
    "scan-omega --kind mass3d --dim 3 --nu 1",
    "scan-omega --kind jacobi --dim 3 --nu 3",
    "solve --kind vanka-e --h 1/32",
    "solve --kind vanka-e --h 1/256 --cycle v-cycle --cycles 5",
    "solve --kind vanka-v --dim 1 --h 1/128",
    "solve --kind mass3d --dim 3 --h 1/64 --cycle v-cycle --cycles 5",
    "solve --kind mass3d --dim 3 --h 1/64 --cycles 5",
    "solve --kind jacobi --dim 1 --h 1/1024 --cycles 5",
    "table1 --format csv",
    "table2 --format csv",
    "scan-omega --kind vanka-v --nu 1 --format csv",
    "solve --kind mass3d --dim 3 --h 1/64 --cycle v-cycle --cycles 5 --format csv",
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv: list) -> str:
    """``sha256(stdout) sha256(stderr) status argv`` of one ``cli.main(argv)`` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return f"{_sha256(out.getvalue())} {_sha256(err.getvalue())} {status} {shlex.join(argv)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for invocation in argv or DEFAULT_INVOCATIONS:
        print(digest(shlex.split(invocation)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
