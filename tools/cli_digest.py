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
"""

from __future__ import annotations

import hashlib
import io
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout

from vankamg import cli

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
    "solve --kind mass3d --dim 3 --h 1/64 --cycle v-cycle --cycles 5",
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
