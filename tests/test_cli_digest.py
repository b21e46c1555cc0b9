"""The command-line output digests of ``tools/cli_digest.py``."""

import hashlib
import importlib.util
from pathlib import Path

from vankamg.cli import main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)

INVOCATIONS = ["table1", "scan-omega --kind vanka-v --dim 2 --samples 8 --step 0.5"]


def test_prints_one_line_per_invocation_and_equal_digests_on_a_rerun(capsys):
    # the command line promises the same output for the same flags
    outputs = []
    for _ in range(2):
        assert cli_digest.main(INVOCATIONS) == 0
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert len(lines) == len(INVOCATIONS)
    assert [line.split(maxsplit=3)[3] for line in lines] == INVOCATIONS
    assert outputs[1] == outputs[0]


def test_digests_the_streams_and_status_of_the_command_line(capsys):
    argv = ["scan-omega", "--kind", "jacobi", "--step", "-1"]       # a usage error
    code = main(argv)
    captured = capsys.readouterr()
    out, err = (hashlib.sha256(text.encode()).hexdigest() for text in (captured.out, captured.err))
    assert code == 2
    assert cli_digest.digest(argv) == f"{out} {err} 2 scan-omega --kind jacobi --step -1"


def test_default_list_runs_cleanly(capsys):
    assert cli_digest.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(maxsplit=3)[2:] for line in lines] == [
        ["0", invocation] for invocation in cli_digest.DEFAULT_INVOCATIONS]
