"""The code-line counter of ``tools/code_lines.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os


def f(x):
    """One-line docstring."""
    total = (x +   # a trailing comment
             1)
    text = """a string that is
    not a docstring"""
    return total, text
'''


def test_counts_code_lines_only():
    # import, def, the two-line statement, the two-line string and the return
    assert code_lines.code_lines(SOURCE) == 7


def test_blank_and_comment_only_source_has_no_code():
    assert code_lines.code_lines("\n# nothing here\n\n") == 0


def test_prints_a_count_per_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert [line.split() for line in run.stdout.splitlines()] == [
        ["a.py", "7"], ["b.py", "1"], ["total", "8"]]
