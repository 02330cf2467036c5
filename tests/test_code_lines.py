"""The code-line counter in tools/: comments, blank lines and docstrings do not count."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import math  # a trailing comment

LIMIT = 3
"""An attribute docstring."""


class Box:
    """A class docstring."""

    def area(self):
        """A method docstring."""

        text = """a string
        that is code"""
        return math.pi * len(text)
'''


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    # import, LIMIT, class, def, the two lines of text, return
    assert out[:3] == [f"{'empty.py':<16} {0:>5}", f"{'sample.py':<16} {7:>5}",
                       f"{'total':<16} {7:>5}"]
