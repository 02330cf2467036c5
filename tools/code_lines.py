"""Count the code lines of each module of src/tpursuit, and their total.

A code line is a non-blank line that is not a comment or a docstring. The
count tokenizes each file: a line counts when a token other than a
comment, a line break, an indent or a docstring lies on it. A docstring
here is a string that forms a statement of its own, such as the first
statement of a module, class or function, or a string after an assignment
documenting it.

Run from the repository root:

    python tools/code_lines.py [DIR]

DIR defaults to src/tpursuit next to this script. It prints one line per
module and a total, and always exits 0.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# comments and blank-line breaks are dropped before statements are read
SKIPPED = {tokenize.COMMENT, tokenize.NL}
BOUNDARY = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in SKIPPED]
    lines = set()
    # ENCODING comes first and ENDMARKER last, so every other token has both neighbours
    for prev, tok, nxt in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (tok.type == tokenize.STRING and prev.type in BOUNDARY
                     and nxt.type in BOUNDARY)
        if tok.type not in BOUNDARY and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src/tpursuit"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
