"""Lines of each Python module by kind: code, docstring, comment, blank.

A docstring line is a line of the string that opens a module, class or
function body (`ast`). Of the other lines, a code line holds a token other
than a comment (a string that spans lines counts on every line it spans),
a comment line holds a comment and no code, and a blank line holds
neither. Stdlib only.

Run from anywhere, with files or directories (default: the package under
`src/`):

    python tests/linecount.py [path ...]
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def classify(source: str) -> dict[str, int]:
    """The number of lines of each kind in a module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n in range(1, len(source.splitlines()) + 1):
        if n in docstrings:
            counts["docstring"] += 1
        elif n in code:
            counts["code"] += 1
        elif n in comments:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [ROOT / "src" / "planecurrents"]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<40}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for f in files:
        counts = classify(f.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{os.path.relpath(f):<40}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>11}" for k in KINDS))
    print(f"{'total':<40}{sum(total.values()):>7}" + "".join(f"{total[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
