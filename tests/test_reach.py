"""Every function under `src/planecurrents/` is reached by a command, or is
kept on purpose.

`cli.main` runs under `sys.setprofile` over every command of
`tests/corpus.py`: the gallery payloads, the hand-written instances, the
point files at the caps, four `search` specs, and the error documents and
flags (over a cap, irrational meets, bad flags, unreadable, malformed or
too deeply nested files, an unwritable report). The profile records the
code of every Python call. A function defined in a module of the package
that no call reached fails the test unless `KEPT` names it, with a
one-line reason; a `KEPT` name that a command reaches, or that names no
function, fails it too. Stdlib only.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import planecurrents
from planecurrents import cli

import corpus

PACKAGE = Path(planecurrents.__file__).resolve().parent

# the six span targets of the benchmark: `perfbench/spans.py` resolves each
# with `getattr` when a run is traced, so they stay until the benchmark
# drops their spans
_SPAN = "a benchmark span target, looked up by name"
KEPT = {
    "linalg.rank": _SPAN,
    "linalg.nullspace": _SPAN,
    "projective.on_common_curve": _SPAN,
    "projective.intersect_curves": _SPAN,
    "currents.DivisorCurrent.support_intersections": _SPAN,
    "cover.line_cover_check": _SPAN,
    "linalg.scaled_row": "the constructors with rational entries, which no command calls",
    "projective._Homogeneous._rational": "`coords` and `coeffs`, the rational form for library users",
    "projective._Homogeneous.__setattr__": "setter guard",
    "currents.DivisorCurrent.__setattr__": "setter guard",
    "currents.DivisorCurrent.__eq__": "value semantics of a current for library users",
    "currents.DivisorCurrent.__hash__": "value semantics of a current for library users",
    "currents.DivisorCurrent.__repr__": "repr of a current for library users",
    "currents.LevelSet.__repr__": "repr of a level set for library users",
    "__init__.__getattr__": "loads `harness` for `planecurrents.run_suite` and its kin on first use",
    "cli.entry": "the console script, which calls `main` and exits",
    "gallery._each": "builds the gallery table when `gallery` is imported, before any command runs",
}


def _defined() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> "module.qualified.name" for
    every function defined in the package; a decorated function's code
    starts at its first decorator."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[str(path), first] = f"{prefix}.{child.name}"
                    visit(child, f"{prefix}.{child.name}")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")

        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_every_function_is_reached_by_a_command_or_kept(tmp_path):
    runs = corpus.runs(corpus.documents(tmp_path), str(tmp_path / "report.json"))
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # an earlier test may have built the cached parser already
    cli._shared_parser.cache_clear()
    sys.setprofile(record)
    try:
        exits = [corpus.call(argv)[0] for argv, _ in runs]
    finally:
        sys.setprofile(None)
    assert exits == [code for _, code in runs]

    defined = _defined()
    reached = {defined.get((os.path.realpath(c.co_filename), c.co_firstlineno)) for c in codes}
    unreached = set(defined.values()) - reached
    assert sorted(unreached - set(KEPT)) == [], "no command reaches these functions; delete them or keep them in KEPT"
    assert sorted(set(KEPT) - unreached) == [], "these KEPT names are reached, or are no function"
