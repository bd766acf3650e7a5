"""Every function under `src/planecurrents/` is reached by a command, or is
kept on purpose.

`cli.main` runs under `sys.setprofile` over every command, on the
documents that the CI steps feed it: the gallery payloads, the
hand-written instances, the point files at the caps, the three `search`
specs (at 40 trials each), and the error documents and flags (over a cap,
irrational meets, bad flags, unreadable, malformed or too deeply nested
files, an unwritable report). The
profile records the code of every Python call. A function defined in a
module of the package that no call reached fails the test unless `KEPT`
names it, with a one-line reason; a `KEPT` name that a command reaches, or
that names no function, fails it too. Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import planecurrents
from planecurrents import cli, serialize

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


def _documents(root: Path) -> dict[str, str]:
    """The documents of the CI steps, written under `root`: name -> path."""
    from planecurrents import gallery

    docs = {}
    for name in gallery.NAMES:
        arr = gallery.build(name)
        docs[name] = serialize.current_to_payload(arr.current, arr.alpha)
    ts = [-2, -1, 0, 1, 2]
    chords = [[1, -(s + t), s * t] for s, t in zip(ts, ts[1:] + ts[:1])]
    smooth = ["0", "0", "1", "-1", "0", "0"]  # x*z = y^2
    docs["conic-chords"] = {
        "lines": [[str(c) for c in line] for line in chords],
        "conics": [smooth],
        "weights": ["1/10"] * 5 + ["1/4"],
        "alpha": "9/20",
    }
    docs["conic-tangents"] = {
        "lines": [[str(c) for c in line] for line in chords + [[0, 0, 1], [1, -4, 4]]],
        "conics": [smooth],
        "weights": ["1/20"] * 7 + ["13/40"],
        "alpha": "21/50",
    }
    docs["heavy-conic"] = {"lines": [], "conics": [["1", "0", "0", "1", "0", "-3"]], "weights": ["1/2"], "alpha": "9/20"}
    docs["heavy-line"] = {
        "lines": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
        "conics": [],
        "weights": ["1/2", "1/4", "1/4"],
        "alpha": "1/2",
    }
    docs["alpha-one"] = {"lines": [["0", "0", "1"]], "conics": [], "weights": ["1"], "alpha": "1"}
    docs["points-12"] = {
        "points": [[str(t * t), str(t), "1"] for t in range(-3, 4)]
        + [[str(t), str(t * t * t % 17 - 8), str(1 + t % 3)] for t in range(5)]
    }
    st = [(10**31 + 7 ** (30 + k), 10**31 - 3 ** (60 + k)) for k in range(7)]
    docs["points-64"] = {
        "points": [[str(s * s), str(s * t), str(t * t)] for s, t in st]
        + [[str(10**63 + pow(7, 97 * (3 * i + k) + 1, 9 * 10**63)) for k in range(3)] for i in range(5)]
    }
    docs["two-off-12"] = {
        "points": [[str(t * t), str(t), "1"] for t in range(-5, 5)] + [["1", "2", "3"], ["2", "-1", "5"]]
    }
    # the error documents: over the caps, irrational meets, two conics
    docs["long-point"] = {"points": [["1" + "0" * 64, "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    docs["over-cap"] = {
        "lines": [[str(k), "-1", "0"] for k in range(101)],
        "conics": [],
        "weights": ["1/101"] * 101,
        "alpha": "1/2",
    }
    # 100 weights of 64 characters, whose common denominator is over its cap
    docs["weights-64"] = {
        "lines": [[str(k), "-1", "0"] for k in range(100)],
        "conics": [],
        "weights": [f"1/{10**61 + k}" for k in range(100)],
    }
    docs["irrational"] = {
        "lines": [["1", "0", "0"]],
        "conics": [["1", "0", "0", "1", "0", "-3"]],
        "weights": ["1/10", "9/20"],
        "alpha": "9/20",
    }
    docs["two-conics"] = {
        "lines": [],
        "conics": [smooth, ["1", "0", "0", "1", "0", "-1"]],
        "weights": ["1/4", "1/4"],
        "alpha": "9/20",
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    paths["not-json"] = str(root / "not-json.json")
    Path(paths["not-json"]).write_text("{")
    paths["deep"] = str(root / "deep.json")
    Path(paths["deep"]).write_text("[" * 200_000 + "]" * 200_000)
    paths["missing"] = str(root / "missing.json")
    return paths


def _runs(docs: dict[str, str], out: str) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for every command on the documents."""
    runs = [(["verify-examples"], 0)]
    for name in ("six-lines", "four-lines", "quadrangle", "conic-chords", "conic-tangents",
                 "heavy-conic", "heavy-line", "alpha-one"):
        runs += [(["check", docs[name], "--out", out], 0), (["check", docs[name]], 0)]
    runs += [
        (["check", docs["three-lines"], "--out", out], 2),
        (["check", docs["seven-lines"], "--alpha", "2/5"], 2),
        (["levelset", docs["six-lines"], "--threshold", "1/3", "--out", out], 0),
        (["levelset", docs["six-lines"], "--threshold", "1/3", "--strict"], 0),
        (["lelong", docs["six-lines"], "--point", "1,1,1", "--out", out], 0),
        (["lelong", docs["six-lines"], "--point", "1,1,1"], 0),
    ]
    for degree in ("1", "2"):
        for name in ("points-12", "points-64", "two-off-12"):
            runs.append((["mj", docs[name], "--degree", degree, "--out", out], 0))
        runs.append((["mj", docs["points-12"], "--degree", degree], 0))
    searches = [
        ["--lines", "7", "--weight-scheme", "random", "--alpha", "9/20", "--alpha", "1/2", "--alpha", "3/5",
         "--seed", "5"],
        ["--lines", "6", "--conics", "1", "--seed", "5"],
        ["--lines", "5", "--alpha", "19/20", "--seed", "1"],
    ]
    runs += [(["search", "--trials", "40", *spec, "--out", out], 0) for spec in searches]
    runs.append((["search", "--trials", "3"], 0))
    errors = [
        ["search", "--trials", "1", "--alpha", "1" * 40000 + "/" + "3" * 40000],
        ["search", "--trials", "1", "--coeff-bound", str(2**62)],
        ["search", "--trials", "1", "--conics", "2"],
        ["search", "--trials", "1", "--lines", "101"],
        ["search", "--trials", "0"],
        ["mj", docs["long-point"], "--degree", "2"],
        ["mj", docs["points-12"], "--degree", "3"],
        ["check", docs["over-cap"]],
        ["check", docs["irrational"]],
        ["check", docs["two-conics"]],
        ["check", docs["missing"]],
        ["check", docs["not-json"]],
        ["check", docs["deep"]],
        ["check", docs["weights-64"], "--alpha", "1/2"],
        ["check", docs["points-12"]],
        ["check", docs["six-lines"], "--out", ""],
        ["check", docs["conic-chords"], "--alpha", "1/2/3"],
        ["levelset", docs["six-lines"], "--threshold", "0"],
        ["lelong", docs["six-lines"], "--point", "1,1"],
        ["lelong", docs["six-lines"], "--point", "0,0,0"],
        ["check"],
        ["no-such-command"],
    ]
    return runs + [(argv, 1) for argv in errors]


def test_every_function_is_reached_by_a_command_or_kept(tmp_path):
    docs = _documents(tmp_path)
    runs = _runs(docs, str(tmp_path / "report.json"))
    codes = set()
    exits = []

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # an earlier test may have built the cached parser already
    cli._shared_parser.cache_clear()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(record)
        try:
            for argv, _ in runs:
                exits.append(cli.main(argv))
        finally:
            sys.setprofile(None)
    assert exits == [code for _, code in runs]

    defined = _defined()
    reached = {defined.get((os.path.realpath(c.co_filename), c.co_firstlineno)) for c in codes}
    unreached = set(defined.values()) - reached
    assert sorted(unreached - set(KEPT)) == [], "no command reaches these functions; delete them or keep them in KEPT"
    assert sorted(set(KEPT) - unreached) == [], "these KEPT names are reached, or are no function"
