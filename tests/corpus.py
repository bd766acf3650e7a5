"""The documents and command runs that the whole-command tests share.

`documents(root)` writes every document under `root`, and `runs(docs, out)`
is every command on them with its expected exit code. `test_reach.py` runs
them under a profiler. `test_hash_seed.py` runs `python tests/corpus.py`,
which records every run into the working directory, under two hash seeds.
Stdlib and `planecurrents` only.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from planecurrents import cli, serialize

POINT_FILES = ("points-12", "points-64", "two-off-12", "two-off-64")


def documents(root: Path) -> dict[str, str]:
    """Every document, written under `root`: name -> path."""
    from planecurrents import gallery

    docs = {}
    for name in gallery.NAMES:
        arr = gallery.build(name)
        docs[name] = serialize.current_to_payload(arr.current, arr.alpha)
    ts = [-2, -1, 0, 1, 2]
    chords = [[1, -(s + t), s * t] for s, t in zip(ts, ts[1:] + ts[:1])]
    smooth = ["0", "0", "1", "-1", "0", "0"]  # x*z = y^2
    # the conic and five chords through its points (t^2 : t : 1): line-conic meets
    docs["conic-chords"] = {
        "lines": [[str(c) for c in line] for line in chords],
        "conics": [smooth],
        "weights": ["1/10"] * 5 + ["1/4"],
        "alpha": "9/20",
    }
    # with the tangents z = 0 at (1:0:0) and x - 4y + 4z = 0 at (4:2:1): pairs with one meet
    docs["conic-tangents"] = {
        "lines": [[str(c) for c in line] for line in chords + [[0, 0, 1], [1, -4, 4]]],
        "conics": [smooth],
        "weights": ["1/20"] * 7 + ["13/40"],
        "alpha": "21/50",
    }
    # heavy components: x^2 + y^2 = 3z^2, which has no rational point, and a line at alpha
    docs["heavy-conic"] = {"lines": [], "conics": [["1", "0", "0", "1", "0", "-3"]], "weights": ["1/2"], "alpha": "9/20"}
    docs["heavy-line"] = {
        "lines": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
        "conics": [],
        "weights": ["1/2", "1/4", "1/4"],
        "alpha": "1/2",
    }
    # alpha = 1: beta = 0, and the strict level set at 0 is the line alone
    docs["alpha-one"] = {"lines": [["0", "0", "1"]], "conics": [], "weights": ["1"], "alpha": "1"}
    # 12 points, the points-file cap, at 1 and at 64 digits, the coordinate cap: seven on
    # x*z = y^2 and five more, or ten on it and two off it
    docs["points-12"] = {
        "points": [[str(t * t), str(t), "1"] for t in range(-3, 4)]
        + [[str(t), str(t * t * t % 17 - 8), str(1 + t % 3)] for t in range(5)]
    }
    wide = [[str(10**63 + pow(7, 97 * (3 * i + k) + 1, 9 * 10**63)) for k in range(3)] for i in range(5)]
    st = [(10**31 + 7 ** (30 + k), 10**31 - 3 ** (60 + k)) for k in range(7)]
    docs["points-64"] = {"points": [[str(s * s), str(s * t), str(t * t)] for s, t in st] + wide}
    docs["two-off-12"] = {
        "points": [[str(t * t), str(t), "1"] for t in range(-5, 5)] + [["1", "2", "3"], ["2", "-1", "5"]]
    }
    st = [(10**31 + 7 ** (25 + k), 10**31 - 3 ** (50 + k)) for k in range(10)]
    docs["two-off-64"] = {"points": [[str(s * s), str(s * t), str(t * t)] for s, t in st] + wide[:2]}
    # the same points in reverse order: `mj` reads them as a set
    for name in POINT_FILES:
        docs[f"{name}-reversed"] = {"points": docs[name]["points"][::-1]}
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
    # mass 3/4 and the same irrational meets: the mass fails before any meet is taken
    docs["light-irrational"] = {
        "lines": [["1", "0", "0"]],
        "conics": [["1", "0", "0", "1", "0", "-3"]],
        "weights": ["1/4", "1/4"],
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
        Path(paths[name]).write_text(serialize.dumps(doc))
    paths["not-json"] = str(root / "not-json.json")
    Path(paths["not-json"]).write_text("{")
    paths["deep"] = str(root / "deep.json")
    Path(paths["deep"]).write_text("[" * 200_000 + "]" * 200_000)
    paths["missing"] = str(root / "missing.json")
    return paths


def runs(docs: dict[str, str], out: str) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for every command on the documents."""
    runs = [(["verify-examples"], 0)]
    for name in ("six-lines", "four-lines", "quadrangle", "conic-chords", "conic-tangents",
                 "heavy-conic", "heavy-line", "alpha-one"):
        runs += [(["check", docs[name], "--out", out], 0), (["check", docs[name]], 0)]
    runs += [
        (["check", docs["three-lines"], "--out", out], 2),
        (["check", docs["seven-lines"], "--alpha", "2/5"], 2),
        (["check", docs["light-irrational"], "--alpha", "1/2", "--out", out], 2),
        (["levelset", docs["six-lines"], "--threshold", "1/3", "--out", out], 0),
        (["levelset", docs["six-lines"], "--threshold", "1/3", "--strict"], 0),
        (["lelong", docs["six-lines"], "--point", "1,1,1", "--out", out], 0),
        (["lelong", docs["six-lines"], "--point", "1,1,1"], 0),
    ]
    for degree in ("1", "2"):
        for name in POINT_FILES:
            for doc in (name, f"{name}-reversed"):
                runs.append((["mj", docs[doc], "--degree", degree, "--out", out], 0))
        runs.append((["mj", docs["points-12"], "--degree", degree], 0))
    searches = [
        ["--trials", "200", "--lines", "7", "--weight-scheme", "random",
         "--alpha", "9/20", "--alpha", "1/2", "--alpha", "3/5", "--seed", "5"],
        # one conic: every draw takes the line-conic branch of the incidence map,
        # and at alpha 9/20 some are valid (at the default 1/2 none of these 200)
        ["--trials", "200", "--lines", "6", "--conics", "1", "--alpha", "9/20", "--seed", "5"],
        # four lines: some covered draws omit a point
        ["--trials", "200", "--lines", "4", "--alpha", "9/20", "--seed", "1"],
        # alpha above 9/10: the heavy-line draws must reach alpha and be valid
        ["--trials", "60", "--lines", "5", "--alpha", "19/20", "--seed", "1"],
    ]
    runs += [(["search", *spec, "--out", out], 0) for spec in searches]
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
        # 71 characters, over the cap of a document's alpha
        ["check", docs["heavy-line"], "--alpha", f"{10**34}/{2 * 10**34 + 1}"],
        ["levelset", docs["six-lines"], "--threshold", "0"],
        ["lelong", docs["six-lines"], "--point", "1,1"],
        ["lelong", docs["six-lines"], "--point", "0,0,0"],
        ["check"],
        ["no-such-command"],
    ]
    return runs + [(argv, 1) for argv in errors]


def call(argv: list[str]) -> tuple[int, str, str]:
    """`cli.main(argv)` in this process: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def record() -> None:
    """Write the documents under `corpus/` and, for the k-th run,
    `runs/k.json` (argv, exit code, stdout, and stderr unless a timed
    `search` wrote it) and `runs/k.report.json` if it wrote a report. The
    paths are relative, so an error line that names one reads the same in
    any working directory."""
    root, saved = Path("corpus"), Path("runs")
    root.mkdir()
    saved.mkdir()
    out = root / "report.json"
    for k, (argv, _) in enumerate(runs(documents(root), str(out))):
        code, stdout, stderr = call(argv)
        timed = argv[0] == "search" and code != cli.EXIT_ERROR
        run = {"argv": argv, "exit": code, "stdout": stdout, "stderr": None if timed else stderr}
        (saved / f"{k:03d}.json").write_text(json.dumps(run))
        if out.exists():
            out.rename(saved / f"{k:03d}.report.json")


if __name__ == "__main__":
    record()
