"""Reports do not depend on the hash seed.

Two interpreters, under PYTHONHASHSEED=0 and PYTHONHASHSEED=1, each run
every command of `tests/corpus.py` in-process (`corpus.record`), in
directories of their own under the same relative names, so the error lines
that name a path match. The trees they write must be byte-identical: the
documents, every report, and every stdout and stderr but that of a `search`
that ran, which holds its run time. `hash((1, 2, 3))` is the same under both
seeds, so a set of points or curves, whose hash is `hash(self.ints)`, cannot
change order between them; only `str` and `bytes` hashes can, such as those
of the gallery's labels.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import planecurrents
from planecurrents import gallery

import corpus


def _record(where: Path, seed: int) -> dict[str, bytes]:
    """Every file that `corpus.record` writes in `where`: name -> bytes."""
    where.mkdir()
    # the package the tests import, also when it is a mutated copy
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(Path(planecurrents.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, corpus.__file__], cwd=where, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return {p.relative_to(where).as_posix(): p.read_bytes() for p in sorted(where.rglob("*")) if p.is_file()}


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    tree, other = _record(tmp_path / "0", 0), _record(tmp_path / "1", 1)
    assert sorted(name for name in tree.keys() | other.keys() if tree.get(name) != other.get(name)) == []

    reports = {}
    for name in [n for n in tree if n.endswith(".report.json")] + [f"corpus/{n}.json" for n in gallery.NAMES]:
        # every report, and every gallery payload, is what the stdlib encoder writes
        text = tree[name].decode()
        document = json.loads(text)
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n", name
        if name.startswith("runs/"):
            # by the argv that wrote it, without its --out
            reports[tuple(json.loads(tree[name.replace(".report", "")])["argv"][:-2])] = document

    for name in ("conic-tangents", "quadrangle", "alpha-one"):
        assert reports["check", f"corpus/{name}.json"]["verified"] is True
    # the quadrangle's conic leaves out one of its six level-set points
    assert reports["check", "corpus/quadrangle.json"]["verdict"]["omitted"] is not None
    assert [report["valid"] > 0 for argv, report in reports.items() if "19/20" in argv] == [True]
    # a search decides draws with a conic component, and one decides draws that omit a point
    assert [report["valid"] > 0 for argv, report in reports.items() if "--conics" in argv] == [True]
    four = ("search", "--trials", "200", "--lines", "4")
    assert [r["omitted_histogram"].get("1", 0) > 0 for argv, r in reports.items() if argv[:5] == four] == [True]
    for name in corpus.POINT_FILES:
        for degree in ("1", "2"):
            mj = reports["mj", f"corpus/{name}.json", "--degree", degree]
            assert reports["mj", f"corpus/{name}-reversed.json", "--degree", degree] == mj
        if name.startswith("two-off"):
            assert mj["max_on_curve"] == 10
