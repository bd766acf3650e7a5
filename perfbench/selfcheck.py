"""Quick check of the benchmark itself, at tiny sizes:

    python3 perfbench/selfcheck.py

For every workload: an untraced run reports exactly the end-to-end metrics
of BENCHMARK.json with no failed operation, and two traced runs with one
seed report exactly the per-layer metrics with identical counts. Exits 1
and lists the problems otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
from workloads import Check, Points, Search

Search.CALLS = 3
Check.PER_KIND = 1
Points.SIZES = (7, 8)
Points.PER_KIND = 1


def result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                         "--trace", str(trace)])
    if code != 0:
        raise SystemExit(f"{workload} trace={trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in ("search", "check", "points"):
        plain = result(workload, 0)
        first, second = result(workload, 1), result(workload, 1)
        for name, res in (("untraced", plain), ("traced", first), ("traced again", second)):
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{workload} {name}: {res['failed']} of {res['attempted']} failed")
        for name, res, kind in (("untraced", plain, "end_to_end"), ("traced", first, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} {name}: metrics differ from BENCHMARK.json "
                                f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r in (first, second)]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: per-layer counts differ between two traced runs: {diff}")
        if any(v["value"] <= 0 for v in plain["metrics"].values()):
            problems.append(f"{workload}: an end-to-end metric is not positive")
    for problem in problems:
        print(problem)
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
