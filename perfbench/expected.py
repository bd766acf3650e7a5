"""Writes search_expected.txt: the valid, covered and not_coverable counts
of the `search` workload's report for each `--seed` of its pool.

    python3 perfbench/expected.py > perfbench/search_expected.txt

The `search` workload fails any report whose counts differ from this
table, so a change that makes more draws fail the precondition, or skips
them, cannot pass as faster. Regenerate the table only in a change that
alters the generated instances or the report on purpose.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from planecurrents import cli  # noqa: E402
from workloads import Search  # noqa: E402

POOL = 4096  # about ten times the seeds a 20 s run at the seed code uses


def main() -> int:
    print(f"# search {' '.join(Search.SPEC)} --trials {Search.TRIALS}")
    print("# line k (after these comments) is --seed k: valid covered not_coverable")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "search.json")
        for cli_seed in range(POOL):
            with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
                code = cli.main(Search.argv(cli_seed, out))
            with open(out) as handle:
                report = json.load(handle)
            if code != 0 or report["counterexamples"]:
                raise SystemExit(f"--seed {cli_seed}: exit code {code}")
            print(report["valid"], report["covered"], report["not_coverable"], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
