"""Mutation catalogue: one-line mutants of `src/` that named tests must kill.

Each entry names a file under `src/planecurrents/`, an anchor text that must
occur in it exactly once, the text that replaces it, and the pytest node ids
that must fail on the mutant. For each entry the runner copies `src/` to a
temporary directory, applies the mutant there and runs `pytest -x` on the
named tests with the copy on `PYTHONPATH`. A mutant is killed only when
pytest reports failed tests (exit code 1); a survivor, a missing or repeated
anchor, a copy that is not the one imported, or any other pytest exit fails
the catalogue. Stdlib only.

Run from anywhere, optionally with entry names to run a subset:

    python tests/mutants.py [name ...]

Equivalent mutants are left out, each with the reason:
- `>=` in place of `==` in `cover._minimal_obstruction`'s covering test:
  the vectors left are zero at the column dropped and at every column
  dropped before, so at most `len(keep) - 1` columns are nonzero in them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/planecurrents/
    anchor: str
    replacement: str
    tests: tuple[str, ...]  # node ids, relative to the repository root


CATALOGUE = (
    # the point-set shortcuts of the elimination
    Mutant(
        "pruning-stops-at-two-dependencies",
        "cover.py",
        "if len(deps) == 1:",
        "if len(deps) == 2:",
        ("tests/test_cover.py::test_pruning_keeps_the_dependencies_exact",),
    ),
    Mutant(
        "omission-continued-one-pivot-too-far",
        "cover.py",
        "rest = echelon[:k]",
        "rest = echelon[: k + 1]",
        ("tests/test_cover.py::test_verify_verdict_matches_the_rank_oracle",),
    ),
    Mutant(
        "read-off-skipped-at-full-rank",
        "projective.py",
        "return basis, linalg.read_off(echelon, n)",
        "return basis, []",
        (
            "tests/test_cover.py::test_omission_single_coloop_not_first",
            "tests/test_projective.py::test_max_on_curve_matches_oracles_up_to_the_cap",
        ),
    ),
    Mutant(
        "max-on-curve-all-on-a-conic-at-rank-six",
        "projective.py",
        "if len(echelon) < ncols:",
        "if len(echelon) <= ncols:",
        ("tests/test_cover.py::test_conic_cover_pure_points_matches_m2_rule",),
    ),
    # the meets of the incidence map
    Mutant(
        "incidence-later-line-re-adds-its-pairs",
        "currents.py",
        "elif e[2] == i:",
        "else:",
        ("tests/test_currents.py::test_concurrent_lines_share_one_map_entry",),
    ),
    Mutant(
        "line-conic-meet-dropped",
        "projective.py",
        "roots = [(2 * a, -b + root), (2 * a, -b - root)]",
        "roots = [(2 * a, -b + root)]",
        ("tests/test_projective.py::test_intersect_line_conic_matches_oracle",),
    ),
    Mutant(
        "heaviest-weight-filed-as-density",
        "currents.py",
        "summary = {key: (density, top) for key, (density, top, _) in entries.items()}",
        "summary = {key: (top, top) for key, (density, top, _) in entries.items()}",
        ("tests/test_currents.py::test_incidence_map_matches_the_oracle",),
    ),
    Mutant(
        "join-sign-not-normalised",
        "projective.py",
        "if (x or y or z) < 0:",
        "if False:",
        ("tests/test_projective.py::test_join_is_the_primitive_cross_product",),
    ),
    # a gallery fact that must be able to fail
    Mutant(
        "gallery-omits-one-check-always-true",
        "gallery.py",
        "ok = ok and verdict.omitted == at(args[2])[0]",
        "ok = ok and True",
        ("tests/test_gallery.py::test_omits_one_fact_fails_on_a_wrong_label",),
    ),
    # a set order in the output: the order of a set of labels follows their str hashes
    Mutant(
        "gallery-labels-in-set-order",
        "gallery.py",
        "for label in sorted(arr.points):",
        "for label in set(arr.points):",
        ("tests/test_hash_seed.py", "tests/test_report_digests.py::test_verify_examples_stdout"),
    ),
    # verdicts, thresholds, exact arithmetic and report writing
    Mutant(
        "omission-is-the-last-coloop",
        "cover.py",
        "omitted = found[-1]",
        "omitted = found[0]",
        ("tests/test_cover.py::test_omission_every_point_a_coloop",),
    ),
    Mutant(
        "beta-off-by-a-millionth",
        "cover.py",
        "return Fraction(2, 3) * (1 - a)",
        "return Fraction(2, 3) * (1 - a) + Fraction(1, 10**6)",
        ("tests/test_cover.py::test_beta_of",),
    ),
    Mutant(
        "kernel-vectors-not-primitive",
        "linalg.py",
        "basis.append([x // g for x in vec])",
        "basis.append(vec)",
        ("tests/test_linalg.py::test_kernel_is_the_primitive_reference_nullspace",),
    ),
    Mutant(
        "negative-weight-accepted",
        "currents.py",
        "if w.numerator < 0:",
        "if w.numerator < -1:",
        ("tests/test_currents.py::test_component_normalization",),
    ),
    Mutant(
        "hypothesis-at-three-points",
        "cover.py",
        "find_heavy_points(current, a)) < 4 and",
        "find_heavy_points(current, a)) < 3 and",
        ("tests/test_cover.py::test_cover_instance_validation",),
    ),
    Mutant(
        "max-on-conic-five-at-nine-points",
        "projective.py",
        "if n <= 8:",
        "if n <= 9:",
        ("tests/test_projective.py::test_max_on_curve_matches_oracles_up_to_the_cap",),
    ),
    Mutant(
        "point-cap-at-thirteen",
        "serialize.py",
        "MAX_POINTS = 12",
        "MAX_POINTS = 13",
        ("tests/test_cover.py::test_omission_at_the_point_cap",),
    ),
    Mutant(
        "overflow-curve-at-the-budget",
        "cover.py",
        "if used > budget:",
        "if used >= budget:",
        ("tests/test_cover.py::test_conic_cover_degree_overflow",),
    ),
    Mutant(
        "pruning-from-the-first-column",
        "cover.py",
        "for i in reversed(range(n)):",
        "for i in range(n):",
        ("tests/test_cover.py::test_obstructions_are_the_canonical_pruning",),
    ),
    Mutant(
        "kernel-sign-not-normalised",
        "linalg.py",
        "g = gcd(*vec) if d > 0 else -gcd(*vec)",
        "g = gcd(*vec)",
        ("tests/test_linalg.py::test_kernel_is_the_primitive_reference_nullspace",),
    ),
    Mutant(
        "tangent-meet-counted-twice",
        "projective.py",
        "return list(dict.fromkeys(_primitive([s * x + r * y for x, y in zip(u, v)]) for s, r in roots))",
        "return [_primitive([s * x + r * y for x, y in zip(u, v)]) for s, r in roots]",
        ("tests/test_currents.py::test_incidence_map_matches_the_oracle_at_tangents",),
    ),
    Mutant(
        "summary-printed-also-without-out",
        "cli.py",
        "sys.stdout.write(text)",
        'sys.stdout.write(text + (summary and summary + "\\n"))',
        ("tests/test_cli.py::test_one_output_rule",),
    ),
    Mutant(
        "omitted-histogram-keys-swapped",
        "harness.py",
        'omitted = "0" if verdict.omitted is None else "1"',
        'omitted = "1" if verdict.omitted is None else "0"',
        ("tests/test_report_digests.py::test_search_seven_lines[0]",),
    ),
    # the coordinate contract: `_of` stores a tuple as given, so its
    # sources make it primitive, and curves sort by degree first
    Mutant(
        "parsed-tuple-not-primitive",
        "serialize.py",
        "return cls._of(_primitive([num * (scale // den) for num, den in zip(nums, dens)]))",
        "return cls._of(tuple([num * (scale // den) for num, den in zip(nums, dens)]))",
        ("tests/test_projective.py::test_every_producer_stores_a_primitive_tuple",),
    ),
    Mutant(
        "conic-space-not-primitive",
        "projective.py",
        "return tuple(Conic._of(_primitive(vec)) for vec in linalg.kernel(rows, ncols)[1])",
        "return tuple(Conic._of(tuple(vec)) for vec in linalg.kernel(rows, ncols)[1])",
        ("tests/test_projective.py::test_every_producer_stores_a_primitive_tuple",),
    ),
    Mutant(
        "conic-sorts-before-line",
        "projective.py",
        "return self.degree < other.degree",
        "return self.degree > other.degree",
        ("tests/test_projective.py::test_a_line_sorts_before_a_conic_and_a_point_compares_with_neither",),
    ),
    # one function per job at the edges: the line-conic restriction behind
    # both meets and containment, the one curve writer, and the caps on
    # the weights of a document
    Mutant(
        "restriction-polar-term-dropped",
        "projective.py",
        "- a - c, c",
        "- a, c",
        ("tests/test_projective.py::test_intersect_line_conic_matches_oracle",),
    ),
    Mutant(
        "curve-kind-swapped",
        "serialize.py",
        '("line", "conic")',
        '("conic", "line")',
        ("tests/test_serialize.py::test_level_set_and_verdict_json",),
    ),
    Mutant(
        "weight-length-uncapped",
        "serialize.py",
        '_check_length(raw, f"weights[{i}]")',
        "pass",
        ("tests/test_serialize.py::test_weights_and_alpha_are_capped_as_coefficients_are",),
    ),
    Mutant(
        "check-alpha-flag-uncapped",
        "cli.py",
        'serialize._check_length(args.alpha, "--alpha")',
        "pass",
        ("tests/test_cli.py::test_check_alpha_is_capped_as_a_document_alpha",),
    ),
    Mutant(
        "denominator-cap-one-digit-late",
        "serialize.py",
        "if current.den >= _DENOMINATOR_LIMIT:",
        "if current.den >= 10 * _DENOMINATOR_LIMIT:",
        ("tests/test_serialize.py::test_common_denominator_of_the_weights_is_capped",),
    ),
    # one writer for a decision: the mass and alpha are checked before the
    # incidence map is read, and a counterexample payload is the check report
    Mutant(
        "heavy-points-before-the-mass-check",
        "cover.py",
        "heavy = ()",
        "heavy = find_heavy_points(current, a)",
        ("tests/test_cli.py::test_check_mass_fails_before_irrational_meets",
         "tests/test_cover.py::test_mass_and_alpha_are_checked_before_heavy_points"),
    ),
    Mutant(
        "counterexample-payload-not-the-check-report",
        "harness.py",
        '{"index": item.index, **check_report(item.outcome)}',
        '{"index": item.index, **check_report(item.outcome), "command": "search"}',
        ("tests/test_harness.py::test_counterexample_payloads_reverify",),
    ),
    Mutant(
        "empty-report-path-accepted",
        "serialize.py",
        "if not path:",
        "if False:",
        ("tests/test_cli.py::test_unwritable_report_is_an_error",),
    ),
)


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, detail) for one mutant, run on a mutated copy of `src/`."""
    source = (ROOT / "src" / "planecurrents" / mutant.path).read_text()
    count = source.count(mutant.anchor)
    if count != 1:
        return False, f"anchor occurs {count} times in {mutant.path}"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "planecurrents" / mutant.path).write_text(source.replace(mutant.anchor, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = subprocess.run(
            [sys.executable, "-c", "import planecurrents; print(planecurrents.__file__)"],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        if not probe.stdout.startswith(str(src)):
            return False, f"the mutated copy is not the one imported: {probe.stdout.strip() or probe.stderr.strip()}"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
    if proc.returncode == 1:
        return True, "killed"
    if proc.returncode == 0:
        return False, "survived"
    return False, f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    names = {m.name for m in CATALOGUE}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for mutant in CATALOGUE:
        if argv and mutant.name not in argv:
            continue
        started = time.perf_counter()
        killed, detail = run(mutant)
        failures += not killed
        print(f"{'ok  ' if killed else 'FAIL'} {mutant.name} ({time.perf_counter() - started:.1f} s): {detail}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
