"""Command-line interface.

Commands:
  verify-examples   rebuild the gallery arrangements and re-check every fact
  check             decide the conic cover for an instance file at an alpha
  lelong            exact density of an instance at a point
  levelset          structural upper level set at a threshold
  mj                largest subset of a point file on a curve of a degree
  search            seeded randomized suite over generated instances

Exit codes (stable contract): 0 success, 1 usage/parse/internal error,
2 precondition unmet, 3 counterexample found.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional

from . import serialize
from .cover import Covered, evaluate_cover, verify_verdict
from .errors import InvalidSpec, ParseError, PlaneCurrentsError
from .harness import GenSpec, run_suite
from .projective import max_on_curve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PRECONDITION = 2
EXIT_COUNTEREXAMPLE = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser honoring the documented exit-code contract
    (argparse would exit with 2, which is reserved for preconditions)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read file ({exc})", path) from None
    except ValueError as exc:
        # JSONDecodeError, and the int-digits limit on huge integers
        raise ParseError(f"invalid JSON ({exc})", path) from None


def _write_report(path: Optional[str], document: dict) -> None:
    """The report to `path`, or to stdout when no --out was given; an empty
    --out is a path that cannot be written, as a missing directory is."""
    text = serialize.dumps(document)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        serialize.atomic_write(path, text)
    except OSError as exc:
        raise PlaneCurrentsError(f"cannot write report to {path!r} ({exc.strerror or exc})") from None


def cmd_verify_examples(args) -> int:
    # imported here, its one use, so that no other command loads the gallery
    from . import gallery

    all_ok = True
    for name in gallery.NAMES:
        for fact in gallery.verify(gallery.build(name)):
            status = "PASS" if fact.ok else "FAIL"
            all_ok &= fact.ok
            print(f"[{status}] {name}: {fact.name} ({fact.detail})")
    print("all facts pass" if all_ok else "FACT FAILURES PRESENT")
    return EXIT_OK if all_ok else EXIT_ERROR


def cmd_check(args) -> int:
    payload = _load_json(args.path)
    current, file_alpha = serialize.parse_instance(payload)
    alpha = serialize.parse_rational(args.alpha, "--alpha") if args.alpha is not None else file_alpha
    if alpha is None:
        print("check: no alpha given (use --alpha or an instance-file alpha)", file=sys.stderr)
        return EXIT_ERROR
    document = {
        "command": "check",
        "instance": serialize.current_to_payload(current, alpha),
        "alpha": serialize.format_rational(alpha),
        "mass": serialize.format_rational(current.mass),
    }
    outcome = evaluate_cover(current, alpha)
    if outcome.reason is not None:
        document["status"] = "precondition-failed"
        document["reason"] = outcome.reason
        _write_report(args.out, document)
        print(f"precondition failed: {outcome.reason}", file=sys.stderr)
        return EXIT_PRECONDITION
    document["beta"] = serialize.format_rational(outcome.beta)
    if outcome.heavy_curves:
        document["heavy_curves"] = [
            {"curve": serialize.curve_to_json(c), "weight": serialize.format_rational(w)}
            for w, c in outcome.heavy_curves
        ]
    document["heavy_points"] = [
        {
            "point": serialize.point_to_json(p),
            "lelong": serialize.format_rational(current.lelong_number(p)),
        }
        for p in outcome.heavy_points
    ]
    level, verdict = outcome.level, outcome.verdict
    document["level_set"] = serialize.level_set_to_json(level)
    document["verdict"] = serialize.verdict_to_json(verdict)
    document["verified"] = verify_verdict(level, verdict)
    document["status"] = "covered" if isinstance(verdict, Covered) else "counterexample"
    _write_report(args.out, document)
    if isinstance(verdict, Covered):
        omitted = "none" if verdict.omitted is None else str(verdict.omitted)
        print(f"covered (omitted: {omitted})")
        return EXIT_OK
    print("NOT coverable: counterexample recorded", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE


def cmd_lelong(args) -> int:
    payload = _load_json(args.path)
    current, _ = serialize.parse_instance(payload)
    coords = args.point.split(",")
    if len(coords) != 3:
        raise ParseError('expected "x,y,z"', "--point")
    point = serialize.parse_point(coords, "--point")
    value = current.lelong_number(point)
    document = {
        "command": "lelong",
        "point": serialize.point_to_json(point),
        "lelong": serialize.format_rational(value),
    }
    _write_report(args.out, document)
    if args.out:
        print(serialize.format_rational(value))
    return EXIT_OK


def cmd_levelset(args) -> int:
    payload = _load_json(args.path)
    current, _ = serialize.parse_instance(payload)
    threshold = serialize.parse_rational(args.threshold, "--threshold")
    level = current.level_set(threshold, strict=args.strict)
    document = {
        "command": "levelset",
        "level_set": serialize.level_set_to_json(level),
    }
    _write_report(args.out, document)
    if args.out:
        print(
            f"{len(level.component_curves)} component curves, "
            f"{len(level.isolated_points)} isolated points"
        )
    return EXIT_OK


def cmd_mj(args) -> int:
    payload = _load_json(args.path)
    points = serialize.parse_points_file(payload)
    value = max_on_curve(points, args.degree)
    document = {
        "command": "mj",
        "degree": args.degree,
        "points": len(set(points)),
        "max_on_curve": value,
    }
    _write_report(args.out, document)
    if args.out:
        print(value)
    return EXIT_OK


def cmd_search(args) -> int:
    alphas = tuple(
        serialize.parse_rational(a, "--alpha") for a in (args.alpha or ["1/2"])
    )
    spec = GenSpec(
        n_lines=args.lines,
        n_conics=args.conics,
        coefficient_bound=args.coeff_bound,
        weight_scheme=args.weight_scheme,
        alphas=alphas,
        seed=args.seed,
    )
    started = time.perf_counter()
    try:
        report = run_suite(spec, args.trials)
    except InvalidSpec as exc:
        print(f"search: {exc}", file=sys.stderr)
        return EXIT_ERROR
    seconds = time.perf_counter() - started
    _write_report(args.out, report.to_json_dict())
    print(
        f"tried {report.tried}, valid {report.valid}, covered {report.covered}, "
        f"counterexamples {len(report.counterexamples)} ({seconds:.2f}s)",
        file=sys.stderr,
    )
    return EXIT_COUNTEREXAMPLE if report.counterexamples else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planecurrents",
        description="Exact density bookkeeping and conic-cover certificates "
        "for weighted curve arrangements on the projective plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-examples", help="re-check the gallery arrangements")
    p.set_defaults(func=cmd_verify_examples)

    p = sub.add_parser("check", help="conic-cover decision for an instance file")
    p.add_argument("path")
    p.add_argument("--alpha", help='heavy-point threshold, e.g. "1/2"')
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lelong", help="density of the instance at a point")
    p.add_argument("path")
    p.add_argument("--point", required=True, help='homogeneous "x,y,z"')
    p.add_argument("--out")
    p.set_defaults(func=cmd_lelong)

    p = sub.add_parser("levelset", help="structural upper level set")
    p.add_argument("path")
    p.add_argument("--threshold", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("mj", help="largest subset on a curve of given degree")
    p.add_argument("path")
    p.add_argument("--degree", type=int, required=True, choices=(1, 2))
    p.add_argument("--out")
    p.set_defaults(func=cmd_mj)

    p = sub.add_parser("search", help="randomized suite over generated instances")
    p.add_argument("--lines", type=int, default=4)
    p.add_argument("--conics", type=int, default=0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", action="append", help="repeatable; default 1/2")
    p.add_argument("--coeff-bound", type=int, default=5)
    p.add_argument("--weight-scheme", choices=("uniform", "random"), default="random")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)
    return parser


# parse_args leaves the parser unchanged, so one serves every in-process call
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except PlaneCurrentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
