"""Exact JSON (de)serialization.

Rationals travel as strings "p/q" (or plain integers) and are written as
`str` writes a `Fraction`: in lowest terms, with a positive denominator,
and as the integer alone when the denominator is 1. So every report
round-trips bit-exactly and no floating point ever enters the data path.
Point, line and conic coordinates have one reader, `parse_coordinates`,
which parses them straight to primitive integer tuples, without a
`Fraction`, in one loop when well formed; errors are diagnosed in a fixed
order. They have one writer, `coordinates_to_json`, which writes
`projective._rational_form`, the text that `repr` shows too. Conic
coefficients use the fixed monomial order (x^2, xy, xz, y^2, yz, z^2).
A decided instance has one writer, `check_report`: the `check` report,
and with an index a `search` counterexample. Reports are written exactly
as `json.dumps(document, indent=2, sort_keys=True)` writes them, as bytes
to a temporary file that is then renamed into place.

Instance documents look like

    {
      "lines":  [["1", "0", "0"], ["0", "1", "0"], ...],
      "conics": [["1", "0", "0", "-1", "0", "0"], ...],
      "weights": ["1/4", "1/4", ...],      # aligned with lines-then-conics
      "alpha": "1/2"                        # optional
    }

Every coefficient, coordinate, weight and alpha of a document is capped at
MAX_COEFFICIENT_LENGTH characters, and the common denominator of the
weights at MAX_DENOMINATOR_DIGITS digits. Validation failures raise
ParseError with the offending field path.
"""

from __future__ import annotations

import errno
import os
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Any, Optional

from .currents import DivisorCurrent, LevelSet
from .cover import Covered, Outcome, UncoverableCurve, Verdict, verify_verdict
from .errors import ParseError, PlaneCurrentsError
from .projective import Conic, Curve, Line, Point, _primitive, _rational_form


# The rational grammar: an integer or "p/q" in ASCII digits. Fraction alone
# would also take exponents (whose expansion cost grows without bound:
# "1e2000000" takes about a second), decimals, digit grouping and
# non-ASCII digits, and what it takes differs between Python versions.
# The groups are the signed numerator and the denominator, if any.
_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*", re.ASCII)

# Longest "points" list a points file may hold. It bounds the one search
# in max_on_curve that grows as a power of n: at degree 2, where no
# dependency among the points gives the count, each six points are tested
# by brackets, O(n^6). Degree 1 counts point pairs, O(n^2).
MAX_POINTS = 12

# Most lines plus conics in an instance document, and most characters in a
# curve coefficient, point coordinate, weight or alpha (its JSON string, or
# an integer's decimal form). The incidence map meets every pair of
# components, and a level set can return every meet, so the first cap
# bounds work that grows with the square of the count. Every meet, density
# and bracket multiplies coefficients or coordinates, so the second bounds
# the size of each product. The count is checked before any curve is built;
# the length is checked one coefficient list at a time, as that list is
# parsed, so the curves listed before an over-long entry are already built.
MAX_CURVES = 100
MAX_COEFFICIENT_LENGTH = 64

# Most decimal digits of `den`, the common denominator of a document's
# weights. 100 weights of 64 characters can have coprime denominators of 62
# digits, whose lcm has some 6,200. The mass and every density are an
# integer over `den` below 2 * MAX_CURVES * 10**MAX_COEFFICIENT_LENGTH, so
# with this cap every rational a report writes has at most 1,067 digits,
# well under the interpreter's 4,300-digit limit on int-to-text conversion.
MAX_DENOMINATOR_DIGITS = 1000
_DENOMINATOR_LIMIT = 10**MAX_DENOMINATOR_DIGITS


def _shown(text: str) -> str:
    """A rejected string as an error message shows it: its repr, or its
    length alone when it is longer than MAX_COEFFICIENT_LENGTH."""
    return repr(text) if len(text) <= MAX_COEFFICIENT_LENGTH else f"of {len(text)} characters"


def _check_length(value: Any, path: str) -> None:
    """Reject a string, or an integer by its decimal form, longer than
    MAX_COEFFICIENT_LENGTH characters."""
    if isinstance(value, (str, int)) and len(str(value)) > MAX_COEFFICIENT_LENGTH:
        raise ParseError(f"{len(str(value))} characters, at most {MAX_COEFFICIENT_LENGTH} are allowed", path)


def _ratio(value: Any, path: str) -> tuple[int, int]:
    """A rational as (numerator, denominator), the denominator positive and
    the pair not necessarily in lowest terms."""
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if not match:
            raise ParseError(f"invalid rational {_shown(value)} (expected an integer or p/q)", path)
        num, den = match.groups()
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:
            raise ParseError(f"invalid rational {_shown(value)} ({exc})", path) from None
        if not den:
            # the text of Fraction's ZeroDivisionError
            raise ParseError(f"invalid rational {_shown(value)} (Fraction({num}, 0))", path)
        return num, den
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return value, 1
    raise ParseError(f"expected a rational string or integer, got {type(value).__name__}", path)


def parse_rational(value: Any, path: str = "rational") -> Fraction:
    return Fraction(*_ratio(value, path))


def parse_coordinates(cls: type, value: Any, path: str) -> Point | Line | Conic:
    """A `Point`, `Line` or `Conic` from `cls._size` rationals, not all zero,
    each written in at most MAX_COEFFICIENT_LENGTH characters, stored as the
    primitive integer tuple with the same ratios. One loop takes a list of
    `cls._size` strings of the rational grammar and builds no path or
    message; anything else falls through to the checks, which raise the
    first error in this order: the cap on every entry, the shape, the first
    entry that is not a rational, all zeros."""
    size = cls._size
    nums, dens = [], []
    if type(value) is list and len(value) == size:
        for v in value:
            match = type(v) is str and len(v) <= MAX_COEFFICIENT_LENGTH and _RATIONAL.fullmatch(v)
            if not match:
                break
            num, den = match.groups("1")
            nums.append(int(num))
            dens.append(int(den))
    if len(nums) < size or not any(nums) or not all(dens):
        for i, v in enumerate(value if isinstance(value, (list, tuple)) else ()):
            _check_length(v, f"{path}[{i}]")
        if not isinstance(value, (list, tuple)) or len(value) != size:
            raise ParseError(f"expected a list of {size} rationals", path)
        nums, dens = zip(*[_ratio(v, f"{path}[{i}]") for i, v in enumerate(value)])
        if not any(nums):
            raise ParseError("all coefficients are zero", path)
    scale = lcm(*dens)
    return cls._of(_primitive([num * (scale // den) for num, den in zip(nums, dens)]))


def coordinates_to_json(x: Point | Line | Conic) -> list[str]:
    return _rational_form(x.ints)


def curve_to_json(curve: Curve) -> dict:
    return {"kind": ("line", "conic")[curve.degree - 1], "coefficients": coordinates_to_json(curve)}


def current_to_payload(current: DivisorCurrent, alpha: Optional[Fraction] = None) -> dict:
    """Instance-file payload for a current (lines first, then conics, the
    order of its components)."""
    payload = {
        "lines": [coordinates_to_json(c) for c in current.curves if c.degree == 1],
        "conics": [coordinates_to_json(c) for c in current.curves if c.degree == 2],
        "weights": [str(w) for w, _ in current.components],
    }
    if alpha is not None:
        payload["alpha"] = str(alpha)
    return payload


def parse_instance(payload: Any) -> tuple[DivisorCurrent, Optional[Fraction]]:
    """Parse and validate an instance document.

    Checks the MAX_CURVES cap before any curve is built, then each
    coefficient list in turn (the MAX_COEFFICIENT_LENGTH cap on its
    entries, then a nonzero tuple), then the weight count, each weight (the
    same cap, then a nonnegative rational), irreducibility of conic
    components, the MAX_DENOMINATOR_DIGITS cap on the weights' common
    denominator, and, when alpha is present, alpha (the same cap, then a
    rational) and a mass of exactly 1.
    """
    if not isinstance(payload, dict):
        raise ParseError("instance document must be a JSON object", "$")
    lines_raw = payload.get("lines", [])
    conics_raw = payload.get("conics", [])
    if not isinstance(lines_raw, list):
        raise ParseError("expected a list", "lines")
    if not isinstance(conics_raw, list):
        raise ParseError("expected a list", "conics")
    if len(lines_raw) + len(conics_raw) > MAX_CURVES:
        raise ParseError(
            f"{len(lines_raw) + len(conics_raw)} lines and conics, at most {MAX_CURVES} are allowed", "$"
        )
    curves: list[Curve] = [parse_coordinates(Line, v, f"lines[{i}]") for i, v in enumerate(lines_raw)]
    curves += [parse_coordinates(Conic, v, f"conics[{i}]") for i, v in enumerate(conics_raw)]
    weights_raw = payload.get("weights")
    if not isinstance(weights_raw, list) or len(weights_raw) != len(curves):
        raise ParseError(
            f"expected {len(curves)} weights aligned with lines then conics",
            "weights",
        )
    pairs = []
    for i, (raw, curve) in enumerate(zip(weights_raw, curves)):
        _check_length(raw, f"weights[{i}]")
        w = parse_rational(raw, f"weights[{i}]")
        if w.numerator < 0:
            raise ParseError(f"weight {w} is negative", f"weights[{i}]")
        pairs.append((w, curve))
    try:
        current = DivisorCurrent(pairs)
    except PlaneCurrentsError as exc:
        raise ParseError(str(exc), "conics") from None
    if current.den >= _DENOMINATOR_LIMIT:
        raise ParseError(
            f"the common denominator of the weights has more than {MAX_DENOMINATOR_DIGITS} digits", "weights"
        )
    alpha = None
    if "alpha" in payload:
        _check_length(payload["alpha"], "alpha")
        alpha = parse_rational(payload["alpha"], "alpha")
        if current.mass != 1:
            raise ParseError(f"mass is {current.mass}, must be exactly 1 when alpha is given", "weights")
    return current, alpha


def parse_points_file(payload: Any) -> tuple[Point, ...]:
    if not isinstance(payload, dict) or not isinstance(payload.get("points"), list):
        raise ParseError('expected an object with a "points" list', "$")
    if len(payload["points"]) > MAX_POINTS:
        raise ParseError(
            f"{len(payload['points'])} points, at most {MAX_POINTS} are allowed", "points"
        )
    return tuple(parse_coordinates(Point, v, f"points[{i}]") for i, v in enumerate(payload["points"]))


def level_set_to_json(level: LevelSet) -> dict:
    return {
        "threshold": str(level.threshold),
        "strict": level.strict,
        "component_curves": [curve_to_json(c) for c in level.component_curves],
        "isolated_points": [coordinates_to_json(p) for p in level.isolated_points],
    }


def verdict_to_json(verdict: Verdict) -> dict:
    if isinstance(verdict, Covered):
        return {
            "kind": "covered",
            "witness": curve_to_json(verdict.witness),
            "omitted": None if verdict.omitted is None else coordinates_to_json(verdict.omitted),
        }
    obstruction = verdict.obstruction
    if isinstance(obstruction, UncoverableCurve):
        payload = {"kind": "curve", "curve": curve_to_json(obstruction.curve)}
    else:
        payload = {
            "kind": "points",
            "points": [coordinates_to_json(p) for p in obstruction.points],
        }
    return {"kind": "not-coverable", "obstruction": payload}


def check_report(outcome: Outcome) -> dict:
    """The `check` report of a decided instance, the one writer of an
    `Outcome`: the instance (with alpha at mass 1 only, where `check` reads
    it), alpha, mass, then a failed precondition's `status` and `reason`, or
    beta, heavy set, level set, verdict, `verified` (by `verify_verdict`), `status`."""
    current, mass = outcome.current, outcome.current.mass
    document = {
        "command": "check",
        "instance": current_to_payload(current, outcome.alpha if mass == 1 else None),
        "alpha": str(outcome.alpha),
        "mass": str(mass),
    }
    if outcome.reason is not None:
        return {**document, "status": "precondition-failed", "reason": outcome.reason}
    if outcome.heavy_curves:
        document["heavy_curves"] = [{"curve": curve_to_json(c), "weight": str(w)} for w, c in outcome.heavy_curves]
    level, verdict = outcome.level, outcome.verdict
    document["beta"] = str(outcome.beta)
    document["heavy_points"] = [
        {"point": coordinates_to_json(p), "lelong": str(current.lelong_number(p))} for p in outcome.heavy_points
    ]
    document["level_set"] = level_set_to_json(level)
    document["verdict"] = verdict_to_json(verdict)
    document["verified"] = verify_verdict(level, verdict)
    document["status"] = "covered" if isinstance(verdict, Covered) else "counterexample"
    return document


def _encode(value: Any, indent: str) -> str:
    """`value` as json.dumps(value, indent=2, sort_keys=True) writes it, for
    the values a report holds; any other value or key raises TypeError."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    inner = indent + "  "
    if kind is dict:
        # the encoder raises TypeError on a key that is not a string
        items = [f"{encode_basestring_ascii(k)}: {_encode(value[k], inner)}" for k in sorted(value)]
        brackets = "{}"
    elif kind is list or kind is tuple:
        items = [_encode(v, inner) for v in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return brackets
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def dumps(document: dict) -> str:
    return _encode(document, "") + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write the full document to a new temporary file beside `path` and
    rename it into place. The file is created with mode 0o666, so the
    umask sets the report's mode as it does for any new file. An empty
    path names no file: it fails with ENOENT before any file is made."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    directory = os.path.dirname(os.path.abspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC
    for _ in range(100):
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.json")
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileExistsError:
            continue
        break
    else:
        raise FileExistsError(f"no free temporary name in {directory}")
    try:
        try:
            data = text.encode()
            while data:  # a write may be short
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
