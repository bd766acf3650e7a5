import json
import os
import random
import stat
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecurrents import serialize
from planecurrents.cover import Covered, NotCoverable, UncoverableCurve, UncoveredPoints
from planecurrents.currents import LevelSet
from planecurrents.errors import ParseError
from planecurrents.gallery import build
from planecurrents.projective import Conic, Line, Point

from oracles import random_homogeneous, rational_form


def test_rational_round_trip():
    for text, value in (("1/2", Fraction(1, 2)), ("-3/9", Fraction(-1, 3)), ("7", 7)):
        parsed = serialize.parse_rational(text)
        assert parsed == Fraction(value)
        assert serialize.parse_rational(str(parsed)) == parsed
    assert serialize.parse_rational(5) == 5
    assert str(Fraction(84, 180)) == "7/15"


def test_rational_errors_carry_position():
    with pytest.raises(ParseError) as err:
        serialize.parse_rational("1/0", "weights[2]")
    assert "weights[2]" in str(err.value)
    with pytest.raises(ParseError):
        serialize.parse_rational("abc")
    with pytest.raises(ParseError):
        serialize.parse_rational(1.5)
    with pytest.raises(ParseError):
        serialize.parse_rational(True)


def test_rational_error_messages_are_pinned():
    # the messages of the Fraction(str) parser this one replaced
    cases = (
        ("1/0", "weights[2]: invalid rational '1/0' (Fraction(1, 0))"),
        (" -7/000 ", "weights[2]: invalid rational ' -7/000 ' (Fraction(-7, 0))"),
        ("0/0", "weights[2]: invalid rational '0/0' (Fraction(0, 0))"),
    )
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            serialize.parse_rational(text, "weights[2]")
        assert str(err.value) == message
    # past the interpreter's integer string limit (4300 digits by default)
    digits = "1" * 4301
    with pytest.raises(ValueError) as limit:
        int(digits)
    assert "4301 digits" in str(limit.value)
    # a string past the 64-character cap is named by its length, not echoed
    for text, length in ((digits, 4301), (f"-{digits}/3", 4304), (f"1/{digits}", 4303)):
        with pytest.raises(ParseError) as err:
            serialize.parse_rational(text, "weights[0]")
        assert str(err.value) == f"weights[0]: invalid rational of {length} characters ({limit.value})"


def test_coefficient_error_messages_are_pinned():
    # the same texts as weights[...]: a curve or point coefficient fails as
    # the rational it is, at its own position
    cases = (
        ("1/0", "invalid rational '1/0' (Fraction(1, 0))"),
        (" -7/000 ", "invalid rational ' -7/000 ' (Fraction(-7, 0))"),
        ("abc", "invalid rational 'abc' (expected an integer or p/q)"),
        (True, "expected a rational, got a boolean"),
        (1.5, "expected a rational string or integer, got float"),
        ("1" * 65, "65 characters, at most 64 are allowed"),
    )
    for bad, message in cases:
        for parse, payload, path in (
            (serialize.parse_instance, {"lines": [[bad, "0", "1"]], "weights": ["1"]}, "lines[0][0]"),
            (serialize.parse_instance, {"conics": [["1", "0", bad, "1", "0", "-1"]], "weights": ["1"]},
             "conics[0][2]"),
            (serialize.parse_points_file, {"points": [["1", bad, "0"]]}, "points[0][1]"),
        ):
            with pytest.raises(ParseError) as err:
                parse(payload)
            assert str(err.value) == f"{path}: {message}"
    for parse, payload, path in (
        (serialize.parse_instance, {"lines": [["0", "0/3", "-0"]], "weights": ["1"]}, "lines[0]"),
        (serialize.parse_instance, {"conics": [["0"] * 6], "weights": ["1"]}, "conics[0]"),
        (serialize.parse_points_file, {"points": [["0", "0/5", 0]]}, "points[0]"),
    ):
        with pytest.raises(ParseError) as err:
            parse(payload)
        assert str(err.value) == f"{path}: all coefficients are zero"


# a coefficient as a document may write it: a JSON integer, or a string with
# optional surrounding whitespace, sign and leading zeros, and a p/q that
# need not be in lowest terms
_space = st.sampled_from(["", " ", "\t", "\n ", "  "])
_coefficient = st.one_of(
    st.integers(-10**20, 10**20),
    st.builds(
        lambda lead, sign, num, den, trail: f"{lead}{sign}{num}{'' if den is None else f'/{den}'}{trail}",
        _space,
        st.sampled_from(["", "+", "-"]),
        st.one_of(st.integers(0, 10**20).map(str), st.sampled_from(["0", "00", "007"])),
        st.one_of(st.none(), st.integers(1, 10**12), st.sampled_from(["1", "0004", "12"])),
        _space,
    ),
)


@settings(max_examples=200)
@given(st.lists(_coefficient, min_size=6, max_size=6))
def test_coefficients_parse_as_the_constructors_do(raw):
    if all(Fraction(v) == 0 for v in raw[:3]):
        raw[0] = "-3/6"
    for cls, size in ((Point, 3), (Line, 3)):
        assert serialize.parse_coordinates(cls, raw[:size], "coordinates") == cls(*(Fraction(v) for v in raw[:size]))
    assert serialize.parse_coordinates(Conic, raw, "conic") == Conic(*(Fraction(v) for v in raw))


# entries that are not coefficients: over the 64-character cap (a string or
# an int), not a string or an int, or a string outside the grammar
_BAD_ENTRY = st.sampled_from(
    ["1" * 65, "-" + "7" * 64, 10**64, True, 1.5, None, ["1"], "\u0663", "1e3", "1/0"]
)


def _first_error(raw, size):
    """The message of the ParseError a coefficient list must raise, with
    its path suffix, or None: the cap on every entry first, then the shape,
    then the first bad entry, then all zeros."""
    entries = raw if isinstance(raw, (list, tuple)) else ()
    for i, v in enumerate(entries):
        if type(v) in (str, int) and len(str(v)) > 64:
            return f"[{i}]: {len(str(v))} characters, at most 64 are allowed"
    if not isinstance(raw, (list, tuple)) or len(raw) != size:
        return f": expected a list of {size} rationals"
    for i, v in enumerate(raw):
        if type(v) is bool:
            return f"[{i}]: expected a rational, got a boolean"
        if type(v) not in (str, int):
            return f"[{i}]: expected a rational string or integer, got {type(v).__name__}"
        if v in ("\u0663", "1e3"):
            return f"[{i}]: invalid rational {v!r} (expected an integer or p/q)"
        if v == "1/0":
            return f"[{i}]: invalid rational '1/0' (Fraction(1, 0))"
    if not any(Fraction(v) for v in raw):
        return ": all coefficients are zero"
    return None


@settings(max_examples=300)
@given(st.data())
def test_coefficient_lists_fail_at_their_first_error(data):
    size, cls, path = data.draw(st.sampled_from([(3, Line, "lines[4]"), (6, Conic, "conics[0]"), (3, Point, "points[2]")]))
    raw = data.draw(st.lists(_coefficient, min_size=size, max_size=size))
    if data.draw(st.booleans()):
        raw = [data.draw(st.sampled_from(["0", 0, " -0/7", "+000"])) for _ in raw]
    for _ in range(data.draw(st.integers(0, 3))):
        raw[data.draw(st.integers(0, size - 1))] = data.draw(_BAD_ENTRY)
    shape = data.draw(st.sampled_from(["list", "list", "tuple", "short", "long", "string"]))
    raw = {"list": raw, "tuple": tuple(raw), "short": raw[:-1], "long": raw + ["1"],
           "string": ",".join(map(str, raw))}[shape]
    expected = _first_error(raw, size)
    if expected is None:
        assert serialize.parse_coordinates(cls, raw, path) == cls(*(Fraction(v) for v in raw))
    else:
        with pytest.raises(ParseError) as err:
            serialize.parse_coordinates(cls, raw, path)
        assert str(err.value) == path + expected


_leaf = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u2028", "\ud800", "\udfff\ud83d", "\U0001f600", "é"]),
    st.integers(-10**400, 10**400),
    st.booleans(),
    st.none(),
)
_report = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300)
@given(_report)
def test_dumps_writes_what_json_dumps_writes(document):
    assert serialize.dumps(document) == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_dumps_rejects_what_a_report_never_holds():
    # json.dumps would write these, so they must not reach a report unnoticed
    for document in (1.5, {"a": [Fraction(1, 2)]}, {"a": {1: "b"}}, {"a": "b", None: 1}, {(): 1}):
        with pytest.raises(TypeError):
            serialize.dumps(document)


def test_rational_rejects_exponents():
    # Fraction accepts exponents, whose expansion cost grows without bound
    for text in ("1e3", "2E-1", " 1e2 ", "1.5e1", "3/1e1"):
        with pytest.raises(ParseError) as err:
            serialize.parse_rational(text, "weights[0]")
        assert "weights[0]" in str(err.value)
    payload = {"lines": [["1", "0", "0"]], "weights": ["1e0"]}
    with pytest.raises(ParseError):
        serialize.parse_instance(payload)


def test_point_line_conic_json_is_the_rational_form_in_lowest_terms():
    rng = random.Random(61)
    for cls, size in ((Point, 3), (Line, 3), (Conic, 6)):
        for _ in range(300):
            if rng.random() < 0.7:
                raw = random_homogeneous(rng, size)
            else:
                raw = [rng.choice([0, 1]) * rng.randint(-10**12, 10**12) for _ in range(size)]
                if not any(raw):
                    raw[-1] = 2**61 - 1
            assert serialize.coordinates_to_json(cls(*raw)) == [str(f) for f in rational_form(raw)]


def test_point_line_conic_round_trip():
    p = Point(2, -4, 6)
    assert serialize.parse_coordinates(Point, serialize.coordinates_to_json(p), "point") == p
    line = Line(0, 3, -3)
    assert serialize.parse_coordinates(Line, serialize.coordinates_to_json(line), "line") == line
    conic = Conic(0, 0, 1, -1, 0, 0)
    assert serialize.parse_coordinates(Conic, serialize.coordinates_to_json(conic), "conic") == conic
    with pytest.raises(ParseError):
        serialize.parse_coordinates(Point, ["0", "0", "0"], "point")
    with pytest.raises(ParseError):
        serialize.parse_coordinates(Line, ["1", "2"], "line")


def test_instance_round_trip_through_payload():
    for name in ("four-lines", "seven-lines"):
        arr = build(name)
        payload = serialize.current_to_payload(arr.current, arr.alpha)
        text = serialize.dumps(payload)
        current, alpha = serialize.parse_instance(json.loads(text))
        assert current == arr.current
        assert alpha == arr.alpha


def test_instance_validation_errors():
    good = serialize.current_to_payload(build("four-lines").current, Fraction(1, 2))

    bad = dict(good, weights=good["weights"][:-1])
    with pytest.raises(ParseError) as err:
        serialize.parse_instance(bad)
    assert "weights" in str(err.value)

    bad = dict(good, weights=["-1/4"] + good["weights"][1:])
    with pytest.raises(ParseError) as err:
        serialize.parse_instance(bad)
    assert "weights[0]" in str(err.value)

    bad = dict(good, lines=[["0", "0", "0"]] + good["lines"][1:])
    with pytest.raises(ParseError) as err:
        serialize.parse_instance(bad)
    assert "lines[0]" in str(err.value)

    # tampered weight breaks the exact unit-mass requirement
    bad = dict(good, weights=["1/3"] + good["weights"][1:])
    with pytest.raises(ParseError) as err:
        serialize.parse_instance(bad)
    assert "mass" in str(err.value)

    # a reducible conic is rejected as a component
    bad = dict(good, weights=good["weights"] + ["0/1"], conics=[["1", "0", "0", "-1", "0", "0"]])
    with pytest.raises(ParseError):
        serialize.parse_instance(bad)

    # without alpha, any mass is allowed
    free = dict(good, weights=["1/3"] + good["weights"][1:])
    free.pop("alpha")
    current, alpha = serialize.parse_instance(free)
    assert alpha is None and current.mass != 1


def test_weights_and_alpha_are_capped_as_coefficients_are():
    good = serialize.current_to_payload(build("four-lines").current, Fraction(1, 2))
    cap = serialize.MAX_COEFFICIENT_LENGTH
    for field, value in (("weights", ["1/" + "4" * (cap - 1)] + good["weights"][1:]), ("alpha", "1/" + "3" * (cap - 1))):
        path = "weights[0]" if field == "weights" else field
        with pytest.raises(ParseError) as err:
            serialize.parse_instance(dict(good, **{field: value}))
        assert str(err.value) == f"{path}: {cap + 1} characters, at most {cap} are allowed"
    # at the cap the weight parses, and then the mass is not 1
    with pytest.raises(ParseError, match="^weights: mass is "):
        serialize.parse_instance(dict(good, weights=["1/" + "4" * (cap - 2)] + good["weights"][1:]))


def _coprime_denominators(digits):
    """Powers of distinct primes, each of at most 62 digits, so that a
    weight 1/q has at most 64 characters, whose product, their lcm, has
    exactly `digits` digits: the odd primes first, each to the largest
    power that fits below 10**digits, then 2, which brings the product to
    at least half of 10**digits."""
    dens = []
    product = 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 2):
        q = 1
        while q * p < 10**62 and product * q * p < 10**digits:
            q *= p
        if q > 1:
            dens.append(q)
            product *= q
    assert len(str(product)) == digits
    return dens


def test_common_denominator_of_the_weights_is_capped():
    cap = serialize.MAX_DENOMINATOR_DIGITS
    for digits in (cap, cap + 1):
        dens = _coprime_denominators(digits)
        payload = {"lines": [[str(k), "-1", "0"] for k in range(len(dens))], "weights": [f"1/{q}" for q in dens]}
        if digits <= cap:
            current, _ = serialize.parse_instance(payload)
            assert len(str(current.den)) == digits
        else:
            with pytest.raises(ParseError) as err:
                serialize.parse_instance(payload)
            assert str(err.value) == f"weights: the common denominator of the weights has more than {cap} digits"


def test_level_set_and_verdict_json():
    level = LevelSet(Fraction(1, 3), True, (Line(1, 0, 0),), (Point(1, 1, 1),))
    doc = serialize.level_set_to_json(level)
    assert doc["threshold"] == "1/3" and doc["strict"] is True
    assert doc["component_curves"][0]["kind"] == "line"

    covered = Covered(Conic(1, 0, 0, 0, 0, -1), Point(1, 1, 1))
    doc = serialize.verdict_to_json(covered)
    assert doc["kind"] == "covered" and doc["omitted"] == ["1", "1", "1"]

    blocked = NotCoverable(UncoverableCurve(Line(1, 0, 0)))
    doc = serialize.verdict_to_json(blocked)
    assert doc["obstruction"]["kind"] == "curve"

    pair = NotCoverable(UncoveredPoints((Point(1, 0, 0), Point(0, 1, 0))))
    doc = serialize.verdict_to_json(pair)
    assert len(doc["obstruction"]["points"]) == 2


def test_rational_grammar_is_ascii_integers_and_fractions():
    for text, value in ((" 1/2 ", Fraction(1, 2)), ("+3", 3), ("-0", 0), ("\t7\n", 7), ("0/5", 0)):
        assert serialize.parse_rational(text) == value
    rejected = (
        "0.5", ".5", "1.", "1_000", "1/2_0", "\u0661/\u0662", "\uff11", "\u00a01",
        "1 /2", "1/ 2", "", " ", "/2", "1/", "+-1", "1/-2", "0x10", "1/2/3", "inf", "nan",
    )
    for text in rejected:
        with pytest.raises(ParseError) as err:
            serialize.parse_rational(text, "weights[1]")
        assert "weights[1]" in str(err.value)


def test_points_file():
    pts = serialize.parse_points_file({"points": [["1", "0", "0"], ["0", "1", "0"]]})
    assert pts == (Point(1, 0, 0), Point(0, 1, 0))
    with pytest.raises(ParseError):
        serialize.parse_points_file({"points": "nope"})


def test_points_file_length_cap():
    raw = [[str(k), str(k * k), "1"] for k in range(serialize.MAX_POINTS + 1)]
    assert len(serialize.parse_points_file({"points": raw[:-1]})) == serialize.MAX_POINTS
    with pytest.raises(ParseError) as err:
        serialize.parse_points_file({"points": raw})
    assert "points" in str(err.value)


def test_atomic_write(tmp_path):
    target = tmp_path / "report.json"
    serialize.atomic_write(str(target), serialize.dumps({"a": 1}))
    assert json.loads(target.read_text()) == {"a": 1}
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert not leftovers


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_atomic_write_mode_follows_the_umask(tmp_path, umask):
    target = tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        serialize.atomic_write(str(target), "{}\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        # replacing a report of another mode gives it the new file's mode
        target.chmod(0o600 if umask == 0o022 else 0o644)
        serialize.atomic_write(str(target), "[]\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        assert target.read_text() == "[]\n"
    finally:
        os.umask(previous)


def test_atomic_write_leaves_no_temporary_file_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old\n")

    def broken_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(serialize.os, "replace", broken_replace)
    with pytest.raises(OSError, match="replace failed"):
        serialize.atomic_write(str(target), "new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    assert target.read_text() == "old\n"


def test_atomic_write_retries_a_taken_temporary_name(tmp_path, monkeypatch):
    taken = tmp_path / f".tmp-{bytes(8).hex()}.json"
    taken.write_text("someone else's\n")
    draws = iter([bytes(8), bytes(8), b"\x01" * 8])
    monkeypatch.setattr(serialize.os, "urandom", lambda n: next(draws))
    serialize.atomic_write(str(tmp_path / "report.json"), "{}\n")
    assert taken.read_text() == "someone else's\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "report.json"]
