"""Golden SHA-256 digests of CLI report bytes.

Reports are part of the behaviour contract: the same input and seed must
give byte-identical `search`, `check` and `levelset` output across
refactors and speed-ups. The digests below were recorded from the code
before the incidence-map level sets went in, and the `check` digests of
the three documents with a heavy component (`conic-heavy` and the two
heavy lines) from the code that first reported heavy curves as curves; a
mismatch means a report changed. Regenerate a table only for a
deliberate, documented format change, by printing `_digest(...)` for each
entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from planecurrents import gallery, serialize
from planecurrents.cli import main
from planecurrents.currents import DivisorCurrent
from planecurrents.cover import beta_of
from planecurrents.projective import Line, Point, conic_gradient, conic_space, line_through

SEVEN_LINES = ("--lines", "7", "--weight-scheme", "random",
               "--alpha", "9/20", "--alpha", "1/2", "--alpha", "3/5",
               "--trials", "10")
SEARCH_SEEDS = tuple(range(0, 4096, 205))
CONIC_SPECS = {
    "conics-1": ("--lines", "5", "--conics", "1", "--alpha", "9/20",
                 "--alpha", "41/100", "--trials", "20", "--seed", "1"),
    "conics-2": ("--lines", "3", "--conics", "2", "--trials", "10", "--seed", "4"),
}

# a heavy line is reported as a curve under `heavy_curves`, with its weight,
# and none of its points under `heavy_points`; these documents pin that key
# for a line with integer coefficients 1, 0, -1 and one, 2x + 3y + 6z = 0,
# whose rational form (1, 3/2, 3) is not an integer triple
HEAVY_LINES = {"heavy-line": (1, 0, -1), "heavy-line-2-3-6": (2, 3, 6)}
DOCUMENTS = (*gallery.NAMES, "conic-heavy", "conic-light", "conic-tangent", *HEAVY_LINES)

SEARCH_DIGESTS: dict[int, str] = {
    0: "d2bc5446a97c9ab6e926d47bc15ef87cd3dd0d20e7204722c82d3cd3e7b224bb",
    205: "3b2f4c307a295ad7ea1a80d57e39e43ec14ea801253373cb15e3a294f7db1cf9",
    410: "19d96efece916b2a8fe5b5d04035814bb793da97d735539ef66c837db3bac8d0",
    615: "3b3aed7394d9b199440b10706d9eca9cc4cf32eea87136becc20431981e2d926",
    820: "53f132be22ec25ed5f0d16c6505a14ba0d51898dc951d7107205aceabc30febb",
    1025: "d42ebf49238f8d6a068d126db2059d79de0aec3123a15c66279636d252a65fc2",
    1230: "a2b3c7115af9eedabcd0f6e230acea132e92e27c19f4e1d7ade9951deaee620c",
    1435: "a6d84ceadc7d376c270e2095c1de67060950f1489167744b00ae6e9ecfb71bd4",
    1640: "5c417d4d8584a6a4e3456ee8c3ed0d643f1a42c6abcd9b32135d12aee77afd18",
    1845: "451c472f7aa1271647de748648c6e054b41d3522fea4907907055196336534fb",
    2050: "4455be7b6891ab818ed9c04bf56d5c5414f22f3f1b15dbd66ca48550eab16d36",
    2255: "38131250b6d46a5d07eb37ac584ae9f28a7c43f0410fb644d4b2334503cd21f4",
    2460: "74d927df1fb1f8865a9240de1b6de5758ed660224bae7a350a928f8f773a93b1",
    2665: "7ed6d16bbe7ab00124d0854c66b47caeb7c9a8be5db53eb7c8ca7120eb91664a",
    2870: "70173c4659a757a43a0aa9a8fa06f81a7b544ab4784ec2035fb28d3bcb59e3ae",
    3075: "f7f2b21c9d936dcfaec901988008f148c63e6230526fadd0b8e688a30ee10843",
    3280: "28af91ce367c857fb7fffc8f90d1904b255c0b6149a9649aeb17ad22bd9da8ec",
    3485: "3648c3c3284fde2a40acfd374ef932db8149493c4d004e11de0eda894b0be839",
    3690: "586a39fdcb6f73b1401a610185ae733bdd9ff18e23e3b931760af1c8fb173385",
    3895: "ccb7ac8677bdbfaeabb7fb90360e18d89b21a50a25d9b81a395957ee12dbe66f",
}

CONIC_SEARCH_DIGESTS: dict[str, str] = {
    "conics-1": "e0f2b38c288b5d93033c4862005dbf5ad5621f6a03ccadeb9254ff45730a0c97",
    "conics-2": "c29769785b41d97c6ca6a03a172a0f36d87e13899628a5bb9f6c2fabf2fe667e",
}

CHECK_DIGESTS: dict[str, str] = {
    "four-lines": "c1bd3e73542e19a9ea3fd43188aa6cf6feb61077d68b41e84115a52c96f928cc",
    "six-lines": "7842016f642855e3733536f9fed826598f49c0a139c5e89856a8189b8d3b1ba7",
    "three-lines": "1838ad04908bd287831f269b649f8be7c5328cba55c05405306e7acd60461548",
    "seven-lines": "da7d58b067da0c43c6f54c25353dc8d70bafb4858c9756e13bbcb1adba6795b7",
    "conic-heavy": "0f63e833f6220fb54fcfd9376bdbdf6b00d7fc4dc6e193926058bd717f364ac2",
    "conic-light": "6ffa10320d971b3a95258784dcb7cedd45a22915cab1e3fec76bcadd59d51989",
    "conic-tangent": "de317bf6cc083694026e196aca671c237bc6fec930a41dcba8aed2c414a2c4c7",
    "heavy-line": "995b3ea9eef2f096c644e9a953c66d216682f3f629ca494e52db0e1daae49ed3",
    "heavy-line-2-3-6": "29375d5a56d51b09e4162b6a9a2df6e39363a90a98d68a226cc269ffd042af1c",
}

LEVELSET_DIGESTS: dict[str, str] = {
    "four-lines@alpha": "11af75b37188dacd7563327c68f68ade624d7aa3d7669426114039776c7a05f8",
    "four-lines@beta": "4385e1a365cc1ec055d3d9daf785c3bed4053ad96a90a15bfec2dde1f8344c92",
    "six-lines@alpha": "ebf804965e3cddb47631ab65881484740eacb6e66821397582deedadcd4a82a0",
    "six-lines@beta": "a4f2e8d99046312869bad013cca201d5e3a24300cdd9b7cbcb6b7250d25e6d12",
    "three-lines@alpha": "c39a1ec93b3a4dff5899a0b897067023b7b97e32217be8eb4a8c2cfd3a519b89",
    "three-lines@beta": "ea8bf389a257f28dfb8997aee6321ba68914a6247c1f1e30adbf5b60c07f89ef",
    "seven-lines@alpha": "110ee35174dddd8cf274bb1d55ef794d5727a23de04d0cf6b4a0d854b8bede49",
    "seven-lines@beta": "045e47fdde83e101ac7692b9add6efb83955bbfb6e150a50b58d569cf0fc811c",
    "conic-heavy@alpha": "808c4f08c269aa942a9cc119f3e8db9aa0ef51910562cdeb0f266daccdba592b",
    "conic-heavy@beta": "ac371aee31ae314e4a26cd05ff91877582e444993a4cfc9653120d8da9a100ae",
    "conic-light@alpha": "909d8f792e169cf055cc05ec23e4b393dcc1dc879e26a3d716fd9e40cc5ee32f",
    "conic-light@beta": "575607dd07b6815aaaaac5156bf98f7f82b789cbce6931aa33b1c84abfa616ff",
    "conic-tangent@alpha": "8703df3aeee79fdacab8d193064903d14ff0901c5a254237ed5917adcf39eb00",
    "conic-tangent@beta": "575607dd07b6815aaaaac5156bf98f7f82b789cbce6931aa33b1c84abfa616ff",
    "heavy-line@alpha": "d77179509b1c8af90ad988522b6778ef638128c08168cc25ebc4aefaf5d5ae21",
    "heavy-line@beta": "b74ac191d878b2e8eb901f4ba86b952a0983db62128694ffec5468132cedc076",
    "heavy-line-2-3-6@alpha": "eb4329517eba1e6781872732466dbe331df720e9dc369850d305056e25c427ca",
    "heavy-line-2-3-6@beta": "939490e1727c7037ebc79844af5a2a01b1f1bdfa841d172482cfa0761cd7f969",
}


def _digest(argv, tmp_path) -> tuple[int, str]:
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


def _conic_chord_current(conic_weight: Fraction, tangent: bool) -> DivisorCurrent:
    """A projective image of x*z = y^2, six chords through five of its
    rational points and optionally the tangent at the first point, with
    the lines sharing the mass the conic leaves."""
    rows = ((2, 1, 0), (1, -1, 3), (0, 1, 1))

    def image(t):
        v = (t * t, t, 1)
        return Point(*(sum(r[i] * v[i] for i in range(3)) for r in rows))

    pts = [image(t) for t in (-2, -1, 0, 1, 2)]
    (conic,) = conic_space(pts)
    pairs = ((0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (1, 4))
    lines = [line_through(pts[i], pts[j]) for i, j in pairs]
    if tangent:
        lines.append(Line(*conic_gradient(conic, pts[0])))
    raws = [Fraction(k) for k in (3, 1, 4, 1, 5, 2, 9)[: len(lines)]]
    share = (1 - 2 * conic_weight) / sum(raws)
    return DivisorCurrent([(conic_weight, conic)] + [(r * share, l) for r, l in zip(raws, lines)])


def _heavy_line_current(heavy: Line) -> DivisorCurrent:
    """The heavy line at weight 1/2 and five lines sharing the other half."""
    others = [Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 1), Line(1, -2, 3), Line(3, 1, -4)]
    raws = [Fraction(k) for k in (3, 1, 4, 1, 5)]
    share = Fraction(1, 2) / sum(raws)
    return DivisorCurrent([(Fraction(1, 2), heavy)] + [(r * share, l) for r, l in zip(raws, others)])


def _check_documents() -> dict[str, dict]:
    docs = {
        name: serialize.current_to_payload(arr.current, arr.alpha)
        for name, arr in ((n, gallery.build(n)) for n in gallery.NAMES)
    }
    for name, weight, tangent in (("conic-heavy", Fraction(9, 20), False),
                                  ("conic-light", Fraction(3, 10), False),
                                  ("conic-tangent", Fraction(3, 10), True)):
        docs[name] = serialize.current_to_payload(
            _conic_chord_current(weight, tangent), Fraction(9, 20)
        )
    for name, coeffs in HEAVY_LINES.items():
        docs[name] = serialize.current_to_payload(_heavy_line_current(Line(*coeffs)), Fraction(1, 2))
    return docs


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("digest-docs")
    paths = {}
    for name, payload in _check_documents().items():
        path = root / f"{name}.json"
        path.write_text(serialize.dumps(payload))
        paths[name] = (str(path), serialize.parse_rational(payload["alpha"]))
    return paths


@pytest.mark.parametrize("seed", SEARCH_SEEDS)
def test_search_seven_lines(seed, tmp_path):
    code, digest = _digest(["search", *SEVEN_LINES, "--seed", str(seed)], tmp_path)
    assert code == 0
    assert digest == SEARCH_DIGESTS[seed]


@pytest.mark.parametrize("name", sorted(CONIC_SPECS))
def test_search_conics(name, tmp_path):
    code, digest = _digest(["search", *CONIC_SPECS[name]], tmp_path)
    assert code == 0
    assert digest == CONIC_SEARCH_DIGESTS[name]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_check(name, documents, tmp_path):
    path, _ = documents[name]
    _, digest = _digest(["check", path], tmp_path)
    assert digest == CHECK_DIGESTS[name]


def _levelset_argv(path, alpha, at):
    if at == "alpha":
        return ["levelset", path, "--threshold", serialize.format_rational(alpha)]
    return ["levelset", path, "--threshold", serialize.format_rational(beta_of(alpha)), "--strict"]


@pytest.mark.parametrize("at", ["alpha", "beta"])
@pytest.mark.parametrize("name", DOCUMENTS)
def test_levelset(name, at, documents, tmp_path):
    code, digest = _digest(_levelset_argv(*documents[name], at), tmp_path)
    assert code == 0
    assert digest == LEVELSET_DIGESTS[f"{name}@{at}"]
