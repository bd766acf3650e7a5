"""Golden SHA-256 digests of CLI report bytes.

Reports are part of the behaviour contract: the same input and seed must
give byte-identical `search`, `check` and `levelset` output across
refactors and speed-ups. The `levelset` digests were recorded from the
code before the incidence-map level sets went in. The `search` and
`check` digests pin the report format without the bit-size cap: `search`
reports carry no `bit_cap` in their spec and no `max_bit_size`,
`profile_counts`, `m2_min` or `m2_max`; `check` reports carry
`"verified"`, the `verify_verdict` re-check of the verdict, in place of
`witness_contains_heavy_points`, and a failed precondition names both
halves of the rule (a component of weight >= alpha, or four points of
density >= alpha). A mismatch means a report changed. Regenerate a table
only for a deliberate, documented format change, by printing
`_digest(...)` for each entry.
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
}
# draw paths the seven-line specs miss: uniform weights (no heavy-line
# strategy), four lines (pencils without extras), nine lines (pencil
# extras drawn after the six anchor lines), the smallest coefficient bound
# (many repeated points and lines) and a conic with six chords
DRAW_SPECS = {
    "lines-6-uniform": ("--lines", "6", "--weight-scheme", "uniform", "--alpha", "9/20",
                        "--alpha", "1/2", "--trials", "40", "--seed", "3"),
    "lines-4": ("--lines", "4", "--alpha", "9/20", "--alpha", "1/2", "--alpha", "3/5",
                "--trials", "40", "--seed", "4"),
    "lines-9": ("--lines", "9", "--alpha", "9/20", "--alpha", "1/2", "--trials", "40", "--seed", "9"),
    "coeff-bound-1": ("--lines", "5", "--coeff-bound", "1", "--alpha", "9/20", "--alpha", "1/2",
                      "--trials", "40", "--seed", "1"),
    "conics-1-lines-6": ("--lines", "6", "--conics", "1", "--alpha", "9/20", "--alpha", "41/100",
                         "--trials", "30", "--seed", "2"),
}

# a heavy line is reported as a curve under `heavy_curves`, with its weight,
# and none of its points under `heavy_points`; these documents pin that key
# for a line with integer coefficients 1, 0, -1 and one, 2x + 3y + 6z = 0,
# whose rational form (1, 3/2, 3) is not an integer triple
HEAVY_LINES = {"heavy-line": (1, 0, -1), "heavy-line-2-3-6": (2, 3, 6)}
DOCUMENTS = (*gallery.NAMES, "conic-heavy", "conic-light", "conic-tangent", *HEAVY_LINES)

SEARCH_DIGESTS: dict[int, str] = {
    0: "ec53760c1130e42967f006b79c14503ca2e845db811a541f8b585374f203e786",
    205: "516bc5f8177de3858c90a56bb722ee76ff0cf92702ecffd73210bf63abac97b9",
    410: "8537c0c4592c7cea11940422d1a9b68b336655dac4865bf664dd46c48e7784f2",
    615: "026a7d6e1f8377639894a9c741b3e6c9c7c24b2ce717ddc31ec9d027d2d1feee",
    820: "dde95f7cf0775e277e539a0b60ada38af8a495b7cec9768dc9f431a4c0af2b17",
    1025: "aab759e02e44e817e5b8354cfb2719aab3a5c67683d0be06137f04c3ef7d9215",
    1230: "241d3544711034f2de2c8449d4eea6daf3f3db0e66b3c1fd044c6c5b19789187",
    1435: "14e5b175ffbde66b647a2500274cd3bba46c5a72b73fa1b7fa5688f0f66c0a7b",
    1640: "0c2d81401f1e62eb8c3cff3cf4dbc5902c106491029a5f3d806ddd178753c5c0",
    1845: "1b5216cff840b3c68eff24b502b5dd0043e93c6720d9b39e32ee8aec65db15ae",
    2050: "f78b004811d97bad85f9e5a89c8335818ee1a9c2082ab5c257f39c5eb9d55048",
    2255: "95104a524729ea3e55fc0fe3ce12d383ef7e1d2abbef6466bd38ac5458e3a203",
    2460: "817609323598139c52ac01197cb138020a76aa54b3f4c1b3ac76d59e6e9f8c8b",
    2665: "731d828197e4cd919578d1b9b73ac288afc9a5ad8ca065d30222e40d10bbddb2",
    2870: "2d262cc70e7dfb6e74af759396d2aa36f02bdc019c26646653d00d146c401653",
    3075: "0f80539d04d741a422978feaba4cafcb63f1f96fbc02a6fb77c20f7be6e20e03",
    3280: "755a44f21d142b284ca6af9701a1fc42a2c8b547d4665cb60ec1f60879b6275c",
    3485: "5ee21c138e34dfb4965a9077b99c93789ad08bca38d4f11cbf452c39b41859dd",
    3690: "792d08f1876c5fd047489ff95840ebf06c588bdeac0ccb293379cdd57367d271",
    3895: "b4776914b8856086f37ffd61aa628bb82f22623990b71d90ad266b5c13179416",
}

CONIC_SEARCH_DIGESTS: dict[str, str] = {
    "conics-1": "c204be6379962c8e02de763378c7f952f5d8ca28978e6cfeea5a17885393f450",
}

DRAW_DIGESTS: dict[str, str] = {
    "lines-6-uniform": "11e4e5d6c2685184b14b6c1fbdce3aa1a400f0dd93824373e9cdd454c63db552",
    "lines-4": "de92d238767683ead7195e04e79bda61653a5c38e7b77f6432182e69509dec35",
    "lines-9": "27fb3086a97dda38036c6665fedd6378fa57d2fc4ce425f3a67d306f1db3af03",
    "coeff-bound-1": "80c6b57585c76a0efb94e043b11cd54b339b05aefe41f71aabbdeb63c994878e",
    "conics-1-lines-6": "655876c743dc4de17055bb94908b21e6a9a65ee821cbd17d283366c57b37d4cb",
}

CHECK_DIGESTS: dict[str, str] = {
    "four-lines": "51421bf42383c63607f88f98e7065b1751da833190fc3f77d7909add2ad12fdd",
    "six-lines": "bc9e6f9486759152b2a0e8fa1d2c8e7d072aa66949042eee585c53a22c0957b1",
    "three-lines": "f7fcfe9a9b24bc9deab7a228194c811c30f05f9128e2957061acd20a3c766da1",
    "seven-lines": "f386ae06dc086f9e4bab7fd59e3aec18d004d742f347d9f854589a01368efc60",
    "quadrangle": "381a45fd3a8b3fa419a22605b5602acfe6a1207f489dfb37513bad77439a44cc",
    "conic-heavy": "dd2657b77262e24270e36f2bae4bdee9a9f7a6ca0fe0296cd0720a4139a11788",
    "conic-light": "f91408c456b6ef6aa3b8264a55778f393734567c07bcf809e6305deef5c600c8",
    "conic-tangent": "0a46fb75db268dfd3e67d47ca829189b5f909db3011eeb0b8684c513db0b4fa8",
    "heavy-line": "3688d7b12f6ea946387051f016dd94978579aeea863b7f8bb3cdf83800cb5928",
    "heavy-line-2-3-6": "943c8f88e82de3de5c13ff6b0ddecd24155687b4a694ad93fd7a22ff017b518e",
}

# `verify-examples` prints `repr` of gallery verdicts and level sets, so
# this digest of its stdout pins those reprs too
VERIFY_EXAMPLES_DIGEST = "d46c4a644f8ccfc36fda83b89adf35ef3637623f32b774af430f0954dd660c8b"

LEVELSET_DIGESTS: dict[str, str] = {
    "four-lines@alpha": "11af75b37188dacd7563327c68f68ade624d7aa3d7669426114039776c7a05f8",
    "four-lines@beta": "4385e1a365cc1ec055d3d9daf785c3bed4053ad96a90a15bfec2dde1f8344c92",
    "six-lines@alpha": "ebf804965e3cddb47631ab65881484740eacb6e66821397582deedadcd4a82a0",
    "six-lines@beta": "a4f2e8d99046312869bad013cca201d5e3a24300cdd9b7cbcb6b7250d25e6d12",
    "three-lines@alpha": "c39a1ec93b3a4dff5899a0b897067023b7b97e32217be8eb4a8c2cfd3a519b89",
    "three-lines@beta": "ea8bf389a257f28dfb8997aee6321ba68914a6247c1f1e30adbf5b60c07f89ef",
    "seven-lines@alpha": "110ee35174dddd8cf274bb1d55ef794d5727a23de04d0cf6b4a0d854b8bede49",
    "seven-lines@beta": "045e47fdde83e101ac7692b9add6efb83955bbfb6e150a50b58d569cf0fc811c",
    "quadrangle@alpha": "2d4b10a61a12d781b87fe527909456d17a93063a843448fe645105750b1cd588",
    "quadrangle@beta": "aa95f6a87f140722c941265e1421fada99036a7ea2a98ee4260de1e58cb739c8",
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


@pytest.mark.parametrize("name", sorted(DRAW_SPECS))
def test_search_draw_paths(name, tmp_path):
    code, digest = _digest(["search", *DRAW_SPECS[name]], tmp_path)
    assert code == 0
    assert digest == DRAW_DIGESTS[name]


@pytest.mark.parametrize("name", DOCUMENTS)
def test_check(name, documents, tmp_path):
    path, _ = documents[name]
    _, digest = _digest(["check", path], tmp_path)
    assert digest == CHECK_DIGESTS[name]


def _levelset_argv(path, alpha, at):
    if at == "alpha":
        return ["levelset", path, "--threshold", str(alpha)]
    return ["levelset", path, "--threshold", str(beta_of(alpha)), "--strict"]


@pytest.mark.parametrize("at", ["alpha", "beta"])
@pytest.mark.parametrize("name", DOCUMENTS)
def test_levelset(name, at, documents, tmp_path):
    code, digest = _digest(_levelset_argv(*documents[name], at), tmp_path)
    assert code == 0
    assert digest == LEVELSET_DIGESTS[f"{name}@{at}"]


def test_verify_examples_stdout(capsys):
    assert main(["verify-examples"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_EXAMPLES_DIGEST
