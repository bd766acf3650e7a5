import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecurrents import cli, serialize
from planecurrents.cli import main
from planecurrents.gallery import build
from planecurrents.projective import Conic, Line, line_in_conic

import corpus
from oracles import combine


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    return corpus.documents(tmp_path_factory.mktemp("instances"))


def test_verify_examples(capsys):
    assert main(["verify-examples"]) == 0
    out = capsys.readouterr().out
    assert "all facts pass" in out
    # the seven-line density of q2, 84/180; test_gallery.test_seven_lines_table
    # keeps the whole table over 180
    assert "seven-lines: lelong-q2 (7/15 (expected 7/15))" in out
    assert out.count("[FAIL]") == 0
    # output is stable across runs
    assert main(["verify-examples"]) == 0
    assert capsys.readouterr().out == out


def test_check_does_not_load_the_gallery(instance_files, tmp_path):
    # a fresh interpreter: only `verify-examples` may import the gallery,
    # and only `search` the harness
    script = (
        "import sys\n"
        "from planecurrents import cli\n"
        "code = cli.main(['check', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'planecurrents.gallery' in sys.modules, 'planecurrents.harness' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, instance_files["six-lines"], str(tmp_path / "six.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "covered (omitted: none)\n0 False False\n", "")
    assert json.loads((tmp_path / "six.json").read_text())["status"] == "covered"


def test_check_covered(instance_files, tmp_path, capsys):
    report_path = tmp_path / "four.json"
    code = main(["check", instance_files["four-lines"], "--alpha", "1/2", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "covered"
    assert report["beta"] == "1/3"
    assert report["verdict"]["kind"] == "covered"
    assert report["verdict"]["omitted"] is not None
    assert len(report["heavy_points"]) == 6
    # no component reaches alpha, so the key is not written
    assert "heavy_curves" not in report


@pytest.mark.parametrize(
    "name, alpha, code",
    [("four-lines", "1/2", 0), ("three-lines", "2/3", 2)],
)
def test_check_reports_byte_identical(instance_files, tmp_path, name, alpha, code):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for path in (first, second):
        assert main(["check", instance_files[name], "--alpha", alpha, "--out", str(path)]) == code
    assert first.read_bytes() == second.read_bytes()


def test_check_precondition_failure(instance_files, tmp_path):
    report_path = tmp_path / "three.json"
    code = main(["check", instance_files["three-lines"], "--alpha", "2/3", "--out", str(report_path)])
    assert code == 2
    report = json.loads(report_path.read_text())
    assert report["status"] == "precondition-failed"
    assert "three" in report["reason"] or "3" in report["reason"]


def test_check_seven_lines_precondition(instance_files):
    assert main(["check", instance_files["seven-lines"], "--alpha", "9/20"]) == 2


def test_check_six_lines_covered_omitting_none(instance_files, tmp_path):
    report_path = tmp_path / "six.json"
    code = main(["check", instance_files["six-lines"], "--alpha", "1/2", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["verdict"]["omitted"] is None
    assert report["verified"] is True


def test_check_records_a_failed_recheck(instance_files, tmp_path, monkeypatch):
    # a wrong witness reads "verified": false, so the field is the re-check
    # of the verdict, not a constant
    import planecurrents.cover as cover_mod

    # x^2 + y^2 = 3z^2 has no rational point, so it misses every heavy point
    wrong = Conic(1, 0, 0, 1, 0, -3)
    monkeypatch.setattr(cover_mod, "conic_cover_check", lambda level: cover_mod.Covered(wrong))
    report_path = tmp_path / "wrong.json"
    code = main(["check", instance_files["six-lines"], "--alpha", "1/2", "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "covered"
    assert report["verdict"]["witness"] == {"kind": "conic", "coefficients": ["1", "0", "0", "1", "0", "-3"]}
    assert report["verified"] is False


def test_check_precondition_reason_names_both_halves(instance_files, tmp_path, capsys):
    report_path = tmp_path / "three.json"
    assert main(["check", instance_files["three-lines"], "--out", str(report_path)]) == 2
    reason = "needs a component of weight >= 2/3 or four points of density >= 2/3, got 3"
    assert json.loads(report_path.read_text())["reason"] == reason
    assert capsys.readouterr().err == f"precondition failed: {reason}\n"


def test_check_alpha_out_of_range(instance_files):
    assert main(["check", instance_files["four-lines"], "--alpha", "1/3"]) == 2


@pytest.mark.parametrize("alpha", ["0", "-1/2"])
def test_check_nonpositive_alpha_is_a_failed_precondition(instance_files, tmp_path, capsys, alpha):
    report_path = tmp_path / "report.json"
    code = main(["check", instance_files["four-lines"], f"--alpha={alpha}", "--out", str(report_path)])
    assert code == 2
    report = json.loads(report_path.read_text())
    assert report["status"] == "precondition-failed"
    assert report["reason"] == f"alpha must exceed 2/5, got {alpha}"
    assert capsys.readouterr().err == f"precondition failed: alpha must exceed 2/5, got {alpha}\n"


def test_check_nonpositive_file_alpha_is_a_failed_precondition(tmp_path):
    arr = build("four-lines")
    path = tmp_path / "zero.json"
    path.write_text(serialize.dumps(serialize.current_to_payload(arr.current, Fraction(0))))
    report_path = tmp_path / "report.json"
    assert main(["check", str(path), "--out", str(report_path)]) == 2
    assert json.loads(report_path.read_text())["reason"] == "alpha must exceed 2/5, got 0"


def test_check_mass_reason_comes_before_alpha(tmp_path):
    arr = build("four-lines")
    path = tmp_path / "half.json"
    path.write_text(serialize.dumps(serialize.current_to_payload(combine((Fraction(1, 2), arr.current)))))
    report_path = tmp_path / "report.json"
    assert main(["check", str(path), "--alpha", "1/5", "--out", str(report_path)]) == 2
    report = json.loads(report_path.read_text())
    assert report["status"] == "precondition-failed"
    assert report["reason"] == "current mass is 1/2, expected exactly 1"


def test_check_tampered_mass(tmp_path):
    arr = build("four-lines")
    payload = serialize.current_to_payload(arr.current, arr.alpha)
    payload["weights"][0] = "1/3"
    path = tmp_path / "tampered.json"
    path.write_text(serialize.dumps(payload))
    assert main(["check", str(path), "--alpha", "1/2"]) == 1


def test_parse_error_positions(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {"lines": [["1", "0", "0"]], "weights": ["1/0"], "alpha": "1/2"}
    path.write_text(json.dumps(payload))
    assert main(["check", str(path), "--alpha", "1/2"]) == 1
    err = capsys.readouterr().err
    assert "weights[0]" in err

    path.write_text("{not json")
    assert main(["lelong", str(path), "--point", "1,0,0"]) == 1


def test_oversized_json_integer_is_a_parse_error(tmp_path):
    # json.loads raises a plain ValueError past the int-digits limit
    path = tmp_path / "huge.json"
    path.write_text('{"lines": [["1", "0", "0"]], "weights": [1%s]}' % ("0" * 5000))
    proc = subprocess.run(
        [sys.executable, "-m", "planecurrents.cli", "levelset", str(path), "--threshold", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exponent_rational_is_a_parse_error(instance_files, capsys):
    for alpha in ("5e-1", "0.5"):
        assert main(["check", instance_files["four-lines"], "--alpha", alpha]) == 1
        assert "parse error" in capsys.readouterr().err


def test_check_empty_alpha_is_a_parse_error(instance_files, tmp_path, capsys):
    # as for search and levelset, not a silent fall back to the file's alpha
    report_path = tmp_path / "report.json"
    assert main(["check", instance_files["four-lines"], "--alpha", "", "--out", str(report_path)]) == 1
    assert capsys.readouterr().err == "parse error: --alpha: invalid rational '' (expected an integer or p/q)\n"
    assert not report_path.exists()


@pytest.mark.parametrize(
    "alpha",
    [f"{5 * 10**4299 - 1}/{10**4300 - 1}", f"{10**34}/{2 * 10**34 + 1}"],
    ids=["4300-digit-denominator", "71-characters"],
)
def test_check_alpha_is_capped_as_a_document_alpha(instance_files, tmp_path, capsys, alpha):
    # beta's denominator had 4,301 digits, which `str` cannot write, and the
    # run ended in a traceback; the flag now has the cap of a document's alpha
    report_path = tmp_path / "report.json"
    assert main(["check", instance_files["four-lines"], "--alpha", alpha, "--out", str(report_path)]) == 1
    assert capsys.readouterr() == ("", f"parse error: --alpha: {len(alpha)} characters, at most 64 are allowed\n")
    assert not report_path.exists()


@pytest.mark.parametrize("missing", [True, False], ids=["missing-dir", "empty"])
def test_unwritable_report_is_an_error(tmp_path, capsys, monkeypatch, missing):
    # an empty --out names a file that cannot be written, as a missing
    # directory does: exit 1 with one line, no traceback and no report on
    # stdout, and no temporary file left behind; the empty path is refused
    # before any file is opened, so no directory it does not name is touched
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"]]}))
    out = str(tmp_path / "missing" / "x.json") if missing else ""
    opened = []
    real_open = os.open

    def recording_open(name, *args, **kwargs):
        opened.append(str(name))
        return real_open(name, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    assert main(["mj", str(path), "--degree", "1", "--out", out]) == 1
    error = f"error: cannot write report to {out!r} (No such file or directory)\n"
    assert capsys.readouterr() == ("", error)
    if missing:
        assert [os.path.dirname(name) for name in opened] == [str(tmp_path / "missing")]
    else:
        assert opened == []
    assert os.listdir(tmp_path) == ["points.json"]
    assert not any(name.startswith(".tmp-") for name in os.listdir(tmp_path.parent))


def test_mj_rejects_too_many_points_before_searching(tmp_path, capsys, monkeypatch):
    # generic points (no three collinear, no six on a conic), on which a
    # search would run through every subset size
    raw = [[str(k), str(k**3), "1"] for k in range(serialize.MAX_POINTS + 1)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": raw}))

    def no_search(points, degree):
        raise AssertionError("the subset search started")

    monkeypatch.setattr(cli, "max_on_curve", no_search)
    assert main(["mj", str(path), "--degree", "2"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_lelong_command(instance_files, capsys):
    code = main(["lelong", instance_files["seven-lines"], "--point", "1,0,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["lelong"] == "7/15"


def test_levelset_command(instance_files, tmp_path, capsys):
    out_path = tmp_path / "level.json"
    code = main(
        [
            "levelset",
            instance_files["three-lines"],
            "--threshold",
            "2/9",
            "--strict",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert len(report["level_set"]["component_curves"]) == 3
    assert report["level_set"]["isolated_points"] == []


def test_mj_command(tmp_path, capsys):
    arr = build("six-lines")
    wide = arr.current.level_set(Fraction(1, 3), strict=False)
    path = tmp_path / "points.json"
    path.write_text(
        serialize.dumps({"points": [serialize.coordinates_to_json(p) for p in wide.isolated_points]})
    )
    assert main(["mj", str(path), "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["max_on_curve"] == 5
    assert main(["mj", str(path), "--degree", "1"]) == 0


def test_mj_counts_a_repeated_point_once(tmp_path, capsys):
    # (1 : 0 : 0) written twice, as [1, 0, 0] and [2, 0, 0]: one point, on
    # one line with itself
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [["1", "0", "0"], ["2", "0", "0"]]}))
    for degree in ("1", "2"):
        assert main(["mj", str(path), "--degree", degree]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["points"] == report["max_on_curve"] == 1


@pytest.mark.parametrize(
    "argv, code, summary, stderr",
    [
        (["check", "six-lines", "--alpha", "1/2"], 0, "covered (omitted: none)\n", ""),
        (["check", "three-lines", "--alpha", "2/3"], 2, "",
         "precondition failed: needs a component of weight >= 2/3 or four points of density >= 2/3, got 3\n"),
        (["lelong", "seven-lines", "--point", "1,0,1"], 0, "7/15\n", ""),
        (["levelset", "three-lines", "--threshold", "2/9", "--strict"], 0,
         "3 component curves, 0 isolated points\n", ""),
        (["mj", "points", "--degree", "1"], 0, "2\n", ""),
        (["search", "--lines", "5", "--trials", "10", "--seed", "7"], 0, "",
         "tried 10, valid 4, covered 4, counterexamples 0 (#s)\n"),
    ],
    ids=["check-covered", "check-precondition-failed", "lelong", "levelset", "mj", "search"],
)
def test_one_output_rule(instance_files, tmp_path, capsys, argv, code, summary, stderr):
    # without --out stdout is the report alone, the bytes --out writes; with
    # --out stdout is the summary line alone; stderr is the same either way
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]}))
    argv = [{**instance_files, "points": str(points)}.get(a, a) for a in argv]
    report_path = tmp_path / "report.json"
    assert main([*argv, "--out", str(report_path)]) == code
    written = capsys.readouterr()
    assert main(argv) == code
    printed = capsys.readouterr()
    assert printed.out == report_path.read_text()
    assert written.out == summary
    timing = re.compile(r"\(\d+\.\d\ds\)$", re.M)
    assert timing.sub("(#s)", written.err) == timing.sub("(#s)", printed.err) == stderr


def test_check_counterexample_exit_code(instance_files, tmp_path, monkeypatch):
    # the theorem guarantees no real counterexample, so force one to pin
    # down the exit-code wiring
    import planecurrents.cli as cli_mod
    from planecurrents.cover import NotCoverable, UncoveredPoints
    from planecurrents.projective import Point

    fake = NotCoverable(UncoveredPoints((Point(1, 0, 0), Point(0, 1, 0))))

    real_evaluate = cli_mod.evaluate_cover

    def fake_evaluate(current, alpha):
        return dataclasses.replace(real_evaluate(current, alpha), verdict=fake)

    monkeypatch.setattr(cli_mod, "evaluate_cover", fake_evaluate)
    report_path = tmp_path / "cex.json"
    code = main(["check", instance_files["four-lines"], "--alpha", "1/2", "--out", str(report_path)])
    assert code == 3
    report = json.loads(report_path.read_text())
    assert report["status"] == "counterexample"
    assert report["verdict"]["obstruction"]["kind"] == "points"


def test_verify_examples_fails_on_broken_fact(monkeypatch, capsys):
    import planecurrents.gallery
    from planecurrents.gallery import Fact

    real_verify = planecurrents.gallery.verify
    monkeypatch.setattr(
        planecurrents.gallery,
        "verify",
        lambda arr: real_verify(arr) + (Fact("forced-failure", False, "injected"),),
    )
    assert main(["verify-examples"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_check_instance_with_conic_component(tmp_path):
    # a unit-mass instance with a conic component entering through the
    # "conics" field of the file format
    payload = {
        "lines": [["1", "0", "0"], ["0", "0", "1"]],
        "conics": [["0", "0", "1", "-1", "0", "0"]],
        "weights": ["1/20", "1/20", "9/20"],
        "alpha": "9/20",
    }
    path = tmp_path / "conic.json"
    path.write_text(json.dumps(payload))
    report_path = tmp_path / "conic-report.json"
    assert main(["check", str(path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "covered"
    conic = {"kind": "conic", "coefficients": ["0", "0", "1", "-1", "0", "0"]}
    assert report["heavy_curves"] == [{"curve": conic, "weight": "9/20"}]
    assert report["heavy_points"] == []
    assert report["verdict"]["witness"] == conic


def test_check_heavy_conic_without_rational_points(instance_files, tmp_path, capsys):
    # x^2 + y^2 = 3z^2 has no rational point, but its weight reaches alpha,
    # so every point on it is heavy and the instance is valid
    report_path = tmp_path / "no-point-report.json"
    assert main(["check", instance_files["heavy-conic"], "--out", str(report_path)]) == 0
    assert capsys.readouterr().out == "covered (omitted: none)\n"
    report = json.loads(report_path.read_text())
    assert report["status"] == "covered"
    assert report["heavy_points"] == []
    conic = {"kind": "conic", "coefficients": ["1", "0", "0", "1", "0", "-3"]}
    assert report["heavy_curves"] == [{"curve": conic, "weight": "1/2"}]
    assert report["level_set"]["component_curves"] == [conic]
    assert report["verdict"] == {"kind": "covered", "witness": conic, "omitted": None}


def test_check_at_alpha_one(instance_files, tmp_path, capsys):
    # beta = (2/3)(1 - 1) = 0: the strict level set at 0 is every component
    # curve and no point, so the one line of weight 1 is its own witness
    report_path = tmp_path / "alpha-one-report.json"
    assert main(["check", instance_files["alpha-one"], "--out", str(report_path)]) == 0
    assert capsys.readouterr().out == "covered (omitted: none)\n"
    report = json.loads(report_path.read_text())
    assert report["beta"] == "0" and report["level_set"]["threshold"] == "0"
    line = {"kind": "line", "coefficients": ["0", "0", "1"]}
    assert report["level_set"]["component_curves"] == [line]
    assert report["level_set"]["isolated_points"] == []
    assert report["verdict"]["kind"] == "covered" and report["verdict"]["omitted"] is None
    assert _is_component(Line(0, 0, 1), _parse_curve(report["verdict"]["witness"]))
    assert report["verified"] is True


def _parse_curve(document):
    cls = Line if document["kind"] == "line" else Conic
    return serialize.parse_coordinates(cls, document["coefficients"], document["kind"])


def _is_component(curve, witness):
    if isinstance(curve, Line) and isinstance(witness, Conic):
        return line_in_conic(curve, witness)
    return curve == witness


@pytest.mark.parametrize(
    "payload, heavy_curves, heavy_points",
    [
        # z = 0 at weight exactly alpha; (0:0:1), where x = 0 and y = 0
        # meet, is an isolated heavy point off it
        (
            {"lines": [["0", "0", "1"], ["1", "0", "0"], ["0", "1", "0"]],
             "weights": ["1/2", "1/4", "1/4"], "alpha": "1/2"},
            [({"kind": "line", "coefficients": ["0", "0", "1"]}, "1/2")],
            [(["0", "0", "1"], "1/2")],
        ),
        # two lines of weight 1/2, listed in component order
        (
            {"lines": [["2", "3", "6"], ["1", "0", "-1"]], "weights": ["1/2", "1/2"],
             "alpha": "1/2"},
            [({"kind": "line", "coefficients": ["1", "0", "-1"]}, "1/2"),
             ({"kind": "line", "coefficients": ["1", "3/2", "3"]}, "1/2")],
            [],
        ),
    ],
)
def test_check_reports_heavy_curves(tmp_path, payload, heavy_curves, heavy_points):
    path, report_path = tmp_path / "heavy.json", tmp_path / "heavy-report.json"
    path.write_text(json.dumps(payload))
    assert main(["check", str(path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["heavy_curves"] == [{"curve": c, "weight": w} for c, w in heavy_curves]
    assert report["heavy_points"] == [{"point": p, "lelong": nu} for p, nu in heavy_points]
    # a heavy curve has weight >= alpha > beta, so every witness holds it
    assert report["verdict"]["kind"] == "covered"
    witness = _parse_curve(report["verdict"]["witness"])
    for entry in report["heavy_curves"]:
        curve = _parse_curve(entry["curve"])
        assert _is_component(curve, witness)


def test_search_deterministic_reports(tmp_path):
    args = [
        "search", "--lines", "5", "--trials", "60", "--seed", "7",
        "--alpha", "1/2", "--coeff-bound", "5",
    ]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["counterexamples"] == []
    assert report["valid"] > 0


@pytest.mark.parametrize("bound, code", [(2**62, 1), (2**31 + 1, 1), (2**31, 0)])
def test_search_coeff_bound_is_capped(tmp_path, bound, code):
    # 2**62 and above once ended in an OverflowError from the draw range
    proc = subprocess.run(
        [sys.executable, "-m", "planecurrents.cli", "search", "--lines", "5", "--trials", "3",
         "--coeff-bound", str(bound), "--out", str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code:
        assert proc.stderr == "search: coefficient_bound must be at most 2**31 = 2147483648\n"


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "planecurrents.cli", *argv], capture_output=True, text=True, timeout=10
    )


def test_search_rejects_alpha_above_one(tmp_path):
    proc = _run_cli("search", "--lines", "5", "--alpha", "3/2", "--trials", "30", "--out", str(tmp_path / "report.json"))
    assert (proc.returncode, proc.stderr) == (1, "search: alpha must be at most 1, got 3/2\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("conics", ["2", "100000000"])
def test_search_rejects_two_or_more_conics(tmp_path, conics):
    # two conics never made a valid draw, and a huge count hung drawing them
    proc = _run_cli("search", "--conics", conics, "--trials", "1", "--out", str(tmp_path / "report.json"))
    assert (proc.returncode, proc.stderr) == (1, f"search: n_conics must be 0 or 1, got {conics}\n")


@pytest.mark.parametrize(
    "count, first, error",
    [
        (serialize.MAX_CURVES, "1" + "0" * 63, None),
        (serialize.MAX_CURVES + 1, "0", "$: 101 lines and conics, at most 100 are allowed"),
        (3, "1" + "0" * 64, "lines[0][0]: 65 characters, at most 64 are allowed"),
    ],
    ids=["at-both-caps", "curves-over", "coefficient-over"],
)
def test_check_caps_instance_documents(tmp_path, count, first, error):
    # `count` lines k*x = y, the first with k = first and weight alpha = 1/2
    lines = [[first, "-1", "0"]] + [[str(k), "-1", "0"] for k in range(1, count)]
    weights = ["1/2"] + [f"1/{2 * (count - 1)}"] * (count - 1)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"lines": lines, "weights": weights, "alpha": "1/2"}))
    proc = _run_cli("check", str(path), "--out", str(tmp_path / "report.json"))
    if error:
        assert (proc.returncode, proc.stderr) == (1, f"parse error: {error}\n")
    else:
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert json.loads((tmp_path / "report.json").read_text())["verified"] is True


@pytest.mark.parametrize(
    "command, flags",
    [("check", ["--alpha", "1/2"]), ("lelong", ["--point", "1,1,1"]), ("levelset", ["--threshold", "1/2"]),
     ("mj", ["--degree", "2"])],
    ids=["check", "lelong", "levelset", "mj"],
)
def test_deeply_nested_json_is_a_parse_error(instance_files, tmp_path, command, flags):
    # json.load raised RecursionError on 200,000 nested arrays, and Python
    # printed a traceback
    path = instance_files["deep"]
    report = tmp_path / "report.json"
    proc = _run_cli(command, str(path), *flags, "--out", str(report))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"parse error: {path}: invalid JSON (") and proc.stderr.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize(
    "digits, error",
    [
        (62, "weights: the common denominator of the weights has more than 1000 digits"),
        (4000, "weights[0]: 4002 characters, at most 64 are allowed"),
    ],
    ids=["64-character-weights", "4000-digit-weights"],
)
def test_check_caps_weights(tmp_path, capsys, digits, error):
    # 100 lines k*x = y of weights 1/(10**(digits - 1) + k): the mass in the
    # report had thousands of digits, past the interpreter's limit on
    # int-to-text conversion, and the report ended in a traceback
    lines = [[str(k), "-1", "0"] for k in range(100)]
    weights = [f"1/{10 ** (digits - 1) + k}" for k in range(100)]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"lines": lines, "conics": [], "weights": weights}))
    report = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(["check", str(path), "--alpha", "1/2", "--out", str(report)]) == 1
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == ("", f"parse error: {error}\n")
    assert not report.exists()


@pytest.mark.parametrize(
    "name, message",
    [
        ("irrational", "Line(1, 0, 0) meets Conic(1, 0, 0, 1, 0, -3) in points with irrational coordinates"),
        ("two-conics", "intersections of two conic components are not representable over the rationals"),
    ],
    ids=["line-conic", "two-conics"],
)
def test_check_irrational_meets_is_an_error(instance_files, tmp_path, name, message):
    # the incidence map raises on the first pair without rational meets:
    # exit 1, one stderr line and no report
    proc = _run_cli("check", instance_files[name], "--out", str(tmp_path / "report.json"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "report.json").exists()


def test_check_mass_fails_before_irrational_meets(instance_files, tmp_path, capsys):
    # mass 3/4 and irrational meets: the mass fails before the incidence
    # map looks for heavy points, also at an alpha above 2/5
    out = tmp_path / "report.json"
    assert main(["check", instance_files["light-irrational"], "--alpha", "1/2", "--out", str(out)]) == 2
    reason = "current mass is 3/4, expected exactly 1"
    assert capsys.readouterr() == ("", f"precondition failed: {reason}\n")
    report = json.loads(out.read_text())
    assert (report["status"], report["reason"]) == ("precondition-failed", reason)


@pytest.mark.parametrize("lines, code", [("100", 0), ("101", 1)])
def test_search_caps_lines(tmp_path, lines, code):
    # so that `check` reads every counterexample payload back; from 67 lines
    # on, every draw was already skipped-degenerate
    out = tmp_path / "report.json"
    proc = _run_cli("search", "--lines", lines, "--trials", "3", "--out", str(out))
    assert proc.returncode == code and "Traceback" not in proc.stderr
    if code:
        assert proc.stderr == "search: n_lines + n_conics must be at most 100, got 101\n"
    else:
        assert json.loads(out.read_text())["skipped"] == {"skipped-degenerate": 3}


@pytest.mark.parametrize("command", ["mj", "lelong"])
@pytest.mark.parametrize("length", [serialize.MAX_COEFFICIENT_LENGTH, serialize.MAX_COEFFICIENT_LENGTH + 1])
def test_point_coordinates_are_capped(tmp_path, instance_files, command, length):
    # the degree-2 bracket tests multiply determinants of the coordinates:
    # 12 points of 4,000 digits took seconds
    big = "1" + "0" * (length - 1)
    if command == "mj":
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [[big, "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
        proc = _run_cli("mj", str(path), "--degree", "2", "--out", str(tmp_path / "mj.json"))
        where, printed = "points[0][0]", "3\n"
    else:
        # (big : 1 : 0) lies on z = 0 alone among the four lines
        proc = _run_cli("lelong", instance_files["four-lines"], "--point", f"{big},1,0",
                        "--out", str(tmp_path / "lelong.json"))
        where, printed = "--point[0]", "1/4\n"
    assert "Traceback" not in proc.stderr
    if length > serialize.MAX_COEFFICIENT_LENGTH:
        error = f"parse error: {where}: {length} characters, at most 64 are allowed\n"
        assert (proc.returncode, proc.stderr) == (1, error)
    else:
        assert (proc.returncode, proc.stdout) == (0, printed)


def test_search_checks_every_draw_of_a_huge_alpha(tmp_path):
    # a 4,000-digit alpha near 1/2 gives weights of over 13,000 bits; every
    # draw is still decided or skipped for a reason other than its size
    alpha = f"{5 * 10**3999 + 1}/{10**4000 - 1}"
    out = tmp_path / "report.json"
    assert main(["search", "--lines", "7", "--trials", "20", "--alpha", alpha, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "skipped-overflow" not in report["skipped"]
    assert sum(report["skipped"].values()) + report["valid"] == report["trials"] == 20
    assert report["valid"] > 0 and report["covered"] == report["valid"]


@pytest.mark.parametrize(
    "alpha", [f"{'1' * 40000}/{'3' * 40000}", "x" * 5000], ids=["over-int-limit", "not-a-rational"]
)
def test_long_rational_error_is_short(tmp_path, alpha):
    # the message once repeated the whole string: 80,187 bytes of stderr
    proc = _run_cli("search", "--trials", "1", "--alpha", alpha, "--out", str(tmp_path / "report.json"))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 1000
    assert f"--alpha: invalid rational of {len(alpha)} characters" in proc.stderr


def test_search_usage_errors(capsys):
    assert main(["search", "--lines", "5", "--trials", "0"]) == 1
    assert main(["search", "--lines", "2", "--trials", "1"]) == 1


def test_unknown_flag_exits_one():
    assert main(["check", "--bogus"]) == 1


def test_repeated_main_calls_share_no_parsed_state(tmp_path, capsys):
    # main reuses one parser: appended --alpha values must not carry over
    argv = ["search", "--lines", "5", "--alpha", "9/20", "--alpha", "1/2", "--trials", "1"]
    reports = []
    for k in range(2):
        out = tmp_path / f"search-{k}.json"
        assert main([*argv, "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["spec"]["alphas"] == ["9/20", "1/2"]
    capsys.readouterr()
    assert main(["search", "--bogus", "--trials", "1"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main([*argv, "--out", str(tmp_path / "again.json")]) == 0
    assert (tmp_path / "again.json").read_text() == reports[0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "planecurrents.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1  # missing subcommand is a usage error
    assert "usage:" in proc.stderr


def test_module_invocation_verify(capsys):
    # direct main() covers the console-script path; run one end-to-end too
    proc = subprocess.run(
        [sys.executable, "-c", "from planecurrents.cli import main; raise SystemExit(main(['verify-examples']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "all facts pass" in proc.stdout


# Raw JSON for the fuzz documents: HUGE stands for a JSON integer past the
# 4300-digit limit, which json.dumps itself cannot write.
HUGE = "<huge integer>"
_bad_values = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(),
    st.just(HUGE),
    st.lists(st.integers(-3, 3), max_size=3),
    st.sampled_from(["1e5", "5E-1", "0.5", ".5", "1_000", "", " ", "x", "1/0", "1/2/3", "٣"]),
    st.just("9" * 4400),
)
_small = st.sampled_from([1, -1, 2, -2, 0, 3])
_rationals = st.one_of(
    _small,
    _small.map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-(10**30), 10**30).map(str),
)


def _mostly(good, bad):
    """`good` nine times in ten, else `bad`, so that some documents are
    valid and reach the search or the verdict."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else good)


def _vectors(size):
    """Coefficient lists of one size, or now and then one with a bad entry,
    the zero vector, a list of another size or no list at all."""
    entry = _mostly(_rationals, _bad_values)
    return _mostly(
        st.lists(_rationals, min_size=size, max_size=size),
        st.one_of(
            st.lists(entry, min_size=size, max_size=size),
            st.just(["0"] * size),
            st.lists(entry, max_size=size + 2),
            _bad_values,
        ),
    )


@st.composite
def _points_documents(draw):
    n = draw(st.integers(0, serialize.MAX_POINTS + 1))
    points = draw(st.lists(_vectors(3), min_size=n, max_size=n))
    return draw(_mostly(st.just({"points": points}), st.one_of(_bad_values, st.just({}))))


@st.composite
def _instance_documents(draw):
    n_lines = draw(st.integers(0, 6))
    n_conics = draw(st.integers(0, min(2, 6 - n_lines)))
    mass = n_lines + 2 * n_conics  # a weight of 1/mass each gives mass 1
    doc = {
        "lines": draw(st.lists(_vectors(3), min_size=n_lines, max_size=n_lines)),
        "conics": draw(st.lists(_vectors(6), min_size=n_conics, max_size=n_conics)),
        "weights": draw(
            _mostly(
                st.just([f"1/{mass}"] * (n_lines + n_conics)),
                st.one_of(st.lists(_mostly(_rationals, _bad_values), max_size=7), _bad_values),
            )
        ),
        "alpha": draw(_mostly(st.sampled_from(["9/20", "1/2", "3/5", "2/5", "1"]), _bad_values)),
    }
    for key in draw(_mostly(st.just(()), st.sets(st.sampled_from(sorted(doc)), max_size=2))):
        del doc[key]
    return draw(_mostly(st.just(doc), _bad_values))


def _fuzz_run(document, argv):
    text = json.dumps(document).replace(json.dumps(HUGE), "7" * 4400)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "doc.json")
        with open(path, "w") as handle:
            handle.write(text)
        return main([argv[0], path, *argv[1:], "--out", os.path.join(root, "report.json")])


# The slowest example measured was a valid 12-point mj document at degree
# 2, 0.15 s on a 2-vCPU Xeon; the deadline leaves more than ten times that.
@settings(deadline=timedelta(seconds=2), max_examples=150)
@given(document=_points_documents(), degree=st.sampled_from(["1", "2"]))
def test_fuzz_mj_exit_codes(document, degree):
    assert _fuzz_run(document, ["mj", "--degree", degree]) in (0, 1, 2, 3)


@settings(deadline=timedelta(seconds=2), max_examples=150)
@given(document=_instance_documents())
def test_fuzz_check_exit_codes(document):
    assert _fuzz_run(document, ["check"]) in (0, 1, 2, 3)
