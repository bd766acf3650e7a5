"""The three benchmark workloads: seeded inputs, the timed operation and
the output check for each.

A workload is built from `(pc, seed, workdir)`: `pc` holds the imported
`planecurrents` modules, and every call into them goes through a module
attribute so that the traced run can rebind it. `inputs(p)` makes the
inputs of pass p from (seed, p), so no input repeats between passes;
`None` means no pass p can be made. `run(x)` is the timed operation on
input x; `check(x, result)` returns None when the output is right and a
message when it is not; `digest(inputs)` identifies a pass's inputs. One
pass does `units_per_pass` units of work (trials, documents or point sets).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

import geometry as g

ALPHAS = (Fraction(9, 20), Fraction(1, 2), Fraction(3, 5))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _rand_point(rng, bound):
    while True:
        p = tuple(rng.randint(-bound, bound) for _ in range(3))
        if any(p):
            return g.prim(p)


def _rand_line(rng):
    while True:
        p, q = _rand_point(rng, 5), _rand_point(rng, 5)
        if p != q:
            return g.join(p, q)


def _rand_param(rng, bound):
    """A point (s : t) of the projective line."""
    while True:
        s, t = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if s or t:
            return g.prim((s, t))


def _distinct(draw, count):
    out = []
    while len(out) < count:
        x = draw()
        if x not in out:
            out.append(x)
    return out


def _curve_of(doc) -> tuple[int, ...]:
    return g.prim(Fraction(c) for c in doc["coefficients"])


def _point_of(coords) -> tuple[int, ...]:
    return g.prim(Fraction(c) for c in coords)


EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "search_expected.txt")


def load_expected() -> list[tuple[int, int, int]]:
    """(valid, covered, not_coverable) of the search report for each
    `--seed` of the pool, by line; see expected.py."""
    with open(EXPECTED) as handle:
        return [tuple(map(int, line.split())) for line in handle if not line.startswith("#")]


class Search:
    """`planecurrents search` on the seven-line random-weight spec, ten
    trials per call. The `--seed` values come from a fixed pool of
    len(search_expected.txt) seeds, in an order drawn from the benchmark
    seed; each pass takes the next forty, so no seed runs twice in the
    timed passes, and the run ends early if the pool runs out."""

    name = "search"
    CALLS = 40
    TRIALS = 10
    SPEC = ("--lines", "7", "--weight-scheme", "random",
            "--alpha", "9/20", "--alpha", "1/2", "--alpha", "3/5")
    reports: dict[int, bytes] = {}  # by --seed, kept across set-ups

    def __init__(self, pc, seed, workdir):
        self.pc = pc
        self.expected = load_expected()
        self.order = list(range(len(self.expected)))
        random.Random(f"search:{seed}").shuffle(self.order)
        self.out = os.path.join(workdir, "search.json")
        self.units_per_pass = self.CALLS * self.TRIALS

    @classmethod
    def argv(cls, cli_seed, out):
        return ["search", *cls.SPEC, "--seed", str(cli_seed),
                "--trials", str(cls.TRIALS), "--out", out]

    def inputs(self, p):
        chunk = self.order[p * self.CALLS:(p + 1) * self.CALLS]
        return chunk if len(chunk) == self.CALLS else None

    def run(self, cli_seed):
        code = self.pc.cli.main(self.argv(cli_seed, self.out))
        with open(self.out, "rb") as handle:
            return code, handle.read()

    def check(self, cli_seed, result):
        code, data = result
        if code != 0:
            return f"exit code {code}"
        report = json.loads(data)
        if report["counterexamples"] or report["tried"] != self.TRIALS:
            return "counterexamples reported or trials missing"
        counts = (report["valid"], report["covered"], report["not_coverable"])
        if counts != self.expected[cli_seed]:
            return f"--seed {cli_seed}: valid/covered/not_coverable {counts}, expected {self.expected[cli_seed]}"
        if sum(report["skipped"].values()) != self.TRIALS - report["valid"]:
            return "skipped and valid draws do not add up to the trials"
        if self.reports.setdefault(cli_seed, data) != data:
            return "report differs from an earlier run with the same --seed"
        return None

    def digest(self, inputs):
        reports = b"".join(self.reports.get(s, b"") for s in inputs)
        return {"inputs": _sha(json.dumps(inputs).encode()), "reports": _sha(reports)}


def _normalize(raws):
    total = sum(raws)
    return [Fraction(r) / total for r in raws]


class Check:
    """`planecurrents check` on a seeded corpus of instance documents.

    Five kinds, equally many of each: line pencils (four anchors and the
    six lines joining them, plus one line), heavy-line documents (one line
    of weight >= alpha, so always valid), scattered lines (mostly below the
    four-heavy-point precondition), and one conic with chords through five
    of its rational points, with the conic weight at or above alpha
    ("conic-heavy") or below it ("conic-light")."""

    name = "check"
    PER_KIND = 80
    KINDS = ("pencil", "heavy-line", "scatter", "conic-heavy", "conic-light")

    def __init__(self, pc, seed, workdir):
        self.pc = pc
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "check.json")
        self.units_per_pass = self.PER_KIND * len(self.KINDS)

    def inputs(self, p):
        """(document path, document, expected exit and level set) of each
        document of pass p; the files of the previous pass are overwritten."""
        rng = random.Random(f"check:{self.seed}:{p}")
        out = []
        for _ in range(self.PER_KIND):
            for kind in self.KINDS:
                doc, expected = self._build(rng, kind)
                path = os.path.join(self.workdir, f"doc-{len(out):04d}.json")
                with open(path, "w") as handle:
                    json.dump(doc, handle)
                out.append((path, doc, expected))
        return out

    def _build(self, rng, kind):
        alpha = rng.choice(ALPHAS)
        chords = {}
        conics = []
        if kind == "pencil":
            while True:
                a = _distinct(lambda: _rand_point(rng, 5), 4)
                if all(g.det3(t) != 0 for t in (a[:3], a[1:], (a[0], a[1], a[3]), (a[0], a[2], a[3]))):
                    break
            pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]
            lines = [g.join(a[i], a[j]) for i, j in pairs]
            while len(lines) < 7:
                cand = _rand_line(rng)
                if cand not in lines:
                    lines.append(cand)
            weights = _normalize([rng.randint(1, 16) for _ in lines])
        elif kind in ("heavy-line", "scatter"):
            lines = _distinct(lambda: _rand_line(rng), 7)
            if kind == "scatter":
                weights = _normalize([rng.randint(1, 16) for _ in lines])
            else:
                first = min(alpha + Fraction(rng.randint(0, 4), 20) * (1 - alpha), Fraction(9, 10))
                weights = [first] + [w * (1 - first) for w in _normalize([rng.randint(1, 16) for _ in lines[1:]])]
        else:
            while True:
                m = [[rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-2, 2)],
                     [rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-2, 2)],
                     [1, rng.randint(-2, 2), rng.randint(-2, 2)]]
                m = tuple(tuple(r) for r in m)
                if g.det3(m) != 0:
                    break
            conic = g.image_conic(m)
            params = _distinct(lambda: _rand_param(rng, 3), 5)
            base = [g.image_point(m, s, t) for s, t in params]
            pairs = [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)]
            lines = [g.join(base[i], base[j]) for i, j in pairs]
            chords = {line: (base[i], base[j]) for line, (i, j) in zip(lines, pairs)}
            conics = [conic]
            if kind == "conic-heavy":
                # validity then rests on the program finding points of the
                # conic: M maps (1 : 0 : 0) to (m00 : m10 : 1), a point of
                # small height that its bounded search reaches
                alpha = Fraction(9, 20)
                wc = alpha + Fraction(rng.randint(0, 9), 200)
            else:
                wc = Fraction(rng.randint(4, 8), 32)
            weights = [w * (1 - 2 * wc) for w in _normalize([rng.randint(1, 16) for _ in lines])] + [wc]
        curves = lines + conics
        components = list(zip(curves, weights))
        doc = {
            "lines": [[str(c) for c in line] for line in lines],
            "conics": [[str(c) for c in conic] for conic in conics],
            "weights": [str(w) for w in weights],
            "alpha": str(alpha),
        }
        points = g.intersections(curves, chords)
        heavy_curves, heavy_points = g.level_set(components, points, alpha, strict=False)
        if heavy_curves or len(heavy_points) >= 4:
            beta = Fraction(2, 3) * (1 - alpha)
            level = g.level_set(components, points, beta, strict=True)
            return doc, (0, level)
        return doc, (2, None)

    def run(self, doc):
        code = self.pc.cli.main(["check", doc[0], "--out", self.out])
        with open(self.out) as handle:
            return code, handle.read()

    def check(self, doc, result):
        code, text = result
        want, level = doc[2]
        if code != want:
            return f"exit code {code}, expected {want}"
        report = json.loads(text)
        if want == 2:
            return None if report["status"] == "precondition-failed" else "status"
        curves, isolated = level
        got = report["level_set"]
        if {_curve_of(c) for c in got["component_curves"]} != curves:
            return "level-set component curves differ"
        if {_point_of(p) for p in got["isolated_points"]} != isolated:
            return "level-set isolated points differ"
        verdict = report["verdict"]
        if report["status"] != "covered" or verdict["kind"] != "covered":
            return "not covered"
        witness = _curve_of(verdict["witness"])
        omitted = None if verdict["omitted"] is None else _point_of(verdict["omitted"])
        if len(witness) != 6 or not g.witness_covers(witness, curves, isolated, omitted):
            return "witness does not cover the level set"
        return None

    def digest(self, inputs):
        docs = json.dumps([doc for _, doc, _ in inputs], sort_keys=True).encode()
        codes = bytes(expected[0] for _, _, expected in inputs)
        return {"inputs": _sha(docs), "expected_exits": _sha(codes)}


class Points:
    """`max_on_curve` at degrees 1 and 2 and both cover checks (with their
    certificates verified) on finite level sets of 7 to 11 points: generic
    sets, and sets with 0, 1 or 2 points off a planted smooth conic or
    line pair; four of each kind at each size."""

    name = "points"
    SIZES = (7, 8, 9, 10, 11)
    KINDS = (("generic", 0), ("conic", 0), ("conic", 1), ("conic", 2),
             ("pair", 0), ("pair", 1), ("pair", 2))  # (kind, points off the curve)
    PER_KIND = 2

    def __init__(self, pc, seed, workdir):
        self.pc = pc
        self.seed = seed
        self.units_per_pass = self.PER_KIND * len(self.SIZES) * len(self.KINDS)

    def inputs(self, p):
        rng = random.Random(f"points:{self.seed}:{p}")
        return [self._build(rng, n, kind, off)
                for _ in range(self.PER_KIND)
                for n in self.SIZES
                for kind, off in self.KINDS]

    @staticmethod
    def _build(rng, n, kind, off):
        """Integer points plus the planted lower bounds for degrees 1, 2."""
        if kind == "generic":
            return _distinct(lambda: _rand_point(rng, 6), n), 2, 5
        if kind == "conic":
            while True:
                m = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3))
                if g.det3(m) != 0:
                    break
            curve = g.image_conic(m)
            params = _distinct(lambda: _rand_param(rng, 4), n - off)
            on = [g.image_point(m, s, t) for s, t in params]
            on1 = 2
        else:
            l1, l2 = _distinct(lambda: _rand_line(rng), 2)
            corner = g.join(l1, l2)
            k1 = (n - off + 1) // 2

            def on_line(line):
                while True:
                    other = _rand_line(rng)
                    if other != line and g.join(line, other) != corner:
                        return g.join(line, other)
            on = _distinct(lambda: on_line(l1), k1) + _distinct(lambda: on_line(l2), n - off - k1)
            curve = g.line_pair(l1, l2)
            on1 = k1
        offs = []
        while len(offs) < off:
            p = _rand_point(rng, 6)
            if g.conic_value(curve, p) != 0 and p not in offs:
                offs.append(p)
        return on + offs, on1, n - off

    def run(self, pointset):
        """The points become `Point`s and a `LevelSet` inside the timed call,
        as `planecurrents mj` builds them after parsing."""
        pc = self.pc
        pts = tuple(pc.projective.Point(*p) for p in pointset[0])
        level = pc.currents.LevelSet(1, False, (), pts)
        m1 = pc.projective.max_on_curve(pts, 1)
        m2 = pc.projective.max_on_curve(pts, 2)
        v1 = pc.cover.line_cover_check(level)
        v2 = pc.cover.conic_cover_check(level)
        ok1 = pc.cover.verify_verdict(level, v1, 1)
        ok2 = pc.cover.verify_verdict(level, v2, 2)
        return m1, m2, v1, v2, ok1, ok2

    def check(self, pointset, result):
        m1, m2, v1, v2, ok1, ok2 = result
        pts, low1, low2 = pointset
        n = len(pts)
        if not (ok1 and ok2):
            return "verify_verdict rejects a verdict"
        if m1 < low1 or m2 < low2:
            return "max_on_curve below the planted count"
        Covered = self.pc.cover.Covered
        for budget, m, v in ((1, m1, v1), (2, m2, v2)):
            covered = isinstance(v, Covered)
            if covered != (m >= n - 1):
                return f"degree {budget}: cover verdict and max_on_curve disagree"
            if covered:
                witness = g.prim(v.witness.coeffs)
                omitted = None if v.omitted is None else g.prim(v.omitted.coords)
                if not g.witness_covers(witness, (), set(pts), omitted):
                    return f"degree {budget}: witness misses a point"
        return None

    def digest(self, inputs):
        return {"inputs": _sha(json.dumps(inputs).encode())}


WORKLOADS = {w.name: w for w in (Search, Check, Points)}
