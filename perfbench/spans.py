"""Spans around calls into the `planecurrents` layers, recorded from
outside the package.

`Tracer.install` replaces each traced public function by a wrapper in
its defining module and in every `planecurrents` module that imported it
by name (methods are replaced on their class); `restore` puts the
originals back. Each call records a span (name, start, end, parent span,
operation id) in flat arrays, so the traced run keeps every span in
memory and writes them out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (span name, module, attribute); "Class.method" names a method
TARGETS = (
    ("cli.main", "cli", "main"),
    ("serialize.parse_instance", "serialize", "parse_instance"),
    ("serialize.dumps", "serialize", "dumps"),
    ("harness.generate", "harness", "generate"),
    ("currents.level_set", "currents", "DivisorCurrent.level_set"),
    ("currents.support_intersections", "currents", "DivisorCurrent.support_intersections"),
    ("currents.lelong_number", "currents", "DivisorCurrent.lelong_number"),
    ("cover.find_heavy_points", "cover", "find_heavy_points"),
    ("cover.conic_cover_check", "cover", "conic_cover_check"),
    ("cover.line_cover_check", "cover", "line_cover_check"),
    ("cover.verify_verdict", "cover", "verify_verdict"),
    ("projective.intersect_curves", "projective", "intersect_curves"),
    ("projective.multiplicity", "projective", "multiplicity"),
    ("projective.incident", "projective", "incident"),
    ("projective.on_common_curve", "projective", "on_common_curve"),
    ("projective.max_on_curve", "projective", "max_on_curve"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.nullspace", "linalg", "nullspace"),
)

# counts taken from results at the same boundaries
COUNTERS = (
    "cli.exit.0", "cli.exit.2", "serialize.bytes_out",
    "harness.generate.items", "harness.generate.valid", "currents.support_points",
    "cover.covered.omit0", "cover.covered.omit1",
    "cover.not_coverable.points", "cover.not_coverable.curve",
)


def _verdict_counter(verdict) -> str:
    if type(verdict).__name__ == "Covered":
        return "cover.covered.omit0" if verdict.omitted is None else "cover.covered.omit1"
    if type(verdict.obstruction).__name__ == "UncoverableCurve":
        return "cover.not_coverable.curve"
    return "cover.not_coverable.points"


class Tracer:
    def __init__(self):
        self.names: list[str] = [name for name, _, _ in TARGETS]
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, kind: int) -> int:
        idx = len(self.start)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _count(self, name: str, result) -> None:
        counts = self.counts
        if name == "cli.main":
            key = f"cli.exit.{result}"
            if key in counts:
                counts[key] += 1
        elif name == "serialize.dumps":
            counts["serialize.bytes_out"] += len(result.encode())
        elif name == "currents.support_intersections":
            counts["currents.support_points"] += len(result)
        elif name in ("cover.conic_cover_check", "cover.line_cover_check"):
            counts[_verdict_counter(result)] += 1

    def _wrap(self, kind: int, fn):
        name = self.names[kind]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, result)
            return result

        return traced

    def _wrap_generator(self, kind: int, fn):
        """One span per item, so the consumer's time between items is not
        charged to the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = self._open(kind)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts["harness.generate.items"] += 1
                self.counts["harness.generate.valid"] += item.tag == "ok"
                yield item

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "planecurrents"]
        for kind, (name, module, attr) in enumerate(TARGETS):
            owner = sys.modules[f"planecurrents.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._set(owner, attr, self._wrap(kind, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrap = self._wrap_generator if name == "harness.generate" else self._wrap
            traced = wrap(kind, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, traced)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, op_scale) -> dict[str, tuple[float, str]]:
        """(value, unit) of the calls and self time of each span name and of
        each counter. Self time is a span minus its child spans, scaled by
        `op_scale[op_id]`, the host-speed factor of its operation."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.kind[i]
            calls[k] += 1
            self_s[k] += (self.end[i] - self.start[i] - child[i]) * op_scale[self.op[i]]
        out: dict[str, tuple[float, str]] = {}
        for k, name in enumerate(self.names):
            if name == "harness.generate":
                out[f"{name}.items"] = (self.counts["harness.generate.items"], "count")
            else:
                out[f"{name}.calls"] = (calls[k], "count")
            out[f"{name}.self_s"] = (self_s[k], "s")
        for key, value in self.counts.items():
            if not key.startswith("harness.generate"):
                out[key] = (value, "B" if key == "serialize.bytes_out" else "count")
        items = self.counts["harness.generate.items"]
        valid = self.counts["harness.generate.valid"]
        out["harness.valid_ratio"] = (valid / items if items else 0.0, "ratio")
        return out

    def write(self, path: str) -> None:
        """Every span, one per line: id, name, start, end, parent, op."""
        with open(path, "w") as handle:
            handle.write("id\tname\tstart_s\tend_s\tparent\top\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.names[self.kind[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
