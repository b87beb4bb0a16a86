"""Spans around the calls into each ``warppoly`` layer, installed from outside.

Every boundary is a public function or method of one module.  Installing
replaces it with a timing wrapper in every ``warppoly`` module namespace
that binds it (``characterize`` imports the kinks by name, ``search`` calls
``dealternating_number`` as a module global, the package re-exports most of
them) and, for methods, on the class.  A boundary that cannot be found is an
error, so a renamed or re-bound function cannot silently read as zero calls.

A span is (boundary, parent span, start, end).  Self time is the span's
duration minus the durations of its direct children.  Counts and self time
are accumulated for every span; the spans themselves are kept in memory up
to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array

# (metric prefix, module, attributes); "Class.method" names a method.
BOUNDARIES = (
    ("notation.parse_gauss", "warppoly.notation", ("parse_gauss",)),
    ("notation.braid_closure", "warppoly.notation", ("braid_closure",)),
    ("notation.canonicalize", "warppoly.notation", ("canonicalize",)),
    ("notation.parse_poly", "warppoly.notation", ("parse_poly",)),
    ("diagram.validate", "warppoly.diagram", ("GaussDiagram.__post_init__",)),
    ("diagram.crossing_change", "warppoly.diagram", ("GaussDiagram.crossing_change",)),
    ("diagram.mirror", "warppoly.diagram", ("GaussDiagram.mirror",)),
    ("laurent.normalize", "warppoly.laurent", ("WarpPoly.__post_init__",)),
    ("laurent.counts_to_poly", "warppoly.laurent", ("counts_to_poly",)),
    ("warping.labeling", "warppoly.warping", ("labeling",)),
    ("warping.warping_polynomial", "warppoly.warping", ("warping_polynomial",)),
    ("warping.fg_decomposition", "warppoly.warping", ("fg_decomposition",)),
    ("warping.predict_crossing_change", "warppoly.warping", ("predict_crossing_change",)),
    ("moves.insert_kink", "warppoly.moves", ("insert_kink_over_first", "insert_kink_under_first")),
    ("moves.connected_sum", "warppoly.moves", ("connected_sum",)),
    ("moves.find_edge_with_label", "warppoly.moves", ("find_edge_with_label",)),
    ("characterize.recognize", "warppoly.characterize", ("recognize",)),
    ("characterize.witness", "warppoly.characterize", ("witness",)),
    ("search.enumerate_diagrams", "warppoly.search", ("enumerate_diagrams",)),
    ("search.dealternating_number", "warppoly.search", ("dealternating_number",)),
    ("search.run_property_suite", "warppoly.search", ("run_property_suite",)),
    ("search.almost_alternating_scan", "warppoly.search", ("almost_alternating_scan",)),
    ("cli.main", "warppoly.cli", ("main",)),
)


def _crossings_of_arg(args, result):
    return len(args[0].passes) // 2


def _crossings_of_result(args, result):
    return len(result.passes) // 2


# Boundaries whose span time is fitted against crossing count.  Span time,
# not self time: ``witness`` spends its quadratic time in the labelings and
# kinks it repeats, which are child spans.
SIZED = {
    "notation.parse_gauss": _crossings_of_result,
    "warping.labeling": _crossings_of_arg,
    "notation.canonicalize": _crossings_of_arg,
    "characterize.witness": _crossings_of_result,
}
FIT_MIN_CROSSINGS = 16  # below this, fixed per-call costs hide the growth
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        n = len(BOUNDARIES)
        self.names = [b[0] for b in BOUNDARIES]
        self.calls = [0] * n
        self.raised = [0] * n
        self.self_s = [0.0] * n
        self.sizes: dict[int, list[tuple[int, float]]] = {
            i: [] for i, name in enumerate(self.names) if name in SIZED
        }
        self.stack: list[list] = []
        self.span_boundary = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.installed: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, idx):
        stack = self.stack
        parent = stack[-1][1] if stack else -1
        if len(self.span_start) < SPAN_CAP:
            sid = len(self.span_start)
            self.span_boundary.append(idx)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            sid = -1
            self.dropped += 1
        frame = [0.0, sid, time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, idx, frame, ok) -> float:
        """End the span; returns its duration."""
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[2]
        own = duration - frame[0]
        if self.stack:
            self.stack[-1][0] += duration
        self.calls[idx] += 1
        self.self_s[idx] += own
        if not ok:
            self.raised[idx] += 1
        sid = frame[1]
        if sid >= 0:
            self.span_start[sid] = frame[2]
            self.span_end[sid] = end
        return duration

    def _wrap(self, idx, fn):
        size_of = SIZED.get(self.names[idx])
        sizes = self.sizes.get(idx)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # one span per item yielded, covering the work that produced it
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._open(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(idx, frame, True)
                        tracer.calls[idx] -= 1  # exhaustion yields no code
                        return
                    except BaseException:
                        tracer._close(idx, frame, False)
                        raise
                    tracer._close(idx, frame, True)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._open(idx)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = tracer._close(idx, frame, ok)
                if ok and size_of is not None:
                    size = size_of(args, result)
                    if size >= FIT_MIN_CROSSINGS:
                        sizes.append((size, duration))

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary wherever ``warppoly`` binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "warppoly" or name.startswith("warppoly."))]
        for idx, (_, module_name, attrs) in enumerate(BOUNDARIES):
            module = sys.modules.get(module_name)
            if module is None:
                raise LookupError(f"module {module_name} is not imported")
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    original = None if cls is None else cls.__dict__.get(meth)
                    if original is None:
                        raise LookupError(f"{module_name}.{attr} not found")
                    self._replace(cls, meth, original, self._wrap(idx, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    raise LookupError(f"{module_name}.{attr} not found")
                wrapped = self._wrap(idx, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, original, wrapped)

    def _replace(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self.installed.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original back; the counts stay."""
        while self.installed:
            owner, key, original = self.installed.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[i], "count")
            out[f"{name}.self_s"] = (self.self_s[i], "s")
            out[f"{name}.raised"] = (self.raised[i], "count")
        for i, points in self.sizes.items():
            out[f"{self.names[i]}.size_exponent"] = (fit_exponent(points), "exponent")
        return out

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def write_spans(self, path) -> None:
        spans = [
            [self.span_boundary[k], self.span_parent[k], self.span_start[k], self.span_end[k]]
            for k in range(len(self.span_start))
        ]
        with open(path, "w") as fh:
            json.dump({"boundaries": self.names, "columns": ["boundary", "parent", "start", "end"],
                       "dropped": self.dropped, "spans": spans}, fh)


def fit_exponent(points) -> float:
    """Least-squares slope of log(time) on log(crossings); 0 without spread in size."""
    pts = [(math.log(s), math.log(t)) for s, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
