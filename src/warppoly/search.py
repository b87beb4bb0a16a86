"""Exhaustive small-diagram oracles, and two closed-form constructions.

Everything the rest of the package claims universally is re-checked here
by brute force: :func:`enumerate_diagrams` walks every double-occurrence
code of a given crossing number, and :func:`run_property_suite` and
:func:`almost_alternating_scan` evaluate their identities on every one of
them, reporting violations instead of raising so that a broken build
produces a readable artifact.  Two functions here are not brute force:
:func:`dealternating_number` is an O(c) position-parity rule, and
:func:`span_witness` writes its diagram in closed form, in O(c).

Enumeration covers all codes, including those failing the evenness
parity condition (not drawable on the sphere); all polynomial identities
hold there too.  Dealternating-number statements are the one exception:
a code can be made alternating by crossing changes iff it passes
``evenness_lint``, so the suite checks the dealternating bounds on
evenness-passing codes and checks that the others are reported
unreachable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from . import characterize, moves, warping
from .diagram import OVER, UNDER, GaussDiagram, Pass, _renumbered, _spliced
from .laurent import WarpPoly, counts_to_poly
from .errors import (
    BoundExceededError,
    NotAlternatableError,
    NotConstructibleError,
    ZeroCrossingsError,
)

ENUMERATION_BOUND = 6


@dataclass(frozen=True)
class Violation:
    property_id: str
    code: str
    detail: str

    def as_dict(self) -> dict:
        return {
            "property": self.property_id,
            "code": self.code,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a verification sweep; empty ``violations`` on a correct build."""

    crossings_checked: tuple[int, int]
    diagrams_checked: int
    violations: tuple[Violation, ...]
    checks_run: tuple[tuple[str, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def checks(self) -> dict[str, int]:
        return dict(self.checks_run)

    def as_dict(self) -> dict:
        return {
            "crossings_checked": list(self.crossings_checked),
            "diagrams_checked": self.diagrams_checked,
            "violations": [v.as_dict() for v in self.violations],
            "checks_run": self.checks(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _matchings(slots: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    # pair the smallest free slot with every later one; first slots ascend,
    # so assigning ids in pair order is first-appearance numbering
    if not slots:
        yield ()
        return
    a, rest = slots[0], slots[1:]
    for i in range(len(rest)):
        b = rest[i]
        for sub in _matchings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + sub


def enumerate_diagrams(c: int) -> Iterator[GaussDiagram]:
    """Every unsigned code with ``c`` crossings, ids canonical, fixed order.

    Yields each fixed (unrotated) sequence exactly once: all pairings of
    the ``2c`` positions times all over/under assignments, so
    ``(2c-1)!! * 2^c`` diagrams.
    """
    if c < 0:
        raise ValueError("crossing count must be >= 0")
    if c > ENUMERATION_BOUND:
        raise BoundExceededError(
            f"enumeration of c={c} above bound {ENUMERATION_BOUND}"
        )
    for matching in _matchings(tuple(range(2 * c))):
        for markers in product((OVER, UNDER), repeat=c):
            passes = [None] * (2 * c)
            for cid, ((a, b), first) in enumerate(zip(matching, markers), start=1):
                passes[a] = Pass(cid, first)
                passes[b] = Pass(cid, UNDER if first == OVER else OVER)
            yield GaussDiagram(tuple(passes))


def dealternating_number(diagram: GaussDiagram) -> int:
    """Minimal number of crossing changes yielding an alternating diagram.

    An alternating diagram puts its over passes on the even positions or
    on the odd ones, and a crossing change flips both passes of one
    crossing.  So a target is reachable iff every crossing's two passes
    lie an odd distance apart (exactly the codes passing
    ``evenness_lint``); then the crossings to change are fixed by the
    phase, and the answer is ``min(o, c - o)`` with ``o`` the number of
    over passes at odd positions.  Raises :class:`NotAlternatableError`
    otherwise.  O(c).
    """
    c = diagram.crossing_count
    if c == 0:
        raise ZeroCrossingsError("dealternating number needs a crossing")
    if not diagram.evenness_lint():
        raise NotAlternatableError(
            "no crossing-change subset is alternating (code fails evenness)"
        )
    odd_overs = sum(p.strand == OVER for p in diagram.passes[1::2])
    return min(odd_overs, c - odd_overs)


def span_witness(c: int, s: int) -> GaussDiagram:
    """A diagram with ``c`` crossings and span ``s``, by fixed recipes.

    Recipes: the empty diagram for (0, 0); the spiral one-bridge diagram
    ``O1..Os Us..U1`` for ``c = s >= 1``; that diagram followed by the
    curls ``Oc Uc O(c-1) U(c-1) .. O(s+1) U(s+1)`` for ``c > s >= 2``.
    The spiral labels its edges ``1..s, s-1..0`` and each curl adds
    ``1 + t``, so the degree range stays ``[0, s]``; this is exactly
    ``c - s`` over-first kinks, each at the lowest edge labeled 0.  Built
    in one pass, O(c).  Other inputs, including ``c > s = 1``, are
    refused even when some diagram would qualify.
    """
    if not (c == s >= 0 or c > s >= 2):
        raise NotConstructibleError(f"no recipe for c={c}, span={s}")
    # nested pairing: every pass pair lies an odd distance apart, so the
    # output stays within evenness-passing codes
    spiral = [Pass(i, OVER) for i in range(1, s + 1)]
    spiral += [Pass(i, UNDER) for i in range(s, 0, -1)]
    curls = [Pass(i, strand) for i in range(c, s, -1) for strand in (OVER, UNDER)]
    return GaussDiagram._trusted(tuple(spiral + curls))


class _Recorder:
    def __init__(self):
        self.violations: list[Violation] = []
        self.counts: dict[str, int] = {}

    def check(self, property_id: str, ok: bool, diagram, detail=""):
        # detail may be a zero-argument callable so passing checks pay
        # nothing for message formatting
        self.counts[property_id] = self.counts.get(property_id, 0) + 1
        if not ok:
            if callable(detail):
                detail = detail()
            self.violations.append(Violation(property_id, str(diagram), detail))

    def guard(self, fn, diagram, *args) -> None:
        # runs fn(*args), charging any exception to diagram: a broken build
        # must still produce a report, not a traceback, and any exception
        # counts, since internally built values are not re-validated
        try:
            fn(*args)
        except Exception as exc:
            self.check("no-unexpected-errors", False, diagram, repr(exc))

    def report(self, crossings: tuple[int, int], diagrams: int) -> PropertyReport:
        return PropertyReport(
            crossings_checked=crossings,
            diagrams_checked=diagrams,
            violations=tuple(self.violations),
            checks_run=tuple(sorted(self.counts.items())),
        )


def _sweep(max_crossings: int, check, keep=None) -> tuple[_Recorder, int]:
    # the one enumeration loop of every sweep: runs check(rec, diagram)
    # under rec.guard on each code with at most max_crossings crossings
    # that keep accepts; returns the recorder and the number checked
    if max_crossings < 0:
        raise ValueError(f"max_crossings {max_crossings} below 0")
    if max_crossings > ENUMERATION_BOUND:
        raise BoundExceededError(f"max_crossings {max_crossings} above bound")
    rec = _Recorder()
    diagrams = 0
    for c in range(max_crossings + 1):
        for diagram in enumerate_diagrams(c):
            if keep is None or keep(diagram):
                diagrams += 1
                rec.guard(check, diagram, rec, diagram)
    return rec, diagrams


def almost_alternating_scan(max_crossings: int) -> PropertyReport:
    """Check the span dichotomy for single crossing changes of alternating codes.

    For every alternating diagram with ``1 <= c <= max_crossings`` and
    every crossing, the changed diagram must have span 2 or 3, and span 2
    exactly when one side of the crossing's f/g split is a monomial.
    Changes whose result is still alternating (possible only at c = 1,
    where no almost-alternating diagram arises) are skipped.  Raises
    ``ValueError`` below 0 and :class:`BoundExceededError` above
    ``ENUMERATION_BOUND``.
    """
    # is_alternating is false at c = 0, so the scan starts at c = 1
    rec, diagrams = _sweep(
        max_crossings, _scan_alternating_changes, GaussDiagram.is_alternating
    )
    return rec.report((1, max_crossings), diagrams)


def _scan_alternating_changes(rec: _Recorder, diagram: GaussDiagram) -> None:
    for x in sorted(diagram.crossing_ids()):
        changed = diagram.crossing_change(x)
        if changed.is_alternating():
            continue
        span = warping.diagram_span(changed)
        rec.check(
            "almost-alternating-span-range",
            span in (2, 3),
            diagram,
            lambda: f"crossing {x}: span {span}",
        )
        f, g = warping.fg_decomposition(diagram, x)
        monomial_side = f.span() == 0 or g.span() == 0
        rec.check(
            "almost-alternating-span-two-criterion",
            (span == 2) == monomial_side,
            diagram,
            lambda: f"crossing {x}: span {span}, f {f}, g {g}",
        )


def _check_diagram(rec: _Recorder, diagram: GaussDiagram) -> None:
    # four check groups in a fixed order, under the code's one guard; the
    # values they share are computed once, here
    labels = warping.labeling(diagram)
    poly = counts_to_poly(labels)
    d = min(labels)
    span = max(labels) - d
    _invariants(rec, diagram, poly, d, span)
    # like the end of _invariants, the other groups presuppose a crossing
    if diagram.crossing_count:
        _crossing_changes(rec, diagram, poly, span)
        _kinks(rec, diagram, labels, poly)
        _dealternating_bounds(rec, diagram, span)


def _invariants(
    rec: _Recorder, diagram: GaussDiagram, poly: WarpPoly, d: int, span: int
) -> None:
    c = diagram.crossing_count
    reversed_poly = warping.warping_polynomial(diagram.reverse())
    mirror_poly = warping.warping_polynomial(diagram.mirror())
    # the reverse is an enumerated code too, so its lower degree is checked
    # against warping_degree there
    d_rev = reversed_poly.ldeg()

    def show_poly():
        return f"W={poly}"

    def show_degrees():
        return f"d {d}, d_rev {d_rev}"

    reflected = poly.reflect(c)
    rec.check("orientation-reverse-reflects", reversed_poly == reflected, diagram,
              show_poly)
    rec.check("mirror-reflects", mirror_poly == reflected, diagram, show_poly)
    rec.check("gap-free", poly.gap_free(), diagram, show_poly)
    rec.check("lower-degree-is-warping-degree",
              poly.ldeg() == warping.warping_degree(diagram) == d, diagram, show_poly)
    rec.check("span-complement-identity", span == c - (d + d_rev), diagram,
              lambda: f"span {span}, d {d}, d_rev {d_rev}")
    rec.check("span-orientation-mirror-invariance",
              span == reversed_poly.span() == mirror_poly.span(), diagram, "")
    rec.check("recognition-soundness",
              isinstance(characterize.recognize(poly), characterize.CharForm),
              diagram, show_poly)
    rec.check("monotone-iff-nonzero-constant-term",
              warping.is_monotone(diagram) == (poly(0) != 0), diagram, show_poly)
    # the rest presupposes a crossing: the zero-crossing diagram's
    # conventional single edge degenerates the kink identities
    if c == 0:
        return

    rec.check("value-at-one", poly(1) == 2 * c, diagram, lambda: f"W(1)={poly(1)}")
    rec.check("root-at-minus-one", poly(-1) == 0, diagram, lambda: f"W(-1)={poly(-1)}")
    odd_sum = sum(co for deg, co in poly.terms if deg % 2)
    even_sum = sum(co for deg, co in poly.terms if deg % 2 == 0)
    rec.check("odd-even-coefficient-sums", odd_sum == even_sum == c, diagram,
              lambda: f"odd {odd_sum}, even {even_sum}")
    alternating = diagram.is_alternating()
    rec.check("alternating-iff-span-one", alternating == (span == 1), diagram,
              lambda: f"span {span}")
    if alternating:
        rec.check("alternating-polynomial-form", poly.as_dict() == {d: c, d + 1: c},
                  diagram, show_poly)
    rec.check("degree-sum-bound", d + d_rev + 1 <= c, diagram, show_degrees)
    rec.check("degree-sum-equality-iff-alternating",
              (d + d_rev + 1 == c) == alternating, diagram, show_degrees)


def _crossing_changes(
    rec: _Recorder, diagram: GaussDiagram, poly: WarpPoly, span: int
) -> None:
    for k, x in enumerate(sorted(diagram.crossing_ids())):
        changed = diagram.crossing_change(x)
        changed_poly = warping.warping_polynomial(changed)
        f, g = warping.fg_decomposition(diagram, x)
        rec.check("fg-partition", f + g == poly, diagram, lambda: f"crossing {x}")
        rec.check("fg-lower-degree", f.ldeg() >= 1, diagram, lambda: f"crossing {x}: f {f}")
        # the other crossings predict from the split just checked; the first
        # goes through the public prediction, keeping it exercised (and
        # traced) by the sweep
        if k == 0:
            predicted = warping.predict_crossing_change(diagram, x)
        else:
            predicted = warping._predicted(f, g)
        rec.check(
            "crossing-change-prediction",
            predicted == changed_poly,
            diagram,
            lambda: f"crossing {x}",
        )
        rec.check(
            "crossing-change-span-jump",
            abs(changed_poly.span() - span) <= 2,
            diagram,
            lambda: f"crossing {x}",
        )


def _kinks(
    rec: _Recorder, diagram: GaussDiagram, labels: tuple[int, ...], poly: WarpPoly
) -> None:
    even = diagram.evenness_lint()
    # W is the sum of t^label over the edges, so past edge 0 each identity is
    # checked as the kinked code's sorted labels against the expected
    # multiset: labels + {i, i+1} over-first, labels + 1 + {i, i+1}
    # under-first, one pair per label value
    over_want, under_want = {}, {}
    raised = [lab + 1 for lab in labels]
    for i in set(labels):
        over_want[i] = sorted(labels + (i, i + 1))
        under_want[i] = sorted(raised + [i, i + 1])
    # every kink adds the same fresh crossing, so both two-pass segments are
    # built once; edge 0 goes through the public moves and the polynomial
    # identities, keeping them exercised (and traced) by the sweep
    fresh = diagram.max_crossing_id() + 1
    over_segment = (Pass(fresh, OVER), Pass(fresh, UNDER))
    under_segment = over_segment[::-1]
    passes = diagram.passes
    for edge, i in enumerate(labels):
        if edge:
            over = _spliced(passes, edge, over_segment)
            over_ok = sorted(warping.labeling(over)) == over_want[i]
        else:
            bump = WarpPoly(((i, 1), (i + 1, 1)))  # t^i (1 + t)
            over = moves.insert_kink_over_first(diagram, edge)
            over_ok = warping.warping_polynomial(over) == poly + bump
        rec.check("kink-over-first-identity", over_ok, diagram, lambda: f"edge {edge}")
        if edge:
            under = _spliced(passes, edge, under_segment)
            under_ok = sorted(warping.labeling(under)) == under_want[i]
        else:
            under = moves.insert_kink_under_first(diagram, edge)
            under_ok = warping.warping_polynomial(under) == poly.shift(1) + bump
        rec.check("kink-under-first-identity", under_ok, diagram, lambda: f"edge {edge}")
        if even:
            rec.check(
                "kink-preserves-evenness",
                over.evenness_lint() and under.evenness_lint(),
                diagram,
                lambda: f"edge {edge}",
            )


def _dealternating_bounds(rec: _Recorder, diagram: GaussDiagram, span: int) -> None:
    try:
        dalt = dealternating_number(diagram)
    except NotAlternatableError:
        dalt = None
    rec.check(
        "dealternating-reachable-iff-evenness",
        (dalt is not None) == diagram.evenness_lint(),
        diagram,
        "",
    )
    if dalt is not None:
        rec.check(
            "dealternating-sandwich",
            (span - 1) / 2 <= dalt <= diagram.crossing_count // 2,
            diagram,
            lambda: f"span {span}, dalt {dalt}",
        )


def _check_connected_sums(rec: _Recorder, max_crossings: int) -> None:
    summands = []
    for c in range(1, max_crossings + 1):
        for diagram in enumerate_diagrams(c):
            labels = warping.labeling(diagram)
            summands.append((diagram, labels, counts_to_poly(labels)))
    # every left summand numbers its crossings 1..c1, so the renumbered right
    # segment depends only on (right, other_edge, c1): summands ascend in c1,
    # and one table is built per crossing count, the previous one dropped first
    segments_for = segments = None
    for left, left_labels, left_poly in summands:
        c1 = left.crossing_count
        if c1 != segments_for:
            segments = None
            segments = [
                [_renumbered(right.passes, e + 1, c1) for e in range(len(right.passes))]
                for right, _, _ in summands
            ]
            segments_for = c1
        left_passes = left.passes
        left_min, left_max = min(left_labels), max(left_labels)
        left_span = left_max - left_min
        for (right, right_labels, right_poly), right_segments in zip(summands, segments):
            right_min, right_max = min(right_labels), max(right_labels)
            right_span = right_max - right_min
            span_floor = max(left_span, right_span)
            # W is the sum of t^label over the edges, so past (0, 0) the
            # identity t^j W_left + t^i W_right is checked as the glued code's
            # sorted labels against the union of the shifted label multisets,
            # which depends only on the label pair, not the edge pair
            expected: dict[tuple[int, int], list[int]] = {}

            def splice(edge, other_edge):
                i, j = left_labels[edge], right_labels[other_edge]
                if edge == other_edge == 0:
                    # one splice per pair through the public move and the
                    # polynomial identity keeps them exercised, and traced,
                    # by the sweep
                    glued = moves.connected_sum(left, edge, right, other_edge)
                    glued_poly = warping.warping_polynomial(glued)
                    identity = glued_poly == left_poly.shift(j) + right_poly.shift(i)
                    glued_span = glued_poly.span()
                else:
                    want = expected.get((i, j))
                    if want is None:
                        want = sorted(
                            [a + j for a in left_labels] + [b + i for b in right_labels]
                        )
                        expected[(i, j)] = want
                    glued = _spliced(left_passes, edge, right_segments[other_edge])
                    glued_labels = sorted(warping.labeling(glued))
                    identity = glued_labels == want
                    glued_span = glued_labels[-1] - glued_labels[0]
                rec.check(
                    "connected-sum-identity",
                    identity,
                    glued,
                    lambda: f"{left} #({edge},{other_edge}) {right}",
                )
                rec.check(
                    "connected-sum-span-bounds",
                    span_floor <= glued_span <= left_span + right_span,
                    glued,
                    lambda: f"spans {left_span}, {right_span} -> {glued_span}",
                )
                if left_span >= right_span:
                    equality = left_min - right_min <= i - j <= left_max - right_max
                else:
                    equality = right_min - left_min <= j - i <= right_max - left_max
                rec.check(
                    "connected-sum-span-equality-criterion",
                    (glued_span == span_floor) == equality,
                    glued,
                    lambda: f"i {i}, j {j}",
                )

            for edge in range(len(left.passes)):
                for other_edge in range(len(right.passes)):
                    rec.guard(splice, left, edge, other_edge)


def run_property_suite(
    max_crossings: int, pair_max_crossings: int = 3
) -> PropertyReport:
    """Check every identity on every code with at most ``max_crossings``.

    Covers the per-diagram invariants, per-crossing change predictions,
    per-edge kink identities, dealternating bounds, recognition soundness,
    and the connected-sum identities over pairs with at most
    ``min(pair_max_crossings, max_crossings)`` crossings each.  Bounds as
    in :func:`almost_alternating_scan`.
    """
    rec, diagrams = _sweep(max_crossings, _check_diagram)
    _check_connected_sums(rec, min(pair_max_crossings, max_crossings))
    return rec.report((0, max_crossings), diagrams)
