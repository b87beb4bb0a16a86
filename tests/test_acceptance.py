"""Acceptance suite: one test per criterion, exact integer tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import functools
import time

import pytest

from warppoly import (
    BraidWord,
    CharForm,
    GaussDiagram,
    WarpPoly,
    almost_alternating_scan,
    braid_closure,
    dealternating_number,
    diagram_span,
    encode_form,
    fg_decomposition,
    find_edge_with_label,
    insert_kink_over_first,
    insert_kink_under_first,
    one_bridge_diagram,
    parse_gauss,
    parse_poly,
    predict_crossing_change,
    span_witness,
    warping_polynomial,
    witness,
)

from _oracles import staircase_forms

TREFOIL = parse_gauss("O1 U2 O3 U1 O2 U3")


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[{label}] FAIL")
                raise
            print(f"[{label}] PASS ({time.time() - started:.1f}s)")

        return run

    return wrap


@criterion("criterion-1 golden values")
def test_criterion_1_golden_values():
    assert warping_polynomial(TREFOIL) == parse_poly("3t+3t^2")

    over_low = insert_kink_over_first(TREFOIL, find_edge_with_label(TREFOIL, 1))
    assert warping_polynomial(over_low) == parse_poly("4t+4t^2")
    over_high = insert_kink_over_first(TREFOIL, find_edge_with_label(TREFOIL, 2))
    assert warping_polynomial(over_high) == parse_poly("3t+4t^2+t^3")
    under_low = insert_kink_under_first(TREFOIL, find_edge_with_label(TREFOIL, 1))
    assert warping_polynomial(under_low) == parse_poly("t+4t^2+3t^3")

    for l in range(1, 11):
        assert warping_polynomial(one_bridge_diagram(l)) == encode_form(CharForm(0, (1,) * l))

    assert warping_polynomial(GaussDiagram(())) == WarpPoly.one()

    f, g = fg_decomposition(TREFOIL, 1)
    assert (f, g) == (parse_poly("t+2t^2"), parse_poly("2t+t^2"))


@criterion("criterion-2 crossing-change example")
def test_criterion_2_crossing_change():
    """Both routes to the changed trefoil give W = 1+2t+2t^2+t^3 and the
    span jumps from 1 to 3.

    The changed value is sometimes quoted in expanded form as
    1+2t+t+2t^2+t^3 (= 1+3t+2t^2+t^3); that expansion evaluates to -1 at
    t = -1, while every warping polynomial vanishes there, so it cannot
    be right and the recomputed value is asserted instead.  The span
    statement (3 - 1 = 2) is unaffected by the discrepancy.
    """
    changed = TREFOIL.crossing_change(1)
    expected = parse_poly("1+2t+2t^2+t^3")
    assert predict_crossing_change(TREFOIL, 1) == expected
    assert warping_polynomial(changed) == expected
    assert diagram_span(TREFOIL) == 1
    assert diagram_span(changed) == 3


@criterion("criterion-3 exhaustive oracle suite c<=5")
def test_criterion_3_exhaustive_suite(full_suite_report):
    report = full_suite_report
    assert report.violations == ()
    assert report.crossings_checked == (0, 5)
    # 1 + 2 + 12 + 120 + 1680 + 30240
    assert report.diagrams_checked == 32055
    counts = report.checks()
    for property_id in (
        "orientation-reverse-reflects",
        "mirror-reflects",
        "value-at-one",
        "root-at-minus-one",
        "odd-even-coefficient-sums",
        "gap-free",
        "lower-degree-is-warping-degree",
        "span-complement-identity",
        "span-orientation-mirror-invariance",
        "alternating-iff-span-one",
        "degree-sum-bound",
        "degree-sum-equality-iff-alternating",
        "recognition-soundness",
        "fg-partition",
        "fg-lower-degree",
        "crossing-change-prediction",
        "crossing-change-span-jump",
        "kink-over-first-identity",
        "kink-under-first-identity",
        "dealternating-reachable-iff-evenness",
        "dealternating-sandwich",
    ):
        assert counts.get(property_id, 0) > 0, property_id
    # every code with at least one crossing got the change checks
    assert counts["crossing-change-prediction"] == sum(
        c * n for c, n in ((1, 2), (2, 12), (3, 120), (4, 1680), (5, 30240))
    )


@criterion("criterion-4 characterization completeness")
def test_criterion_4_completeness():
    forms = staircase_forms(6)
    assert len(forms) > 150
    for form in forms:
        diagram = witness(form)
        assert warping_polynomial(diagram) == encode_form(form)
        if form.l:
            assert diagram.crossing_count == sum(form.m)


@criterion("criterion-5 connected-sum identities")
def test_criterion_5_connected_sum(full_suite_report):
    counts = full_suite_report.checks()
    # (sum over all codes with 1..3 crossings of their edge count)^2
    # = (2*2 + 12*4 + 120*6)^2 splices, three checks each
    expected = (2 * 2 + 12 * 4 + 120 * 6) ** 2
    for property_id in (
        "connected-sum-identity",
        "connected-sum-span-bounds",
        "connected-sum-span-equality-criterion",
    ):
        assert counts[property_id] == expected
    assert not [
        v
        for v in full_suite_report.violations
        if v.property_id.startswith("connected-sum")
    ]


@criterion("criterion-6 braid closure spans")
def test_criterion_6_braid_spans():
    cases = (
        (BraidWord(2, (1,) * 3), 1),
        (BraidWord(3, (1, 2) * 4), 2),
        (BraidWord(4, (1, 2, 3) * 5), 3),
    )
    for word, expected in cases:
        assert diagram_span(braid_closure(word)) == expected
        negated = BraidWord(word.n, tuple(-w for w in word.letters))
        assert diagram_span(braid_closure(negated)) == expected


@criterion("criterion-7 dealternating sandwich")
def test_criterion_7_dealternating_sandwich():
    diagram = span_witness(9, 8)
    assert diagram.crossing_count == 9
    assert diagram_span(diagram) == 8
    assert dealternating_number(diagram) == 4


@criterion("criterion-8 almost-alternating dichotomy")
def test_criterion_8_almost_alternating():
    report = almost_alternating_scan(5)
    assert report.violations == ()
    assert report.checks()["almost-alternating-span-range"] > 0
    assert report.checks()["almost-alternating-span-two-criterion"] > 0
