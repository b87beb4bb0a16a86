import pytest
from hypothesis import given

from warppoly import (
    GaussDiagram,
    Pass,
    WarpPoly,
    diagram_span,
    enumerate_diagrams,
    fg_decomposition,
    is_monotone,
    labeling,
    parse_gauss,
    predict_crossing_change,
    warping_degree,
    warping_polynomial,
)
from warppoly.errors import (
    EdgeOutOfRangeError,
    InconsistentClosureError,
    UnknownCrossingError,
)

from _oracles import brute_degree, brute_labeling
from _strategies import diagrams

TREFOIL = parse_gauss("O1 U2 O3 U1 O2 U3")
ONE_BRIDGE_3 = parse_gauss("O1 O2 O3 U1 U2 U3")
EMPTY = GaussDiagram(())


def degree_at_base(diagram, edge):
    # the warping degree of a base point on edge, read off the labeling
    return labeling(diagram)[diagram.check_edge(edge)]


def test_degree_at_base_examples():
    assert degree_at_base(TREFOIL, 5) == 1
    assert degree_at_base(ONE_BRIDGE_3, 5) == 0
    assert degree_at_base(EMPTY, 0) == 0
    with pytest.raises(EdgeOutOfRangeError):
        degree_at_base(TREFOIL, 6)


def test_labeling_examples():
    assert labeling(TREFOIL) == (2, 1, 2, 1, 2, 1)
    assert labeling(ONE_BRIDGE_3) == (1, 2, 3, 2, 1, 0)
    assert labeling(EMPTY) == (0,)


def test_labeling_matches_per_edge_scan_exhaustively():
    # the propagation shortcut must agree with the definition on every
    # code with up to 4 crossings
    for c in range(5):
        for diagram in enumerate_diagrams(c):
            assert labeling(diagram) == brute_labeling(diagram)


def test_degree_at_base_matches_labeling_everywhere():
    # the per-edge definition scan against the labeling, edge by edge
    for c in range(4):
        for diagram in enumerate_diagrams(c):
            for edge in range(diagram.edge_count):
                assert degree_at_base(diagram, edge) == brute_degree(diagram, edge)


def test_labeling_refuses_a_code_that_does_not_close():
    # an internal bug guard: only a code built without validation reaches it
    broken = GaussDiagram._trusted((Pass(1, "O"), Pass(1, "O")))
    with pytest.raises(InconsistentClosureError, match="^propagation closed at 2, anchor was 0$"):
        labeling(broken)


def test_labeling_step_rule():
    for diagram in (TREFOIL, ONE_BRIDGE_3, parse_gauss("O1 U2 O2 U1")):
        labels = labeling(diagram)
        n = len(labels)
        for j, p in enumerate(diagram.passes):
            step = 1 if p.strand == "O" else -1
            assert labels[j] - labels[(j - 1) % n] == step


def test_polynomial_examples():
    assert warping_polynomial(TREFOIL) == WarpPoly(((1, 3), (2, 3)))
    assert warping_polynomial(ONE_BRIDGE_3) == WarpPoly(((0, 1), (1, 2), (2, 2), (3, 1)))
    assert warping_polynomial(EMPTY) == WarpPoly.one()


def test_degree_and_span_examples():
    assert warping_degree(TREFOIL) == 1
    assert warping_polynomial(TREFOIL).udeg() == 2
    assert diagram_span(TREFOIL) == 1
    assert warping_degree(ONE_BRIDGE_3) == 0
    assert warping_polynomial(ONE_BRIDGE_3).udeg() == 3
    assert diagram_span(ONE_BRIDGE_3) == 3
    assert warping_degree(EMPTY) == 0
    assert warping_polynomial(EMPTY).udeg() == 0
    assert diagram_span(EMPTY) == 0


def test_is_monotone_examples():
    assert is_monotone(ONE_BRIDGE_3)
    assert not is_monotone(TREFOIL)
    assert is_monotone(EMPTY)


def test_fg_decomposition_examples():
    f, g = fg_decomposition(TREFOIL, 1)
    assert f == WarpPoly(((1, 1), (2, 2)))  # t+2t^2
    assert g == WarpPoly(((1, 2), (2, 1)))  # 2t+t^2
    f, g = fg_decomposition(parse_gauss("O1 U1"), 1)
    assert f == WarpPoly(((1, 1),))
    assert g == WarpPoly.one()
    with pytest.raises(UnknownCrossingError):
        fg_decomposition(TREFOIL, 7)


def test_fg_partitions_every_polynomial():
    for c in range(1, 4):
        for diagram in enumerate_diagrams(c):
            poly = warping_polynomial(diagram)
            for x in diagram.crossing_ids():
                f, g = fg_decomposition(diagram, x)
                assert f + g == poly
                assert f.ldeg() >= 1


def test_predict_crossing_change_trefoil():
    """The changed trefoil has W = 1+2t+2t^2+t^3 by both routes.

    This value is sometimes quoted with an expanded middle term as
    1+3t+2t^2+t^3; that expansion cannot be a warping polynomial (its
    value at -1 is -1, and every warping polynomial vanishes there), so
    the recomputed value is the one asserted here.
    """
    expected = WarpPoly(((0, 1), (1, 2), (2, 2), (3, 1)))
    assert predict_crossing_change(TREFOIL, 1) == expected
    assert warping_polynomial(TREFOIL.crossing_change(1)) == expected


def test_predict_crossing_change_one_crossing():
    d = parse_gauss("O1 U1")
    assert predict_crossing_change(d, 1) == WarpPoly(((0, 1), (1, 1)))
    assert warping_polynomial(d.crossing_change(1)) == WarpPoly(((0, 1), (1, 1)))


def test_span_jump_bounded_exhaustively():
    for c in range(1, 4):
        for diagram in enumerate_diagrams(c):
            span = diagram_span(diagram)
            for x in diagram.crossing_ids():
                assert abs(diagram_span(diagram.crossing_change(x)) - span) <= 2


@given(diagrams())
def test_labeling_agrees_with_brute_scan(d):
    assert labeling(d) == brute_labeling(d)


@given(diagrams(min_crossings=1))
def test_prediction_matches_recomputation(d):
    for x in d.crossing_ids():
        assert predict_crossing_change(d, x) == warping_polynomial(
            d.crossing_change(x)
        )
