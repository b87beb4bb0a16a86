import random

import pytest

from warppoly import (
    GaussDiagram,
    Pass,
    WarpPoly,
    connected_sum,
    enumerate_diagrams,
    find_edge_with_label,
    insert_kink_over_first,
    insert_kink_under_first,
    labeling,
    parse_gauss,
    warping_polynomial,
)
from warppoly.errors import EdgeOutOfRangeError, EmptySummandError, NoSuchLabelError

from _oracles import remap_connected_sum

TREFOIL = parse_gauss("O1 U2 O3 U1 O2 U3")
EMPTY = GaussDiagram(())


def kink_term(i):
    return WarpPoly(((i, 1), (i + 1, 1)))


def test_over_first_kink_at_label_one():
    # trefoil labels are (2,1,2,1,2,1); lowest edge labeled 1 is edge 1
    edge = find_edge_with_label(TREFOIL, 1)
    assert edge == 1
    out = insert_kink_over_first(TREFOIL, edge)
    assert str(out) == "O1 U2 O4 U4 O3 U1 O2 U3"
    assert warping_polynomial(out) == WarpPoly(((1, 4), (2, 4)))


def test_over_first_kink_at_label_two():
    out = insert_kink_over_first(TREFOIL, find_edge_with_label(TREFOIL, 2))
    assert warping_polynomial(out) == WarpPoly(((1, 3), (2, 4), (3, 1)))


def test_under_first_kink_at_label_one():
    out = insert_kink_under_first(TREFOIL, find_edge_with_label(TREFOIL, 1))
    assert warping_polynomial(out) == WarpPoly(((1, 1), (2, 4), (3, 3)))


def test_kinks_on_empty_diagram():
    assert str(insert_kink_over_first(EMPTY, 0)) == "O1 U1"
    assert warping_polynomial(insert_kink_over_first(EMPTY, 0)) == WarpPoly(
        ((0, 1), (1, 1))
    )
    assert str(insert_kink_under_first(EMPTY, 0)) == "U1 O1"
    with pytest.raises(EdgeOutOfRangeError):
        insert_kink_over_first(EMPTY, 1)


def test_under_first_kink_on_one_crossing():
    d = parse_gauss("O1 U1")
    out = insert_kink_under_first(d, 0)
    assert str(out) == "O1 U2 O2 U1"
    assert labeling(out) == (2, 1, 2, 1)
    assert warping_polynomial(out) == WarpPoly(((1, 2), (2, 2)))


def test_kink_identities_exhaustively():
    for c in range(1, 4):
        for diagram in enumerate_diagrams(c):
            poly = warping_polynomial(diagram)
            labels = labeling(diagram)
            for edge, i in enumerate(labels):
                over = warping_polynomial(insert_kink_over_first(diagram, edge))
                assert over == poly + kink_term(i)
                under = warping_polynomial(insert_kink_under_first(diagram, edge))
                assert under == poly.shift(1) + kink_term(i)


def test_kinks_preserve_evenness():
    for c in range(0, 4):
        for diagram in enumerate_diagrams(c):
            if not diagram.evenness_lint():
                continue
            for edge in range(diagram.edge_count):
                assert insert_kink_over_first(diagram, edge).evenness_lint()
                assert insert_kink_under_first(diagram, edge).evenness_lint()


def test_connected_sum_golden():
    # splice a curl at the trefoil's last edge (labeled 1) and the curl's
    # edge labeled 0
    curl = parse_gauss("O1 U1")
    out = connected_sum(TREFOIL, 5, curl, 1)
    assert str(out) == "O1 U2 O3 U1 O2 U3 O4 U4"
    assert warping_polynomial(out) == WarpPoly(((1, 4), (2, 4)))


def test_connected_sum_polynomial_identity():
    curl = parse_gauss("O1 U1")
    out = connected_sum(TREFOIL, 1, curl, 1)
    # i = 1 (trefoil edge 1), j = 0 (curl edge 1): t^0 W_D + t^1 W_E
    expected = warping_polynomial(TREFOIL).shift(0) + warping_polynomial(curl).shift(1)
    assert warping_polynomial(out) == expected


def test_connected_sum_rejects_empty_summand():
    with pytest.raises(EmptySummandError):
        connected_sum(TREFOIL, 0, EMPTY, 0)
    with pytest.raises(EmptySummandError):
        connected_sum(EMPTY, 0, TREFOIL, 0)


def test_connected_sum_renumbers_fresh():
    out = connected_sum(TREFOIL, 0, TREFOIL, 0)
    assert out.crossing_count == 6
    assert sorted(out.crossing_ids()) == [1, 2, 3, 4, 5, 6]


def test_find_edge_with_label_examples():
    assert find_edge_with_label(TREFOIL, 1) == 1
    assert find_edge_with_label(parse_gauss("O1 O2 O3 U1 U2 U3"), 0) == 5
    with pytest.raises(NoSuchLabelError):
        find_edge_with_label(TREFOIL, 0)


def _scrambled(diagram, rng):
    # distinct ids with gaps and a random sign per crossing, so the splice
    # sees a nonzero max id offset and signs to carry across
    ids = diagram.crossing_ids()
    new_ids = dict(zip(ids, rng.sample(range(1, 40), len(ids))))
    signs = {x: rng.choice((None, "+", "-")) for x in ids}
    return GaussDiagram(
        tuple(
            Pass(new_ids[p.crossing], p.strand, signs[p.crossing])
            for p in diagram.passes
        )
    )


def test_connected_sum_matches_remap_oracle():
    small = [d for c in (1, 2) for d in enumerate_diagrams(c)]
    for left in small:
        for right in small:
            for edge in range(left.edge_count):
                for other_edge in range(right.edge_count):
                    assert connected_sum(left, edge, right, other_edge) == (
                        remap_connected_sum(left, edge, right, other_edge)
                    )
    rng = random.Random(20261018)
    codes = [d for c in (1, 2, 3) for d in enumerate_diagrams(c)]
    for _ in range(3000):
        left = _scrambled(rng.choice(codes), rng)
        right = _scrambled(rng.choice(codes), rng)
        edge = rng.randrange(left.edge_count)
        other_edge = rng.randrange(right.edge_count)
        assert connected_sum(left, edge, right, other_edge) == (
            remap_connected_sum(left, edge, right, other_edge)
        )
