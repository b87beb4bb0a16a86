import pytest
from hypothesis import given

from warppoly import GaussDiagram, Pass, enumerate_diagrams, parse_gauss
from warppoly.errors import (
    EdgeOutOfRangeError,
    OddLengthError,
    PairingError,
    SignMismatchError,
    UnknownCrossingError,
    ZeroCrossingsError,
)

from _oracles import phase_dealternating
from _strategies import diagrams

TREFOIL = "O1 U2 O3 U1 O2 U3"
ONE_BRIDGE_3 = "O1 O2 O3 U1 U2 U3"


def test_validate_trefoil():
    d = parse_gauss(TREFOIL)
    assert d.crossing_count == 3
    assert d.edge_count == 6


def test_validate_empty():
    d = GaussDiagram(())
    assert d.crossing_count == 0
    assert d.edge_count == 1


def test_validate_rejects_double_over():
    with pytest.raises(PairingError):
        GaussDiagram((Pass(1, "O"), Pass(1, "O")))


def test_validate_rejects_odd_length():
    with pytest.raises(OddLengthError):
        GaussDiagram((Pass(1, "O"),))


def test_validate_rejects_unpaired_id():
    with pytest.raises(PairingError):
        parse_gauss("O1 U2 O2 U3")


def test_validate_rejects_sign_mismatch():
    with pytest.raises(SignMismatchError):
        parse_gauss("O1+ U1-")


def test_signs_may_be_partial():
    d = parse_gauss("O1+ U1")
    assert d.passes[0].sign == "+"
    assert d.passes[1].sign is None


def test_crossing_count_examples():
    assert parse_gauss(TREFOIL).crossing_count == 3
    assert GaussDiagram(()).crossing_count == 0
    assert parse_gauss("O1 U1").crossing_count == 1


def test_is_alternating():
    assert parse_gauss(TREFOIL).is_alternating()
    assert not parse_gauss(ONE_BRIDGE_3).is_alternating()
    assert not GaussDiagram(()).is_alternating()


def test_is_one_bridge():
    assert parse_gauss(ONE_BRIDGE_3).is_one_bridge()
    assert not parse_gauss(TREFOIL).is_one_bridge()
    assert parse_gauss("U1 U2 O1 O2").is_one_bridge()
    with pytest.raises(ZeroCrossingsError):
        GaussDiagram(()).is_one_bridge()


def test_one_bridge_never_alternating_beyond_one_crossing():
    assert parse_gauss("O1 U1").is_one_bridge()
    assert parse_gauss("O1 U1").is_alternating()
    for text in (ONE_BRIDGE_3, "O1 O2 U1 U2"):
        d = parse_gauss(text)
        assert d.is_one_bridge() and not d.is_alternating()


def test_mirror_examples():
    assert str(parse_gauss("O1 U1").mirror()) == "U1 O1"
    assert str(parse_gauss(ONE_BRIDGE_3).mirror()) == "U1 U2 U3 O1 O2 O3"


def test_mirror_flips_signs():
    assert str(parse_gauss("o1+ u1+").mirror()) == "U1- O1-"


def test_reverse_examples():
    assert str(parse_gauss("O1 U1").reverse()) == "U1 O1"
    assert (
        str(parse_gauss("O1 U2 O3 U4 O2 U1 O4 U3").reverse())
        == "U3 O4 U1 O2 U4 O3 U2 O1"
    )


def test_crossing_change_examples():
    assert str(parse_gauss(TREFOIL).crossing_change(1)) == "U1 U2 O3 O1 O2 U3"
    assert str(parse_gauss("O1 U1").crossing_change(1)) == "U1 O1"
    with pytest.raises(UnknownCrossingError):
        parse_gauss(TREFOIL).crossing_change(9)


def test_evenness_lint_examples():
    assert parse_gauss(TREFOIL).evenness_lint()
    assert parse_gauss("O1 U1").evenness_lint()
    assert not parse_gauss("O1 O2 U1 U2").evenness_lint()


def test_edge_range_check():
    d = parse_gauss(TREFOIL)
    assert d.check_edge(5) == 5
    with pytest.raises(EdgeOutOfRangeError):
        d.check_edge(6)
    with pytest.raises(EdgeOutOfRangeError):
        GaussDiagram(()).check_edge(1)


@given(diagrams(signed=True))
def test_mirror_and_reverse_are_commuting_involutions(d):
    assert d.mirror().mirror() == d
    assert d.reverse().reverse() == d
    assert d.mirror().reverse() == d.reverse().mirror()


@given(diagrams(min_crossings=1, signed=True))
def test_crossing_change_is_involution(d):
    x = d.passes[0].crossing
    assert d.crossing_change(x).crossing_change(x) == d


def test_evenness_lint_matches_phase_reachability():
    # evenness is exactly the condition under which some alternating phase
    # is reachable by crossing changes
    for c in range(6):
        for d in enumerate_diagrams(c):
            assert d.evenness_lint() == (phase_dealternating(d) is not None)
