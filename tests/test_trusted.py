"""Internal builders skip re-validation; check they never needed it.

Every diagram an internal transform builds must equal the same passes run
through the validating constructor, and every polynomial it builds must
already be in normal form (ascending, merged, positive).  Outside input
must still be refused exactly as before.
"""

import random

import pytest

from warppoly import (
    BraidWord,
    GaussDiagram,
    Pass,
    WarpPoly,
    braid_closure,
    canonicalize,
    connected_sum,
    enumerate_diagrams,
    fg_decomposition,
    insert_kink_over_first,
    insert_kink_under_first,
    labeling,
    one_bridge_diagram,
    parse_gauss,
    parse_poly,
    predict_crossing_change,
    span_witness,
    warping,
    warping_polynomial,
)
from warppoly.cli import main
from warppoly.errors import (
    GaussCodeError,
    NegativeCoefficientError,
    NegativeDegreeError,
    NotAKnotError,
    OddLengthError,
    PairingError,
    SignMismatchError,
)
from warppoly.laurent import _normalize, counts_to_poly


def assert_valid_diagram(d: GaussDiagram) -> None:
    assert type(d.passes) is tuple
    assert GaussDiagram(d.passes) == d


def assert_normal_poly(p: WarpPoly) -> None:
    assert type(p.terms) is tuple
    assert p.terms == _normalize(p.terms)


def small_codes(max_crossings):
    for c in range(max_crossings + 1):
        yield from enumerate_diagrams(c)


def test_diagram_transforms_build_valid_codes():
    for d in small_codes(4):
        assert_valid_diagram(d.mirror())
        assert_valid_diagram(d.reverse())
        assert_valid_diagram(canonicalize(d))
        for x in d.crossing_ids():
            assert_valid_diagram(d.crossing_change(x))
        for edge in range(d.edge_count):
            assert_valid_diagram(insert_kink_over_first(d, edge))
            assert_valid_diagram(insert_kink_under_first(d, edge))


def test_connected_sums_build_valid_codes():
    summands = [d for c in (1, 2) for d in enumerate_diagrams(c)]
    for left in summands:
        for right in summands:
            for edge in range(left.edge_count):
                for other_edge in range(right.edge_count):
                    assert_valid_diagram(connected_sum(left, edge, right, other_edge))


def test_signed_inputs_keep_valid_codes():
    d = parse_gauss("O1+ U2- O3+ U1+ O2- U3+")
    other = parse_gauss("U1- O1-")
    for out in (d.mirror(), d.reverse(), d.crossing_change(2), canonicalize(d),
                connected_sum(d, 3, other, 0), insert_kink_under_first(d, 5)):
        assert_valid_diagram(out)


def test_braid_closures_build_valid_codes():
    rng = random.Random(20110926)
    knots = 0
    while knots < 200:
        n = rng.randint(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(1, 24))
        )
        try:
            d = braid_closure(BraidWord(n, letters))
        except NotAKnotError:
            continue
        knots += 1
        assert_valid_diagram(d)
        assert d.crossing_count == len(letters)


def test_one_bridge_recipes_build_valid_codes():
    for l in range(1, 12):
        assert_valid_diagram(one_bridge_diagram(l))
        assert_valid_diagram(span_witness(l, l))
        if l >= 2:
            assert_valid_diagram(span_witness(l + 3, l))


def test_polynomial_builders_stay_normalized():
    for d in small_codes(4):
        c = d.crossing_count
        labels = labeling(d)
        poly = counts_to_poly(labels)
        assert_normal_poly(poly)
        assert_normal_poly(poly.shift(0))
        assert_normal_poly(poly.shift(2))
        assert_normal_poly(poly.reflect(c))
        assert_normal_poly(poly.reflect(c + 1))
        assert_normal_poly(poly + poly.reflect(c))
        assert_normal_poly(poly + WarpPoly(((labels[-1] + 3, 1),)))
        for x in d.crossing_ids():
            f, g = fg_decomposition(d, x)
            assert_normal_poly(f)
            assert_normal_poly(g)
            assert_normal_poly(f + g)
            predicted = predict_crossing_change(d, x)
            assert_normal_poly(predicted)
            assert predicted == warping_polynomial(d.crossing_change(x))
    assert_normal_poly(WarpPoly(()).shift(3))
    assert_normal_poly(WarpPoly(()).reflect(2))
    assert_normal_poly(WarpPoly(()) + WarpPoly.one())


def test_counts_to_poly_refuses_negative_labels():
    with pytest.raises(NegativeDegreeError):
        counts_to_poly([2, -1, 0])
    assert counts_to_poly([]) == WarpPoly(())


def test_prediction_keeps_lower_degree_guard(monkeypatch):
    # a labeling that breaks ldeg(f) >= 1 must raise, not shift below zero
    monkeypatch.setattr(warping, "labeling", lambda d: (0,) * len(d.passes))
    with pytest.raises(NegativeDegreeError, match=r"degree -1 < 0"):
        predict_crossing_change(parse_gauss("O1 U2 O3 U1 O2 U3"), 1)


BAD_CODES = [
    ("O1 U1 O2", OddLengthError, "pass sequence has odd length 3"),
    ("O1 U2", PairingError, "crossing 1 occurs 1 times over, 0 times under"),
    ("O1 O1", PairingError, "crossing 1 occurs 2 times over, 0 times under"),
    ("O1 U1 O2 U2 U1 O1", PairingError,
     "crossing 1 occurs 2 times over, 2 times under"),
    ("O1+ U1-", SignMismatchError, "crossing 1 carries both signs"),
    ("O1 U2+ O2- U1", SignMismatchError, "crossing 2 carries both signs"),
    ("O0 U0", GaussCodeError, "crossing ids must be positive, got 0"),
]


@pytest.mark.parametrize("text, error, message", BAD_CODES)
def test_outside_codes_still_validated(text, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        parse_gauss(text)
    passes = []
    for token in text.split():
        sign = token[-1] if token[-1] in "+-" else None
        passes.append(Pass(int(token[1:].rstrip("+-")), token[0], sign))
    with pytest.raises(error, match=f"^{message}$"):
        GaussDiagram(tuple(passes))
    with pytest.raises(error, match=f"^{message}$"):
        GaussDiagram(passes)


# passes no text can spell: parse_gauss refuses their tokens first, so
# only the validating constructor sees them
BAD_PASSES = [
    ((Pass(1, "X"), Pass(1, "U")), "bad strand marker 'X'"),
    ((Pass(1, "o"), Pass(1, "U")), "bad strand marker 'o'"),
    ((Pass(1, "O", "*"), Pass(1, "U", "*")), "bad sign '*'"),
    ((Pass(1, "O"), Pass(1, "U", "")), "bad sign ''"),
]


@pytest.mark.parametrize("passes, message", BAD_PASSES)
def test_outside_passes_still_validated(passes, message):
    for given in (passes, list(passes)):
        with pytest.raises(GaussCodeError) as info:
            GaussDiagram(given)
        assert str(info.value) == message


@pytest.mark.parametrize("text, error, message", BAD_CODES)
def test_cli_still_refuses_bad_codes(capsys, text, error, message):
    commands = (
        ["mirror", text],
        ["kink", "--type", "1a", "--edge", "0", text],
        ["connect", text, "O1 U1", "--edge", "0", "--edge2", "0"],
        ["connect", "O1 U1", text, "--edge", "0", "--edge2", "0"],
    )
    for argv in commands:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "terms, error",
    [
        (((-1, 1),), NegativeDegreeError),
        (((0, 1), (-2, 3)), NegativeDegreeError),
        (((0, -1),), NegativeCoefficientError),
        ({1: 2, 3: -1}, NegativeCoefficientError),
    ],
)
def test_outside_polynomials_still_validated(terms, error):
    with pytest.raises(error):
        WarpPoly(terms)


@pytest.mark.parametrize(
    "text, error",
    [
        ("1+t^-1", NegativeDegreeError),
        ("-1:1,1", NegativeDegreeError),
        ("0:1,-2", NegativeCoefficientError),
    ],
)
def test_parsed_polynomials_still_validated(text, error):
    with pytest.raises(error):
        parse_poly(text)
