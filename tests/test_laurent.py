import pytest
from hypothesis import given

from warppoly import WarpPoly
from warppoly.errors import (
    DegreeBoundError,
    NegativeCoefficientError,
    NegativeDegreeError,
    ZeroPolynomialError,
)

from _strategies import polynomials

F3 = WarpPoly(((0, 1), (1, 2), (2, 2), (3, 1)))  # 1+2t+2t^2+t^3
TREFOIL_POLY = WarpPoly(((1, 3), (2, 3)))  # 3t+3t^2


def test_eval_examples():
    assert F3(1) == 6
    assert TREFOIL_POLY(-1) == 0
    assert WarpPoly.one()(0) == 1


def test_degree_bounds_examples():
    assert F3.ldeg() == 0
    assert F3.udeg() == 3
    assert F3.span() == 3
    assert TREFOIL_POLY.span() == 1
    assert WarpPoly(((2, 4),)).span() == 0


def test_zero_polynomial_has_no_bounds():
    zero = WarpPoly(())
    assert zero.is_zero
    for op in (zero.ldeg, zero.udeg, zero.span):
        with pytest.raises(ZeroPolynomialError):
            op()


def test_add_and_shift_examples():
    assert WarpPoly(((0, 1), (1, 1))).shift(1) == WarpPoly(((1, 1), (2, 1)))
    assert TREFOIL_POLY + WarpPoly(((1, 1), (2, 1))) == WarpPoly(((1, 4), (2, 4)))
    assert TREFOIL_POLY.shift(0) == TREFOIL_POLY
    with pytest.raises(NegativeDegreeError):
        TREFOIL_POLY.shift(-1)


def test_reflect_examples():
    assert WarpPoly(((1, 4), (2, 4))).reflect(4) == WarpPoly(((2, 4), (3, 4)))
    assert F3.reflect(3) == F3  # palindrome
    with pytest.raises(DegreeBoundError):
        F3.reflect(2)
    assert WarpPoly(()).reflect(0) == WarpPoly(())


def test_gap_free_examples():
    assert F3.gap_free()
    assert not WarpPoly(((0, 1), (3, 1))).gap_free()
    assert WarpPoly(((0, 7),)).gap_free()
    with pytest.raises(ZeroPolynomialError):
        WarpPoly(()).gap_free()


def test_construction_normalizes():
    assert WarpPoly(((2, 0), (1, 3))) == WarpPoly(((1, 3),))
    assert WarpPoly(((1, 1), (1, 2))) == WarpPoly(((1, 3),))
    assert WarpPoly({1: 3, 2: 3}.items()) == TREFOIL_POLY


def test_construction_rejects_negative():
    with pytest.raises(NegativeCoefficientError):
        WarpPoly(((1, -1),))
    with pytest.raises(NegativeDegreeError):
        WarpPoly(((-1, 1),))


def test_rendering():
    assert str(F3) == "1+2t+2t^2+t^3"
    assert str(TREFOIL_POLY) == "3t+3t^2"
    assert str(WarpPoly(())) == "0"
    assert str(WarpPoly(((1, 1),))) == "t"
    assert str(WarpPoly(((0, 7),))) == "7"


@given(polynomials(), polynomials())
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polynomials(), polynomials(), polynomials())
def test_add_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polynomials())
def test_reflect_is_involution(p):
    c = (p.udeg() if not p.is_zero else 0) + 2
    assert p.reflect(c).reflect(c) == p


@given(polynomials())
def test_shift_adds_to_evaluation_degreewise(p):
    shifted = p.shift(3)
    assert shifted(1) == p(1)
    assert shifted.as_dict() == {d + 3: c for d, c in p.as_dict().items()}
