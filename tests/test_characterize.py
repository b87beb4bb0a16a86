import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given

from warppoly import (
    CharForm,
    Rejection,
    WarpPoly,
    characterize,
    encode_form,
    enumerate_diagrams,
    moves,
    one_bridge_diagram,
    parse_poly,
    recognize,
    witness,
    warping_polynomial,
)
from warppoly.characterize import (
    REJECT_BAD_ENDS,
    REJECT_GAP,
    REJECT_NON_UNIT_SPAN_ZERO,
    REJECT_SUM_TOO_SMALL,
    REJECT_ZERO,
)
from warppoly.cli import main
from warppoly.errors import BoundExceededError, VerificationFailedError

from _oracles import scan_recognize, split_first_witness, staircase_forms
from _strategies import char_forms, diagrams


def test_one_bridge_diagram_examples():
    assert str(one_bridge_diagram(1)) == "O1 U1"
    assert str(one_bridge_diagram(3)) == "O1 O2 O3 U1 U2 U3"
    with pytest.raises(ValueError):
        one_bridge_diagram(0)


def one_bridge_polynomial(l):
    # the staircase form with k = 0 and every m_i = 1
    return encode_form(CharForm(0, (1,) * l))


def test_one_bridge_polynomial_examples():
    assert one_bridge_polynomial(0) == WarpPoly.one()
    assert one_bridge_polynomial(2) == parse_poly("1+2t+t^2")
    assert one_bridge_polynomial(3) == parse_poly("1+2t+2t^2+t^3")


def test_one_bridge_family_realizes_its_polynomial():
    for l in range(1, 11):
        diagram = one_bridge_diagram(l)
        assert warping_polynomial(diagram) == one_bridge_polynomial(l)
        assert warping_polynomial(diagram).span() == l


def test_one_bridge_iff_staircase_polynomial():
    # both directions, exhaustively: the marker pattern is O^c U^c exactly
    # when the polynomial is the one-bridge staircase
    for c in range(1, 5):
        for diagram in enumerate_diagrams(c):
            is_staircase = warping_polynomial(diagram) == one_bridge_polynomial(c)
            assert diagram.is_one_bridge() == is_staircase
            if diagram.is_one_bridge() and c >= 2:
                assert not diagram.is_alternating()


def test_recognize_accepts_one_bridge_value():
    form = recognize(parse_poly("1+2t+2t^2+t^3"))
    assert form == CharForm(0, (1, 1, 1))


def test_recognize_accepts_trefoil_value():
    form = recognize(parse_poly("3t+3t^2"))
    assert form == CharForm(1, (3,))


def test_recognize_rejects_thin_staircase():
    result = recognize(parse_poly("t+t^2"))
    assert result == Rejection(REJECT_SUM_TOO_SMALL)


def test_recognize_accepts_unit():
    assert recognize(WarpPoly.one()) == CharForm(0, ())


def test_recognize_rejects_bad_top():
    assert recognize(parse_poly("1+3t+t^2")) == Rejection(REJECT_BAD_ENDS)


def test_recognize_rejects_zero_gap_and_span_zero():
    assert recognize(WarpPoly(())) == Rejection(REJECT_ZERO)
    assert recognize(parse_poly("1+t^3")) == Rejection(REJECT_GAP)
    assert recognize(parse_poly("t")) == Rejection(REJECT_NON_UNIT_SPAN_ZERO)
    assert recognize(parse_poly("2")) == Rejection(REJECT_NON_UNIT_SPAN_ZERO)


def test_recognize_rejects_negative_middle_step():
    # coefficients 1, 2, 1, 2: m would go 1, 1, 0
    assert recognize(parse_poly("1+2t+t^2+2t^3")) == Rejection(REJECT_BAD_ENDS)


def test_char_form_validation():
    with pytest.raises(ValueError):
        CharForm(-1, (1,))
    with pytest.raises(ValueError):
        CharForm(0, (0,))
    with pytest.raises(ValueError):
        CharForm(2, (1,))  # sum 1 < k + l = 3
    with pytest.raises(ValueError):
        CharForm(1, ())  # l = 0 forces k = 0: sum 0 < k + l = 1


def test_encode_form_examples():
    assert encode_form(CharForm(0, ())) == WarpPoly.one()
    assert encode_form(CharForm(1, (3,))) == parse_poly("3t+3t^2")
    assert encode_form(CharForm(0, (1, 1, 1))) == parse_poly("1+2t+2t^2+t^3")


def test_witness_goldens():
    assert str(witness(CharForm(0, (1, 1, 1)))) == "O1 O2 O3 U1 U2 U3"
    assert str(witness(CharForm(1, (2,)))) == "O1 U2 O2 U1"
    three = witness(CharForm(1, (3,)))
    assert three.crossing_count == 3
    assert warping_polynomial(three) == parse_poly("3t+3t^2")


def test_witness_of_empty_form():
    assert witness(CharForm(0, ())).crossing_count == 0


def test_witness_crossing_count_is_coefficient_sum():
    # each m_i contributes one one-bridge crossing plus m_i - 1 kinks
    for form in (CharForm(0, (2, 1)), CharForm(2, (2, 2)), CharForm(3, (4,))):
        assert witness(form).crossing_count == sum(form.m)


def test_witness_refuses_hostile_size_in_small_memory():
    form = recognize(parse_poly("0:1000000000000,2000000000000,1000000000000"))
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError) as info:
            witness(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "witness of 2000000000000 crossings above bound 100000"
    assert peak < 1 << 20


def test_witness_builds_up_to_its_bound(monkeypatch):
    # a sum equal to the bound is built; one more crossing is refused
    monkeypatch.setattr(characterize, "WITNESS_BOUND", 3)
    assert witness(CharForm(1, (3,))).crossing_count == 3
    with pytest.raises(BoundExceededError, match="^witness of 4 crossings above bound 3$"):
        witness(CharForm(0, (2, 2)))


def test_witness_self_check_catches_a_wrong_kink(monkeypatch, capsys):
    # an internal bug: every over-first kink comes out under-first
    monkeypatch.setattr(characterize, "insert_kink_over_first", moves.insert_kink_under_first)
    with pytest.raises(VerificationFailedError, match="^witness produced "):
        witness(CharForm(1, (3,)))
    assert main(["witness", "3t+3t^2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: witness produced ")


def test_witness_matches_split_first_oracle():
    forms = staircase_forms(8)
    rng = random.Random(14)
    for _ in range(6):
        m = tuple(rng.randint(1, 20) for _ in range(rng.randint(5, 25)))
        forms.append(CharForm(rng.randint(0, sum(m) - len(m)), m))
    assert max(sum(form.m) for form in forms) >= 100
    for form in forms:
        assert str(witness(form)) == str(split_first_witness(form)), form


def test_recognition_sound_on_small_codes():
    for c in range(0, 4):
        for diagram in enumerate_diagrams(c):
            form = recognize(warping_polynomial(diagram))
            assert isinstance(form, CharForm)


@given(char_forms())
def test_recognize_inverts_encode(form):
    assert recognize(encode_form(form)) == form


@given(char_forms())
def test_encoded_forms_pass_necessary_conditions(form):
    poly = encode_form(form)
    assert poly.gap_free()
    if form.l >= 1:
        assert poly(-1) == 0


@given(char_forms())
def test_witness_reproduces_encoded_polynomial(form):
    assert warping_polynomial(witness(form)) == encode_form(form)


@given(diagrams())
def test_accepted_polynomials_pass_necessary_conditions(d):
    poly = warping_polynomial(d)
    form = recognize(poly)
    assert isinstance(form, CharForm)
    assert poly.gap_free()
    if d.crossing_count >= 1:
        assert poly(-1) == 0


def _same_answer(a, b) -> bool:
    # Rejection equality ignores the detail text, which must match too
    if isinstance(a, Rejection):
        return isinstance(b, Rejection) and (a.reason, a.detail) == (b.reason, b.detail)
    return a == b


def test_recognize_matches_scan_oracle_on_gap_free_polynomials():
    polys = [WarpPoly(()), WarpPoly(((0, 1), (2, 1))), WarpPoly(((1, 2), (4, 2)))]
    for start in range(4):
        for span in range(5):
            for coeffs in product((1, 2, 3), repeat=span + 1):
                polys.append(WarpPoly(tuple(zip(range(start, start + span + 1), coeffs))))
    assert len(polys) == 3 + 4 * (3 + 9 + 27 + 81 + 243)
    for poly in polys:
        assert _same_answer(recognize(poly), scan_recognize(poly)), poly


def test_recognize_matches_scan_oracle_on_staircase_forms():
    for form in staircase_forms(8):
        poly = encode_form(form)
        assert recognize(poly) == form
        assert _same_answer(recognize(poly), scan_recognize(poly)), poly
