import math
import random
import tracemalloc

import pytest
from hypothesis import given

from warppoly import (
    BraidWord,
    GaussDiagram,
    Pass,
    braid_closure,
    canonicalize,
    diagram_span,
    enumerate_diagrams,
    parse_braid,
    parse_gauss,
    parse_poly,
)
from warppoly.errors import (
    NegativeCoefficientError,
    NegativeDegreeError,
    NotAKnotError,
    ParseError,
)

from _oracles import closure_components, rotation_canonicalize, two_path_braid_closure
from _strategies import diagrams


def test_parse_gauss_trefoil():
    d = parse_gauss("O1 U2 O3 U1 O2 U3")
    assert d.crossing_count == 3
    assert str(d) == "O1 U2 O3 U1 O2 U3"


def test_parse_gauss_case_and_signs():
    d = parse_gauss("o1+ u1+")
    assert d.crossing_count == 1
    assert d.passes[0].sign == "+"
    assert str(d) == "O1+ U1+"


def test_parse_gauss_bad_token_position():
    with pytest.raises(ParseError) as err:
        parse_gauss("O1 X2")
    assert err.value.position == 2


def test_format_parse_round_trip():
    for text in ("", "O1 U1", "O1 U2 O3 U1 O2 U3", "O1+ U2- O2- U1+"):
        d = parse_gauss(text)
        assert parse_gauss(str(d)) == d


def test_canonical_examples():
    assert str(canonicalize(parse_gauss("U1 O1"))) == "O1 U1"
    assert str(canonicalize(GaussDiagram(()))) == ""
    # renumbering by first appearance
    assert str(canonicalize(parse_gauss("O7 U9 O9 U7"))) == "O1 U2 O2 U1"


def test_canonical_is_rotation_invariant():
    d = parse_gauss("O1 U2 O3 U1 O2 U3")
    n = len(d.passes)
    canon = canonicalize(d)
    for r in range(n):
        rotated = GaussDiagram(d.passes[r:] + d.passes[:r])
        assert canonicalize(rotated) == canon


def _signed(diagram, rng):
    """The diagram with a seeded sign pattern: unsigned, all one sign, or mixed."""
    ids = diagram.crossing_ids()
    mode = rng.randrange(4)
    if mode == 3:
        signs = {x: rng.choice("+-") for x in ids}
    else:
        signs = dict.fromkeys(ids, (None, "+", "-")[mode])
    return GaussDiagram(tuple(p._replace(sign=signs[p.crossing]) for p in diagram.passes))


def _rotated_renumbered(diagram, rng):
    passes = diagram.passes
    r = rng.randrange(len(passes))
    ids = list(diagram.crossing_ids())
    rng.shuffle(ids)
    remap = dict(zip(diagram.crossing_ids(), ids))
    return GaussDiagram(
        tuple(p._replace(crossing=remap[p.crossing]) for p in passes[r:] + passes[:r])
    )


def _knot_word(rng, strands, length, positive):
    """Random letters, then letters merging cycles of the strand permutation
    until the closure is a knot."""
    word = [rng.randint(1, strands - 1) for _ in range(length)]
    if not positive:
        word = [w if rng.random() < 0.5 else -w for w in word]
    perm = list(range(strands))
    for w in word:
        perm[abs(w) - 1], perm[abs(w)] = perm[abs(w)], perm[abs(w) - 1]
    while True:
        cycle = [0] * strands
        for start in range(strands):
            if not cycle[start]:
                x = start
                while not cycle[x]:
                    cycle[x] = start + 1
                    x = perm[x]
        if len(set(cycle)) == 1:
            return BraidWord(strands, tuple(word))
        a = next(i for i in range(strands - 1) if cycle[i] != cycle[i + 1])
        word.append(a + 1)
        perm[a], perm[a + 1] = perm[a + 1], perm[a]


def _one_bridge(rng, c):
    unders = list(range(1, c + 1))
    rng.shuffle(unders)
    passes = [Pass(i, "O") for i in range(1, c + 1)] + [Pass(i, "U") for i in unders]
    return GaussDiagram(tuple(passes))


def _spiral(c):
    passes = [Pass(i, "O") for i in range(1, c + 1)]
    return GaussDiagram(tuple(passes + [Pass(i, "U") for i in range(c, 0, -1)]))


def test_canonical_matches_rotation_oracle_exhaustive():
    rng = random.Random(20261018)
    for c in range(0, 6):
        for d in enumerate_diagrams(c):
            d = _signed(d, rng)
            assert canonicalize(d) == rotation_canonicalize(d)


def test_canonical_matches_rotation_oracle_random_families():
    rng = random.Random(11)
    for size in (3, 8, 20, 50, 120):
        for _ in range(4):
            for d in (
                braid_closure(_knot_word(rng, 3, size, True)),
                braid_closure(_knot_word(rng, rng.randint(3, 12), size, False)),
                _one_bridge(rng, size),
            ):
                moved = _rotated_renumbered(d, rng)
                assert canonicalize(moved) == rotation_canonicalize(moved)
                assert canonicalize(moved) == canonicalize(d)


def test_canonical_matches_rotation_oracle_structured_families():
    # periodic and nested codes hold long runs of equal keys
    rng = random.Random(3)
    for c in (1, 2, 5, 13, 40, 101, 200):
        family = [_one_bridge(rng, c), _spiral(c), _signed(_spiral(c), rng)]
        family.append(braid_closure(BraidWord(2, (1,) * (c | 1))))
        for letters in ((1, 2), (1, -2), (1, 2, 3)):
            k = max(1, c // len(letters))
            while math.gcd(k, len(letters) + 1) != 1:  # keep the closure a knot
                k += 1
            family.append(braid_closure(BraidWord(len(letters) + 1, letters * k)))
        for d in family:
            moved = _rotated_renumbered(d, rng)
            assert canonicalize(d) == rotation_canonicalize(d)
            assert canonicalize(moved) == rotation_canonicalize(moved)


def test_canonical_invariance_on_large_codes():
    # the rotation-key argmin would build 8,000 keys of 8,000 elements for each
    rng = random.Random(4000)
    for d in (
        braid_closure(BraidWord(3, (1, 2) * 2000)),
        _one_bridge(rng, 4000),
    ):
        assert d.crossing_count == 4000
        canon = canonicalize(d)
        assert canon.crossing_ids() == tuple(range(1, 4001))
        for _ in range(3):
            assert canonicalize(_rotated_renumbered(d, rng)) == canon


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(1, (1,))
    with pytest.raises(ValueError):
        BraidWord(2, ())
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))


def test_parse_braid():
    assert parse_braid("1 -2 1", 3) == BraidWord(3, (1, -2, 1))
    with pytest.raises(ParseError):
        parse_braid("1 x", 3)
    with pytest.raises(ParseError):
        parse_braid("", 2)
    with pytest.raises(ParseError):
        parse_braid("3", 3)


def test_braid_closure_trefoil():
    d = braid_closure(BraidWord(2, (1, 1, 1)))
    assert str(canonicalize(d)) == "O1+ U2+ O3+ U1+ O2+ U3+"
    unsigned = GaussDiagram(tuple(p._replace(sign=None) for p in d.passes))
    assert str(canonicalize(unsigned)) == "O1 U2 O3 U1 O2 U3"
    assert diagram_span(d) == 1
    assert all(p.sign == "+" for p in d.passes)


def test_braid_closure_eight_crossing_span_two():
    d = braid_closure(BraidWord(3, (1, 2) * 4))
    assert d.crossing_count == 8
    assert diagram_span(d) == 2
    # all-positive words with adjacent generators never close up alternating
    assert not d.is_alternating()


def test_braid_closure_rejects_links():
    with pytest.raises(NotAKnotError):
        braid_closure(BraidWord(2, (1, 1)))
    with pytest.raises(NotAKnotError):
        braid_closure(BraidWord(3, (1,)))


def test_braid_closure_component_count_matches_strand_trace():
    # untouched strands plus the touched cycles must count components like
    # a trace of every strand
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 12)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 14))
        )
        components = closure_components(n, letters)
        if components == 1:
            assert braid_closure(BraidWord(n, letters)).crossing_count == len(letters)
            continue
        with pytest.raises(NotAKnotError) as info:
            braid_closure(BraidWord(n, letters))
        assert str(info.value) == f"closure has {components} components, not 1"


def _closure_or_error(closure, word):
    try:
        return str(closure(word))
    except NotAKnotError as exc:
        return f"error: {exc}"


def test_braid_closure_matches_two_path_oracle():
    rng = random.Random(14)
    words = [BraidWord(10**6, (1, -2)), BraidWord(10**6, (999998, -999999))]
    for _ in range(1500):
        n = rng.choice((2, 3, 4, 6, 9, 15, 40, 10**6))
        size = rng.randint(1, min(3 * n, 60))
        words.append(BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(size))))
    knots = 0
    for word in words:
        want = _closure_or_error(two_path_braid_closure, word)
        assert _closure_or_error(braid_closure, word) == want, word
        knots += not want.startswith("error: ")
    assert knots >= 100
    assert sum(len(w.letters) + 1 < w.n for w in words) >= 300


def test_braid_closure_refuses_many_strands_in_small_memory():
    # a short word touching only positions near n needs no per-strand state
    for text in ("1 -2", "999998 -999999"):
        word = parse_braid(text, 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(NotAKnotError) as info:
                braid_closure(word)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "closure has 999998 components, not 1"
        assert peak < 1 << 20


def test_braid_closure_negative_word_mirrors():
    pos = braid_closure(BraidWord(2, (1, 1, 1)))
    neg = braid_closure(BraidWord(2, (-1, -1, -1)))
    assert neg.crossing_count == pos.crossing_count
    assert diagram_span(neg) == diagram_span(pos)
    assert all(p.sign == "-" for p in neg.passes)


def test_parse_poly_term_form():
    assert parse_poly("1+2t+2t^2+t^3").as_dict() == {0: 1, 1: 2, 2: 2, 3: 1}
    assert parse_poly("3t+3t^2").as_dict() == {1: 3, 2: 3}
    assert parse_poly("t").as_dict() == {1: 1}
    assert parse_poly("7").as_dict() == {0: 7}
    assert parse_poly("0").is_zero
    assert parse_poly(" 1 + 2 t + t^2 ").as_dict() == {0: 1, 1: 2, 2: 1}


def test_parse_poly_list_form():
    assert parse_poly("0:1,2,2,1") == parse_poly("1+2t+2t^2+t^3")
    assert parse_poly("1:3,3") == parse_poly("3t+3t^2")
    assert parse_poly("2:5") == parse_poly("5t^2")


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("1+*t")
    with pytest.raises(ParseError):
        parse_poly("x:1,2")
    with pytest.raises(NegativeDegreeError):
        parse_poly("t^-1")
    with pytest.raises(NegativeDegreeError):
        parse_poly("-1:1,2")
    with pytest.raises(NegativeCoefficientError):
        parse_poly("0:1,-2")


def test_poly_round_trip():
    for text in ("1+2t+2t^2+t^3", "3t+3t^2", "1", "t", "4t^2"):
        assert str(parse_poly(text)) == text


@given(diagrams(signed=True))
def test_gauss_round_trip_on_generated_codes(d):
    assert parse_gauss(str(d)) == d


def test_round_trip_on_enumerated_codes():
    for c in range(0, 4):
        for d in enumerate_diagrams(c):
            assert parse_gauss(str(d)) == d
