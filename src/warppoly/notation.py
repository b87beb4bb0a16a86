"""Text formats and braid input.

Gauss codes are whitespace-separated tokens::

    token := ("O" | "U" | "o" | "u") INT ("+" | "-")?

e.g. ``O1 U2 O3 U1 O2 U3``.  Output is always uppercase.  Canonical form
renumbers crossings 1..c by first appearance and picks the
lexicographically least rotation (ordering: O before U, then id, then
unsigned before "+" before "-").

Polynomials use the term grammar from :mod:`warppoly.laurent`
(``1+2t+2t^2+t^3``) or the compact list form ``k:c0,c1,...,cl`` meaning
coefficients ``c0..cl`` starting at degree ``k``; input containing ":"
is read as list form.  Every ``INT`` is ASCII ``[0-9]+``, and list-form
numbers and braid letters are ASCII ``[+-]?[0-9]+``.

Braid words are given by a strand count ``n`` and nonzero letters
``w`` with ``1 <= |w| <= n-1``; letter ``w`` crosses strand positions
``|w|`` and ``|w|+1``, and on a positive letter the strand entering at
position ``|w|`` passes over.  Diagram span is mirror-invariant, so
results quoted for positive words hold under the opposite convention.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass

from .diagram import OVER, UNDER, GaussDiagram, Pass, _renumbered
from .errors import NotAKnotError, ParseError
from .laurent import WarpPoly

_GAUSS_TOKEN = re.compile(r"([OUou])([0-9]+)([+-])?\Z")
_POLY_TERM = re.compile(r"([0-9]+)? *(t(?:\^(-?[0-9]+))?)?\Z")
_ASCII_INT = re.compile(r"[+-]?[0-9]+\Z")


def parse_gauss(text: str) -> GaussDiagram:
    """Parse a Gauss code; raises :class:`ParseError` with token position."""
    passes = []
    for position, token in enumerate(text.split(), start=1):
        match = _GAUSS_TOKEN.match(token)
        if not match:
            raise ParseError(f"bad pass token {token!r}", position)
        marker, cid, sign = match.groups()
        passes.append(Pass(int(cid), OVER if marker in "Oo" else UNDER, sign))
    return GaussDiagram(tuple(passes))


_SIGN_RANK = {None: 0, "+": 1, "-": 2}


def _least_rotation(passes) -> int:
    """Start of the least rotation under the first-appearance renumbering key.

    The key of the rotation starting at ``s`` lists ``(strand, id, sign)``
    with ids renumbered by first appearance.  Where two rotations agree on
    a prefix they also agree on its ids, so at offset ``k`` the id can be
    read as ``-back`` when the crossing's other pass lies ``back <= k``
    steps behind (an older id is smaller and sits further back) and as
    ``0`` when it is new (larger than every older id).  Rotations are then
    compared by a two-pointer scan (Booth, IPL 1980; the minimum-expression
    scan): when rotation ``i`` loses to ``j`` at offset ``k``, rotation
    ``i + t`` loses to ``j + t`` for every ``t <= skip``, where ``skip`` is
    ``k`` if the strand or the sign decides, and ``k - D`` if the id does,
    ``D`` being the larger back distance ``<= k`` at the mismatch (a wider
    shift can turn that back-reference into a new id and reverse the
    order).  If ``k`` reaches ``n`` the two rotations are equal, so the
    code is invariant under that shift up to renumbering, and the smaller
    pointer is the first least rotation.

    Each mismatch moves a pointer forward, so the scan makes at most
    ``O(n^2)`` comparisons; when the strand or the sign decides every
    mismatch it makes at most ``3n``, as in the classical scan.
    """
    n = len(passes)
    back = [0] * n  # cyclic distance from each pass back to its partner
    first: dict[int, int] = {}
    for q, p in enumerate(passes):
        a = first.setdefault(p.crossing, q)
        if a != q:
            back[q] = q - a
            back[a] = n - q + a
    under = [p.strand != OVER for p in passes] * 2
    sign = [_SIGN_RANK[p.sign] for p in passes] * 2
    back *= 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = i + k, j + k
        if under[a] != under[b]:
            i_loses, skip = under[a], k
        else:
            ba = back[a] if back[a] <= k else 0  # 0: a new id
            bb = back[b] if back[b] <= k else 0
            if ba != bb:
                i_loses = ba == 0 or (bb != 0 and ba < bb)
                skip = k - max(ba, bb)
            elif sign[a] != sign[b]:
                i_loses, skip = sign[a] > sign[b], k
            else:
                k += 1
                continue
        if i_loses:
            i += skip + 1
        else:
            j += skip + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def canonicalize(diagram: GaussDiagram) -> GaussDiagram:
    """First-appearance renumbering over the lexicographically least rotation."""
    passes = diagram.passes
    return GaussDiagram._trusted(_renumbered(passes, _least_rotation(passes), 0))


@dataclass(frozen=True)
class BraidWord:
    """A braid word: strand count and signed generator letters."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.n < 2:
            raise ValueError("braid needs at least 2 strands")
        if not self.letters:
            raise ValueError("braid word must be nonempty")
        for w in self.letters:
            if w == 0 or abs(w) > self.n - 1:
                raise ValueError(f"letter {w} outside [1, {self.n - 1}]")


def _read_ints(tokens: list[str], text: str, what: str) -> list[int]:
    """Each token of ``text`` as an integer read by :func:`_read_int`; the
    first other token raises :class:`ParseError` at its position."""
    # on ASCII text without "_", int() alone reads exactly _read_int's rule,
    # so only other text pays for the per-token pattern
    read = int if text.isascii() and "_" not in text else _read_int
    out = []
    for position, token in enumerate(tokens, start=1):
        try:
            out.append(read(token))
        except ValueError:
            raise ParseError(f"bad {what} {token!r}", position) from None
    return out


def _read_int(token: str) -> int:
    """``token`` as an integer ``[+-]?[0-9]+`` in ASCII digits, with the
    whitespace around it that ``int()`` allows; ``ValueError`` otherwise."""
    # both must accept: int() alone also reads "_" separators and non-ASCII
    # digits, and str.strip() alone also drops \x1c-\x1f, which int() refuses
    if not _ASCII_INT.match(token.strip()):
        raise ValueError(token)
    return int(token)


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse space-separated signed generator indices, each ``[+-]?[0-9]+``."""
    letters = _read_ints(text.split(), text, "braid letter")
    if not letters:
        raise ParseError("empty braid word")
    try:
        return BraidWord(strands, tuple(letters))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def braid_closure(word: BraidWord) -> GaussDiagram:
    """Gauss code of the braid closure, which must be a knot.

    One sparse simulation: a dict maps each position a letter touches to
    the strand there, so time and memory are linear in the letters for
    any strand count.  The letter at step ``s`` creates crossing id ``s``
    and signs follow the letters' signs.  The closure's components are
    the untouched strands plus the cycles of the touched permutation; a
    knot has one, and is traversed from the strand that begins at
    position 1, concatenating each strand's recorded passes.
    """
    at: dict[int, int] = {}  # touched position -> id of strand there
    recorded: defaultdict[int, list[Pass]] = defaultdict(list)
    for step, w in enumerate(word.letters, start=1):
        a = abs(w)
        upper, lower = at.get(a, a), at.get(a + 1, a + 1)
        if w > 0:
            recorded[upper].append(Pass(step, OVER, "+"))
            recorded[lower].append(Pass(step, UNDER, "+"))
        else:
            recorded[upper].append(Pass(step, UNDER, "-"))
            recorded[lower].append(Pass(step, OVER, "-"))
        at[a], at[a + 1] = lower, upper
    components = word.n - len(at) + _cycle_count(at)
    if components != 1:
        raise NotAKnotError(f"closure has {components} components, not 1")
    end_position = {s: p for p, s in at.items()}
    passes: list[Pass] = []
    strand = 1
    for _ in range(word.n):
        passes.extend(recorded[strand])
        strand = end_position[strand]
    return GaussDiagram._trusted(tuple(passes))


def _cycle_count(perm: dict[int, int]) -> int:
    cycles, seen = 0, set()
    for s in perm:
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = perm[s]
    return cycles


def parse_poly(text: str) -> WarpPoly:
    """Parse either polynomial grammar (list form when ":" is present)."""
    if ":" in text:
        return _parse_poly_list(text)
    return _parse_poly_terms(text)


def _parse_poly_terms(text: str) -> WarpPoly:
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    terms = []
    for position, chunk in enumerate(text.split("+"), start=1):
        # spaces may stand around "+" and before "t", but not inside a
        # number or around "^": "1 2t" and "t^ 1 0" are refused, not read
        # as 12t and t^10
        chunk = chunk.strip(" ")
        match = _POLY_TERM.match(chunk)
        if not match:
            raise ParseError(f"bad term {chunk!r}", position)
        coeff_text, t_part, exp_text = match.groups()
        if coeff_text is None and t_part is None:
            raise ParseError(f"bad term {chunk!r}", position)
        coeff = int(coeff_text) if coeff_text is not None else 1
        if t_part is None:
            degree = 0
        elif exp_text is None:
            degree = 1
        else:
            degree = int(exp_text)
        terms.append((degree, coeff))
    return WarpPoly(tuple(terms))


def _parse_poly_list(text: str) -> WarpPoly:
    head, _, tail = text.partition(":")
    (start,) = _read_ints([head], text, "list-form degree")
    coeffs = _read_ints(tail.split(","), text, "coefficient")
    return WarpPoly(tuple((start + j, c) for j, c in enumerate(coeffs)))
