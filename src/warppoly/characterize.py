"""Which polynomials are warping polynomials, and how to realize them.

A nonzero polynomial is the warping polynomial of some diagram exactly
when it has the staircase shape

    m_0 t^k + (m_0+m_1) t^{k+1} + ... + (m_{l-2}+m_{l-1}) t^{k+l-1} + m_{l-1} t^{k+l}

with k, l >= 0, every m_i >= 1, and m_0 + ... + m_{l-1} >= k + l.  The
m_i count the over passes that step the labeling from height k+i to
k+i+1; summing them gives the crossing number, which bounds the maximal
warping degree k+l from above, hence the sum constraint.  The degenerate
l = 0 case forces k = 0, i.e. the constant 1, the polynomial of the
empty diagram.

:func:`recognize` decides membership and extracts the (k, l, m) data;
:func:`witness` rebuilds a concrete diagram from it by dressing a
one-bridge diagram with kinks, and re-verifies its own output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import OVER, UNDER, GaussDiagram, Pass
from .errors import BoundExceededError, VerificationFailedError
from .laurent import WarpPoly
from .moves import find_edge_with_label, insert_kink_over_first, insert_kink_under_first
from .warping import warping_polynomial

REJECT_ZERO = "ZeroPolynomial"
REJECT_GAP = "GapInCoefficients"
REJECT_BAD_ENDS = "BadEnds"
REJECT_SUM_TOO_SMALL = "SumTooSmall"
REJECT_NON_UNIT_SPAN_ZERO = "NonUnitSpanZero"

# largest crossing count, sum(m), that witness will build
WITNESS_BOUND = 10**5


@dataclass(frozen=True)
class CharForm:
    """The (k, l, m_0..m_{l-1}) data of a recognized warping polynomial."""

    k: int
    m: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(self.m))
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if any(mi < 1 for mi in self.m):
            raise ValueError("every m_i must be >= 1")
        if sum(self.m) < self.k + len(self.m):
            raise ValueError("sum of m_i must be >= k + l")

    @property
    def l(self) -> int:
        return len(self.m)


@dataclass(frozen=True)
class Rejection:
    """Why a polynomial is not a warping polynomial; a value, not an error."""

    reason: str
    detail: str = field(default="", compare=False)


def encode_form(form: CharForm) -> WarpPoly:
    """The polynomial a form stands for (inverse of :func:`recognize`)."""
    k, m, l = form.k, form.m, form.l
    if l == 0:
        return WarpPoly.one()
    terms = {k: m[0], k + l: m[l - 1]}
    for j in range(1, l):
        terms[k + j] = m[j - 1] + m[j]
    return WarpPoly(tuple(terms.items()))


def recognize(poly: WarpPoly) -> CharForm | Rejection:
    """Decide whether ``poly`` is a warping polynomial.

    Returns the unique :class:`CharForm` on acceptance, otherwise a
    :class:`Rejection` naming the first failed condition.
    """
    if poly.is_zero:
        return Rejection(REJECT_ZERO)
    if not poly.gap_free():
        return Rejection(REJECT_GAP, "missing interior degree")
    k = poly.ldeg()
    l = poly.span()
    coeff = poly.as_dict()
    if l == 0:
        if k == 0 and coeff[0] == 1:
            return CharForm(0, ())
        return Rejection(REJECT_NON_UNIT_SPAN_ZERO, f"span-0 polynomial is {poly}")
    m = [coeff[k]]
    for j in range(1, l):
        nxt = coeff[k + j] - m[-1]
        if nxt < 1:
            return Rejection(REJECT_BAD_ENDS, f"m_{j} would be {nxt}")
        m.append(nxt)
    if coeff[k + l] != m[-1]:
        return Rejection(
            REJECT_BAD_ENDS,
            f"top coefficient {coeff[k + l]} != m_{l - 1} = {m[-1]}",
        )
    if sum(m) < k + l:
        return Rejection(REJECT_SUM_TOO_SMALL, f"sum {sum(m)} < {k + l}")
    return CharForm(k, tuple(m))


def one_bridge_diagram(l: int) -> GaussDiagram:
    """The standard one-bridge code ``O1 O2 ... Ol U1 U2 ... Ul``."""
    if l < 1:
        raise ValueError("one-bridge diagram needs l >= 1")
    overs = tuple(Pass(i, OVER) for i in range(1, l + 1))
    unders = tuple(Pass(i, UNDER) for i in range(1, l + 1))
    return GaussDiagram._trusted(overs + unders)


def witness(form: CharForm) -> GaussDiagram:
    """Build a diagram whose warping polynomial is ``encode_form(form)``.

    Deterministic recipe: start from the one-bridge diagram with ``l``
    crossings; in ascending ``i``, split ``m_i = m_i' + m_i'' + 1`` with
    ``m_i'`` as large as the ``k`` under-first kinks still to go allow, and
    apply those ``m_i'`` kinks, each targeting the lowest edge currently
    labeled ``a + i + 1`` (``a`` = kinks already inserted, which
    compensates for the global degree shift each remaining under-first
    kink will apply); then the ``m_i''`` over-first kinks at the lowest
    edge labeled ``k + i``.  The form's sum constraint guarantees that all
    ``k`` under-first kinks fit.

    The output is re-verified against the encoded polynomial; a mismatch
    is an internal bug, not bad input.  A form whose output would have
    more than ``WITNESS_BOUND`` crossings (``sum(m)``) is refused with
    :class:`BoundExceededError` before anything is built.
    """
    n = sum(form.m)  # the output's crossing count
    if n > WITNESS_BOUND:
        raise BoundExceededError(f"witness of {n} crossings above bound {WITNESS_BOUND}")
    if form.l == 0:
        return GaussDiagram(())
    diagram = one_bridge_diagram(form.l)
    inserted = 0
    over_counts = []
    for i, mi in enumerate(form.m):
        take = min(mi - 1, form.k - inserted)
        for _ in range(take):
            edge = find_edge_with_label(diagram, inserted + i + 1)
            diagram = insert_kink_under_first(diagram, edge)
            inserted += 1
        over_counts.append(mi - 1 - take)
    for i, over in enumerate(over_counts):
        for _ in range(over):
            edge = find_edge_with_label(diagram, form.k + i)
            diagram = insert_kink_over_first(diagram, edge)

    expected = encode_form(form)
    actual = warping_polynomial(diagram)
    if actual != expected:
        raise VerificationFailedError(
            f"witness produced {actual}, wanted {expected} for k={form.k} m={form.m}"
        )
    return diagram
