"""Integer polynomials with non-negative degrees and positive coefficients.

This is the value type of every warping polynomial: coefficients count
edges, so they are positive integers, and degrees are warping degrees, so
they start at zero.  The zero polynomial is representable (empty term map)
but no diagram ever produces it; asking for its degree bounds is an error
so that logic bugs surface early.

Degrees and coefficients are plain Python integers, hence exact at any
crossing number.

Text form (bit-exact, used by the CLI)::

    term  :=  INT | INT? "t" ("^" INT)?
    poly  :=  term ("+" term)*

rendered in ascending degree, e.g. ``1+2t+2t^2+t^3``.  On input, spaces
may stand around ``+`` and before ``t``, not inside a number or around
``^``.  A compact list
form ``k:c0,c1,...,cl`` (coefficients starting at degree ``k``) is also
accepted on input; see :mod:`warppoly.notation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DegreeBoundError,
    NegativeCoefficientError,
    NegativeDegreeError,
    ZeroPolynomialError,
)


def _normalize(terms) -> tuple[tuple[int, int], ...]:
    acc: dict[int, int] = {}
    items = terms.items() if isinstance(terms, dict) else terms
    for degree, coeff in items:
        if degree < 0:
            raise NegativeDegreeError(f"degree {degree} < 0")
        if coeff < 0:
            raise NegativeCoefficientError(f"coefficient {coeff} < 0")
        if coeff:
            acc[degree] = acc.get(degree, 0) + coeff
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class WarpPoly:
    """Immutable polynomial stored as ascending ``(degree, coeff)`` pairs."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalize(self.terms))

    @classmethod
    def _trusted(cls, terms: tuple[tuple[int, int], ...]) -> "WarpPoly":
        # for internal builders whose terms are already ascending, merged and
        # positive; skips __post_init__, so outside input must never come here
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    @classmethod
    def one(cls) -> "WarpPoly":
        return cls(((0, 1),))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, x: int) -> int:
        """Exact integer evaluation at ``x``."""
        return sum(c * x**d for d, c in self.terms)

    def _require_nonzero(self):
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no degree bounds")

    def ldeg(self) -> int:
        """Lower degree (smallest degree with nonzero coefficient)."""
        self._require_nonzero()
        return self.terms[0][0]

    def udeg(self) -> int:
        """Upper degree."""
        self._require_nonzero()
        return self.terms[-1][0]

    def span(self) -> int:
        self._require_nonzero()
        return self.terms[-1][0] - self.terms[0][0]

    def __add__(self, other: "WarpPoly") -> "WarpPoly":
        if not isinstance(other, WarpPoly):
            return NotImplemented
        acc = dict(self.terms)
        for d, c in other.terms:
            acc[d] = acc.get(d, 0) + c
        return WarpPoly._trusted(tuple(sorted(acc.items())))

    def shift(self, k: int) -> "WarpPoly":
        """Multiply by ``t^k`` (``k >= 0``)."""
        if k < 0:
            raise NegativeDegreeError("shift amount must be >= 0")
        return WarpPoly._trusted(tuple((d + k, c) for d, c in self.terms))

    def reflect(self, c: int) -> "WarpPoly":
        """Return ``t^c * p(1/t)``: the degree-``d`` term moves to ``c - d``.

        Requires ``udeg <= c`` so the result has non-negative degrees.
        The zero polynomial reflects to itself.
        """
        if not self.terms:
            return self
        if self.terms[-1][0] > c:
            raise DegreeBoundError(
                f"cannot reflect at {c}: upper degree is {self.terms[-1][0]}"
            )
        # reversed, so the reflected degrees stay ascending
        return WarpPoly._trusted(tuple((c - d, co) for d, co in reversed(self.terms)))

    def gap_free(self) -> bool:
        """True iff every degree between the bounds has a positive coefficient."""
        self._require_nonzero()
        lo, hi = self.terms[0][0], self.terms[-1][0]
        return len(self.terms) == hi - lo + 1

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d, c in self.terms:
            if d == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                tail = "t" if d == 1 else f"t^{d}"
                parts.append(head + tail)
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"WarpPoly({str(self)!r})"


def counts_to_poly(labels: Iterable[int]) -> WarpPoly:
    """Sum ``t^label`` over a label sequence; labels must be non-negative."""
    acc: dict[int, int] = {}
    for lab in labels:
        acc[lab] = acc.get(lab, 0) + 1
    terms = tuple(sorted(acc.items()))
    # every count is positive, so the lowest degree is all left to check
    if terms and terms[0][0] < 0:
        raise NegativeDegreeError(f"degree {terms[0][0]} < 0")
    return WarpPoly._trusted(terms)
