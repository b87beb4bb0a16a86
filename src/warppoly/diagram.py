"""Oriented knot diagrams as Gauss codes.

A diagram is the cyclic sequence of crossing passes met when walking once
around the knot in its orientation.  Each pass records the crossing id,
whether the strand runs over or under at that point, and an optional
crossing sign.  Edges are the arcs between consecutive passes: edge ``j``
runs from pass ``j`` to pass ``j + 1`` (mod ``2c``), and the zero-crossing
diagram has the single edge ``0``.

Codes are treated purely combinatorially: any double-occurrence sequence
is accepted whether or not it can be drawn on the sphere.  The classical
parity obstruction is reported by :meth:`GaussDiagram.evenness_lint` for
callers that care.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    EdgeOutOfRangeError,
    GaussCodeError,
    OddLengthError,
    PairingError,
    SignMismatchError,
    UnknownCrossingError,
    ZeroCrossingsError,
)

OVER = "O"
UNDER = "U"


class Pass(NamedTuple):
    """One traversal of a crossing: id, over/under marker, optional sign."""

    crossing: int
    strand: str
    sign: str | None = None

    def flipped(self) -> "Pass":
        # over/under swapped and sign negated; used by mirror and crossing change
        strand = UNDER if self.strand == OVER else OVER
        sign = None if self.sign is None else ("-" if self.sign == "+" else "+")
        return Pass(self.crossing, strand, sign)


def _check_passes(passes: tuple[Pass, ...]) -> None:
    if len(passes) % 2 != 0:
        raise OddLengthError(f"pass sequence has odd length {len(passes)}")
    seen: dict[int, list] = {}
    for p in passes:
        if p.strand not in (OVER, UNDER):
            raise GaussCodeError(f"bad strand marker {p.strand!r}")
        if p.sign not in (None, "+", "-"):
            raise GaussCodeError(f"bad sign {p.sign!r}")
        if p.crossing < 1:
            raise GaussCodeError(f"crossing ids must be positive, got {p.crossing}")
        entry = seen.setdefault(p.crossing, [0, 0, None])
        entry[0 if p.strand == OVER else 1] += 1
        if p.sign is not None:
            if entry[2] is not None and entry[2] != p.sign:
                raise SignMismatchError(f"crossing {p.crossing} carries both signs")
            entry[2] = p.sign
    for cid, (n_over, n_under, _) in seen.items():
        if n_over != 1 or n_under != 1:
            raise PairingError(
                f"crossing {cid} occurs {n_over} times over, {n_under} times under"
            )


@dataclass(frozen=True)
class GaussDiagram:
    """A validated oriented knot diagram; ``passes`` is read cyclically."""

    passes: tuple[Pass, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "passes", tuple(self.passes))
        _check_passes(self.passes)

    @classmethod
    def _trusted(cls, passes: tuple[Pass, ...]) -> "GaussDiagram":
        # for internal builders whose output is a valid code by construction;
        # skips __post_init__, so outside input must never come through here
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "passes", passes)
        return diagram

    @property
    def crossing_count(self) -> int:
        return len(self.passes) // 2

    @property
    def edge_count(self) -> int:
        return max(len(self.passes), 1)

    def crossing_ids(self) -> tuple[int, ...]:
        """Distinct crossing ids in order of first appearance."""
        out, seen = [], set()
        for p in self.passes:
            if p.crossing not in seen:
                seen.add(p.crossing)
                out.append(p.crossing)
        return tuple(out)

    def max_crossing_id(self) -> int:
        return max((p.crossing for p in self.passes), default=0)

    def check_edge(self, edge: int) -> int:
        if not 0 <= edge < self.edge_count:
            raise EdgeOutOfRangeError(
                f"edge {edge} out of range [0, {self.edge_count})"
            )
        return edge

    def positions_of(self, crossing: int) -> tuple[int, int]:
        """Positions of the over pass and the under pass of ``crossing``."""
        over = under = None
        for i, p in enumerate(self.passes):
            if p.crossing == crossing:
                if p.strand == OVER:
                    over = i
                else:
                    under = i
        if over is None or under is None:
            raise UnknownCrossingError(f"no crossing {crossing} in diagram")
        return over, under

    def _marker_flips(self) -> int:
        # cyclic count of adjacent passes whose over/under markers differ
        passes = self.passes
        return sum(passes[i].strand != passes[i - 1].strand for i in range(len(passes)))

    def is_alternating(self) -> bool:
        """Over/under markers strictly alternate; false for c = 0."""
        return self.crossing_count >= 1 and self._marker_flips() == len(self.passes)

    def is_one_bridge(self) -> bool:
        """True iff the cyclic marker pattern is a rotation of O^c U^c."""
        if self.crossing_count == 0:
            raise ZeroCrossingsError("one-bridge test needs at least one crossing")
        return self._marker_flips() == 2

    def mirror(self) -> "GaussDiagram":
        """Swap over/under at every crossing and negate signs."""
        return GaussDiagram._trusted(tuple(p.flipped() for p in self.passes))

    def reverse(self) -> "GaussDiagram":
        """Reverse the orientation; markers and signs are unchanged."""
        return GaussDiagram._trusted(tuple(reversed(self.passes)))

    def crossing_change(self, crossing: int) -> "GaussDiagram":
        """Swap the over/under strands (and sign) at one crossing."""
        passes = list(self.passes)
        for i in self.positions_of(crossing):
            passes[i] = passes[i].flipped()
        return GaussDiagram._trusted(tuple(passes))

    def evenness_lint(self) -> bool:
        """Parity condition necessary for the code to be drawable on S^2.

        True iff every crossing's two passes lie an odd distance apart.
        Advisory: no operation in this package requires it, but
        :func:`warppoly.search.dealternating_number` is finite exactly when
        it holds.
        """
        first: dict[int, int] = {}
        for i, p in enumerate(self.passes):
            if p.crossing in first:
                if (i - first[p.crossing] - 1) % 2 != 0:
                    return False
            else:
                first[p.crossing] = i
        return True

    def __str__(self) -> str:
        return " ".join(
            f"{p.strand}{p.crossing}{p.sign or ''}" for p in self.passes
        )

    def __repr__(self) -> str:
        return f"GaussDiagram({str(self)!r})"


def _renumbered(passes: tuple[Pass, ...], start: int, last_id: int) -> tuple[Pass, ...]:
    # the rotation of passes starting at start, crossing ids renumbered
    # last_id + 1, last_id + 2, ... by first appearance
    fresh = last_id
    remap: dict[int, int] = {}
    out = []
    for p in passes[start:] + passes[:start]:
        if p.crossing not in remap:
            fresh += 1
            remap[p.crossing] = fresh
        out.append(Pass(remap[p.crossing], p.strand, p.sign))
    return tuple(out)


def _spliced(
    passes: tuple[Pass, ...], edge: int, segment: tuple[Pass, ...]
) -> GaussDiagram:
    # passes with segment inserted just after pass edge; the callers build
    # segment with fresh crossing ids, so the result is not re-validated
    return GaussDiagram._trusted(passes[: edge + 1] + segment + passes[edge + 1 :])
