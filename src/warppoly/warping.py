"""Warping degrees, edge labelings, warping polynomials, and spans.

The warping degree at a base point ``b`` of a diagram ``D`` counts the
crossings that are met as an under-crossing first when walking once
around ``D`` from ``b``.  Placing a base point on each edge gives the
warping degree labeling: the label steps by ``+1`` across an over pass
and by ``-1`` across an under pass.  The warping polynomial collects one
``t^label`` term per edge, so its lower degree is the warping degree
``d(D)`` of the diagram, its value at 1 is the number of edges, and its
degree span is the span of the diagram.

Conventions: edge ``j`` follows pass ``j``; the zero-crossing diagram has
labeling ``(0,)``, polynomial ``1``, degree 0, span 0, and is monotone.
"""

from __future__ import annotations

from .diagram import OVER, GaussDiagram
from .errors import (
    InconsistentClosureError,
    NegativeDegreeError,
    ZeroCrossingsError,
)
from .laurent import WarpPoly, counts_to_poly


def labeling(diagram: GaussDiagram) -> tuple[int, ...]:
    """Warping degrees of all edges, as a tuple of length ``max(2c, 1)``.

    Anchored at the last edge (whose base point starts the traversal at
    pass 0, so the first-encounter scan runs in natural order) and
    propagated by the +1/-1 step rule; the propagation must close up on
    the anchor, which is asserted.
    """
    passes = diagram.passes
    n = len(passes)
    if n == 0:
        return (0,)
    seen = set()
    add = seen.add
    anchor = 0
    for p in passes:
        if p.crossing not in seen:
            add(p.crossing)
            if p.strand != OVER:
                anchor += 1
    labels = [0] * n
    current = anchor
    for j, p in enumerate(passes):
        current += 1 if p.strand == OVER else -1
        labels[j] = current
    if current != anchor:
        raise InconsistentClosureError(
            f"propagation closed at {current}, anchor was {anchor}"
        )
    return tuple(labels)


def warping_polynomial(diagram: GaussDiagram) -> WarpPoly:
    """Sum of ``t^label`` over all edges; ``1`` for the empty diagram."""
    return counts_to_poly(labeling(diagram))


def warping_degree(diagram: GaussDiagram) -> int:
    """Minimal warping degree over all base points, ``d(D)``."""
    return min(labeling(diagram))


def diagram_span(diagram: GaussDiagram) -> int:
    """Difference between maximal and minimal warping degree."""
    labels = labeling(diagram)
    return max(labels) - min(labels)


def is_monotone(diagram: GaussDiagram) -> bool:
    """True iff some base point sees every crossing over-first (``d(D) = 0``)."""
    return warping_degree(diagram) == 0


def fg_decomposition(diagram: GaussDiagram, crossing: int) -> tuple[WarpPoly, WarpPoly]:
    """Split the warping polynomial at one crossing.

    With ``a`` the position of the over pass and ``b`` the position of the
    under pass of ``crossing``, ``f`` collects the edges ``a, a+1, ..., b-1``
    (cyclically: the arc walked from the over pass to the under pass) and
    ``g`` the remaining edges.  Always ``f + g = W_D`` and ``ldeg(f) >= 1``:
    from any edge in the first arc the crossing itself is met under-first.
    """
    if diagram.crossing_count == 0:
        raise ZeroCrossingsError("decomposition needs at least one crossing")
    over_pos, under_pos = diagram.positions_of(crossing)
    labels = labeling(diagram)
    walk = labels[over_pos:] + labels[:over_pos]
    split = (under_pos - over_pos) % len(labels)
    return counts_to_poly(walk[:split]), counts_to_poly(walk[split:])


def predict_crossing_change(diagram: GaussDiagram, crossing: int) -> WarpPoly:
    """Warping polynomial after changing ``crossing``, without rebuilding.

    Computed as ``t*g + f/t`` from :func:`fg_decomposition`; the division
    is legal because ``ldeg(f) >= 1``.  Equals
    ``warping_polynomial(diagram.crossing_change(crossing))``.
    """
    return _predicted(*fg_decomposition(diagram, crossing))


def _predicted(f: WarpPoly, g: WarpPoly) -> WarpPoly:
    # t*g + f/t from one crossing's f/g split; the sweep reuses the split it
    # has already checked instead of decomposing again
    if f.ldeg() < 1:
        raise NegativeDegreeError(f"degree {f.ldeg() - 1} < 0")
    f_down = WarpPoly._trusted(tuple((d - 1, c) for d, c in f.terms))
    return g.shift(1) + f_down
