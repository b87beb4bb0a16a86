"""Kink insertions and connected sums, with exact polynomial effects.

Both oriented first Reidemeister moves that add a crossing are provided.
Inserting a kink whose new crossing is met over-first at an edge labeled
``i`` adds ``t^i (1 + t)`` to the warping polynomial; a kink met
under-first additionally multiplies the old polynomial by ``t``:

    over-first:   W  ->  W + t^i (1 + t)
    under-first:  W  ->  t W + t^i (1 + t)

Fresh crossing ids are always max-existing-id + 1 (then +2, ...), so the
output codes are deterministic.
"""

from __future__ import annotations

from .diagram import OVER, UNDER, GaussDiagram, Pass, _renumbered, _spliced
from .errors import EmptySummandError, NoSuchLabelError
from .warping import labeling


def _insert(diagram: GaussDiagram, edge: int, first: str) -> GaussDiagram:
    diagram.check_edge(edge)
    fresh = diagram.max_crossing_id() + 1
    second = UNDER if first == OVER else OVER
    return _spliced(diagram.passes, edge, (Pass(fresh, first), Pass(fresh, second)))


def insert_kink_over_first(diagram: GaussDiagram, edge: int) -> GaussDiagram:
    """Insert an over-then-under kink just after pass ``edge``."""
    return _insert(diagram, edge, OVER)


def insert_kink_under_first(diagram: GaussDiagram, edge: int) -> GaussDiagram:
    """Insert an under-then-over kink just after pass ``edge``."""
    return _insert(diagram, edge, UNDER)


def connected_sum(
    diagram: GaussDiagram, edge: int, other: GaussDiagram, other_edge: int
) -> GaussDiagram:
    """Splice ``other`` into ``diagram`` at the given edges.

    The result walks ``diagram`` up to and including pass ``edge``, then all
    of ``other`` starting after ``other_edge`` (ids renumbered fresh), then
    the rest of ``diagram``.  With ``i`` and ``j`` the labels of the chosen
    edges, the warping polynomial of the splice is
    ``t^j W_diagram + t^i W_other``.

    Both summands must have at least one crossing; splicing the empty
    diagram is a no-op better expressed by not calling this.
    """
    if diagram.crossing_count == 0 or other.crossing_count == 0:
        raise EmptySummandError("connected sum requires crossings on both sides")
    diagram.check_edge(edge)
    other.check_edge(other_edge)
    segment = _renumbered(other.passes, other_edge + 1, diagram.max_crossing_id())
    return _spliced(diagram.passes, edge, segment)


def find_edge_with_label(diagram: GaussDiagram, label: int) -> int:
    """Lowest edge index whose warping degree equals ``label``."""
    for j, value in enumerate(labeling(diagram)):
        if value == label:
            return j
    raise NoSuchLabelError(f"no edge labeled {label}")
