"""Warping degree labelings, warping polynomials, and spans of oriented
knot diagrams given as Gauss codes."""

from .characterize import (
    CharForm,
    Rejection,
    encode_form,
    one_bridge_diagram,
    recognize,
    witness,
)
from .diagram import OVER, UNDER, GaussDiagram, Pass
from .laurent import WarpPoly
from .moves import (
    connected_sum,
    find_edge_with_label,
    insert_kink_over_first,
    insert_kink_under_first,
)
from .notation import (
    BraidWord,
    braid_closure,
    canonicalize,
    parse_braid,
    parse_gauss,
    parse_poly,
)
from .search import (
    PropertyReport,
    Violation,
    almost_alternating_scan,
    dealternating_number,
    enumerate_diagrams,
    run_property_suite,
    span_witness,
)
from .warping import (
    diagram_span,
    fg_decomposition,
    is_monotone,
    labeling,
    predict_crossing_change,
    warping_degree,
    warping_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CharForm",
    "GaussDiagram",
    "OVER",
    "Pass",
    "PropertyReport",
    "Rejection",
    "UNDER",
    "Violation",
    "WarpPoly",
    "almost_alternating_scan",
    "braid_closure",
    "canonicalize",
    "connected_sum",
    "dealternating_number",
    "diagram_span",
    "encode_form",
    "enumerate_diagrams",
    "fg_decomposition",
    "find_edge_with_label",
    "insert_kink_over_first",
    "insert_kink_under_first",
    "is_monotone",
    "labeling",
    "one_bridge_diagram",
    "parse_braid",
    "parse_gauss",
    "parse_poly",
    "predict_crossing_change",
    "recognize",
    "run_property_suite",
    "span_witness",
    "warping_degree",
    "warping_polynomial",
    "witness",
]
