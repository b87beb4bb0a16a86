"""Command-line interface.

Each subcommand is defined in one place, inside ``_build_parser``: its
name, help, arguments and action sit together, and ``main`` runs the
action argparse selected.  Every subcommand that reads a diagram accepts
either a Gauss code as a positional argument or ``--braid "<letters>"
--strands N`` (positive letter = the strand entering at the
lower-numbered position passes over).  Output is plain text by default,
JSON with ``--json``; emitted Gauss codes are canonicalized with
``--canonical``.

Exit codes: 0 success (including a checkpoly rejection, which is a valid
answer); 1 input or usage error; 2 verification found violations; 3
witness requested for a rejected polynomial.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import characterize, moves, notation, search, warping
from .diagram import GaussDiagram
from .errors import WarpPolyError


def _int_arg(text: str) -> int:
    """argparse type of the integer options: the notation's integer rule
    (:func:`notation._read_int`); other text gets the usage error that
    ``type=int`` gives."""
    try:
        return notation._read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _load_diagram(args) -> GaussDiagram:
    if args.braid is not None:
        if args.code is not None:
            raise WarpPolyError("give a Gauss code or --braid, not both")
        if args.strands is None:
            raise WarpPolyError("--braid requires --strands")
        return notation.braid_closure(notation.parse_braid(args.braid, args.strands))
    if args.code is None:
        raise WarpPolyError("missing Gauss code (or --braid/--strands)")
    return notation.parse_gauss(args.code)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


def _emit_diagram(args, diagram: GaussDiagram) -> None:
    code = str(notation.canonicalize(diagram) if args.canonical else diagram)
    poly = str(warping.warping_polynomial(diagram))
    _emit(args, {"code": code, "poly": poly}, f"{code}\n{poly}")


def _accepted_form(args):
    """Recognize ``args.poly``; print a rejection and return None if refused."""
    result = characterize.recognize(notation.parse_poly(args.poly))
    if isinstance(result, characterize.Rejection):
        _emit(args, {"accepted": False, "reason": result.reason}, f"Reject: {result.reason}")
        return None
    return result


def _build_parser() -> argparse.ArgumentParser:
    # Actions look the library up when they run, not when they are
    # registered: wrappers installed on module attributes after import
    # (tracers, monkeypatched tests) must see every call.
    parser = argparse.ArgumentParser(
        prog="warp",
        description="Warping degree labelings, warping polynomials, and spans "
        "of oriented knot diagrams given as Gauss codes.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--canonical",
        action="store_true",
        help="canonicalize emitted Gauss codes (first-appearance ids, least rotation)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, run, reads_diagram=True):
        """Add a subcommand whose action is ``run(args)``, or
        ``run(args, diagram)`` when it reads a diagram; returns its parser."""
        p = sub.add_parser(name, help=help_text)
        if reads_diagram:
            p.add_argument("code", nargs="?", help="Gauss code, e.g. 'O1 U2 O3 U1 O2 U3'")
            p.add_argument(
                "--braid",
                help="space-separated signed generator letters; on a positive "
                "letter the strand entering from the lower-numbered position "
                "passes over (span results are convention-independent)",
            )
            p.add_argument("--strands", type=_int_arg, help="strand count for --braid")
            p.set_defaults(run=lambda args: run(args, _load_diagram(args)))
        else:
            p.set_defaults(run=run)
        return p

    def query(name, help_text, value):
        # ints print as digits, bools as true/false
        def run(args, diagram):
            result = value(diagram)
            _emit(args, {"value": result}, str(result).lower())

        command(name, help_text, run)

    def transform(name, help_text, move):
        return command(name, help_text, lambda args, d: _emit_diagram(args, move(args, d)))

    def poly(args, diagram):
        text = str(warping.warping_polynomial(diagram))
        _emit(args, {"poly": text}, text)

    command("poly", "warping polynomial", poly)

    def label(args, diagram):
        labels = warping.labeling(diagram)
        _emit(args, {"labels": list(labels)}, " ".join(map(str, labels)))

    command("label", "warping degree of every edge", label)
    query("span", "max minus min warping degree", lambda d: warping.diagram_span(d))
    query("degree", "warping degree d(D)", lambda d: warping.warping_degree(d))
    query("monotone", "whether d(D) = 0", lambda d: warping.is_monotone(d))
    query("alternating", "whether over/under strictly alternate", lambda d: d.is_alternating())
    query("onebridge", "whether the code is a rotation of O^c U^c", lambda d: d.is_one_bridge())
    transform("mirror", "swap over/under everywhere", lambda args, d: d.mirror())
    transform("reverse", "reverse the orientation", lambda args, d: d.reverse())
    query("dalt", "dealternating number by position parity",
          lambda d: search.dealternating_number(d))

    p = transform("cc", "change one crossing", lambda args, d: d.crossing_change(args.crossing))
    p.add_argument("--crossing", type=_int_arg, required=True)

    def kink(args, diagram):
        if args.type == "1a":
            return moves.insert_kink_over_first(diagram, args.edge)
        return moves.insert_kink_under_first(diagram, args.edge)

    p = transform("kink", "insert a one-crossing curl at an edge", kink)
    p.add_argument("--type", choices=("1a", "1b"), required=True,
                   help="1a = over-first, 1b = under-first")
    p.add_argument("--edge", type=_int_arg, required=True)

    def fg(args, diagram):
        f, g = warping.fg_decomposition(diagram, args.crossing)
        predicted = warping.predict_crossing_change(diagram, args.crossing)
        polys = {"f": str(f), "g": str(g), "predicted": str(predicted)}
        _emit(args, polys, "\n".join(f"{k}: {v}" for k, v in polys.items()))

    p = command("fg", "split W at a crossing and predict its change", fg)
    p.add_argument("--crossing", type=_int_arg, required=True)

    def connect(args):
        left, right = notation.parse_gauss(args.code), notation.parse_gauss(args.code2)
        _emit_diagram(args, moves.connected_sum(left, args.edge, right, args.edge2))

    p = command("connect", "connected sum of two codes", connect, reads_diagram=False)
    p.add_argument("code", help="first Gauss code")
    p.add_argument("code2", help="second Gauss code")
    p.add_argument("--edge", type=_int_arg, required=True, help="splice edge in the first code")
    p.add_argument("--edge2", type=_int_arg, required=True, help="splice edge in the second code")

    def checkpoly(args):
        form = _accepted_form(args)
        if form is not None:
            m = ",".join(map(str, form.m)) or "-"
            payload = {"accepted": True, "k": form.k, "l": form.l, "m": list(form.m)}
            _emit(args, payload, f"Accept: k={form.k} l={form.l} m={m}")

    p = command("checkpoly", "decide whether a polynomial is a warping polynomial",
                checkpoly, reads_diagram=False)
    p.add_argument("poly", help="e.g. '3t+3t^2' or list form '1:3,3'")

    def witness(args):
        form = _accepted_form(args)
        if form is None:
            return 3
        _emit_diagram(args, characterize.witness(form))

    p = command("witness", "construct a diagram realizing a polynomial", witness,
                reads_diagram=False)
    p.add_argument("poly")

    def verify(args):
        report = search.run_property_suite(args.max_crossings)
        if args.json:
            print(report.to_json())
        else:
            lo, hi = report.crossings_checked
            print(
                f"checked {report.diagrams_checked} diagrams "
                f"(crossings {lo}..{hi}), "
                f"{sum(report.checks().values())} checks, "
                f"{len(report.violations)} violations"
            )
            for v in report.violations:
                print(f"  {v.property_id}: {v.code} ({v.detail})")
        return 0 if report.ok else 2

    p = command("verify", "exhaustive identity check over all small codes", verify,
                reads_diagram=False)
    p.add_argument("--max-crossings", type=_int_arg, default=4)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args) or 0
    except (WarpPolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
