"""Command-line interface.

Every subcommand that reads a diagram accepts either a Gauss code as a
positional argument or ``--braid "<letters>" --strands N`` (positive
letter = the strand entering at the lower-numbered position passes
over).  Output is plain text by default, JSON with ``--json``; emitted
Gauss codes are canonicalized with ``--canonical``.

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


def _build_parser() -> argparse.ArgumentParser:
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

    def diagram_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("code", nargs="?", help="Gauss code, e.g. 'O1 U2 O3 U1 O2 U3'")
        p.add_argument(
            "--braid",
            help="space-separated signed generator letters; on a positive "
            "letter the strand entering from the lower-numbered position "
            "passes over (span results are convention-independent)",
        )
        p.add_argument("--strands", type=int, help="strand count for --braid")
        return p

    diagram_command("poly", "warping polynomial")
    diagram_command("label", "warping degree of every edge")
    diagram_command("span", "max minus min warping degree")
    diagram_command("degree", "warping degree d(D)")
    diagram_command("monotone", "whether d(D) = 0")
    diagram_command("alternating", "whether over/under strictly alternate")
    diagram_command("onebridge", "whether the code is a rotation of O^c U^c")
    diagram_command("mirror", "swap over/under everywhere")
    diagram_command("reverse", "reverse the orientation")
    diagram_command("dalt", "dealternating number by position parity")

    p = diagram_command("cc", "change one crossing")
    p.add_argument("--crossing", type=int, required=True)

    p = diagram_command("kink", "insert a one-crossing curl at an edge")
    p.add_argument("--type", choices=("1a", "1b"), required=True,
                   help="1a = over-first, 1b = under-first")
    p.add_argument("--edge", type=int, required=True)

    p = diagram_command("fg", "split W at a crossing and predict its change")
    p.add_argument("--crossing", type=int, required=True)

    p = sub.add_parser("connect", help="connected sum of two codes")
    p.add_argument("code", help="first Gauss code")
    p.add_argument("code2", help="second Gauss code")
    p.add_argument("--edge", type=int, required=True, help="splice edge in the first code")
    p.add_argument("--edge2", type=int, required=True, help="splice edge in the second code")

    p = sub.add_parser("checkpoly", help="decide whether a polynomial is a warping polynomial")
    p.add_argument("poly", help="e.g. '3t+3t^2' or list form '1:3,3'")

    p = sub.add_parser("witness", help="construct a diagram realizing a polynomial")
    p.add_argument("poly")

    p = sub.add_parser("verify", help="exhaustive identity check over all small codes")
    p.add_argument("--max-crossings", type=int, default=4)

    return parser


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
    code = notation.format_gauss(diagram, canonical=args.canonical)
    poly = notation.format_poly(warping.warping_polynomial(diagram))
    _emit(args, {"code": code, "poly": poly}, f"{code}\n{poly}")


def _run(args) -> int:
    cmd = args.command

    if cmd == "checkpoly":
        result = characterize.recognize(notation.parse_poly(args.poly))
        if isinstance(result, characterize.CharForm):
            payload = {
                "accepted": True,
                "k": result.k,
                "l": result.l,
                "m": list(result.m),
            }
            text = f"Accept: k={result.k} l={result.l} m={','.join(map(str, result.m)) or '-'}"
        else:
            payload = {"accepted": False, "reason": result.reason}
            text = f"Reject: {result.reason}"
        _emit(args, payload, text)
        return 0

    if cmd == "witness":
        result = characterize.recognize(notation.parse_poly(args.poly))
        if isinstance(result, characterize.Rejection):
            _emit(
                args,
                {"accepted": False, "reason": result.reason},
                f"Reject: {result.reason}",
            )
            return 3
        _emit_diagram(args, characterize.witness(result))
        return 0

    if cmd == "verify":
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

    if cmd == "connect":
        left = notation.parse_gauss(args.code)
        right = notation.parse_gauss(args.code2)
        _emit_diagram(args, moves.connected_sum(left, args.edge, right, args.edge2))
        return 0

    diagram = _load_diagram(args)

    if cmd == "poly":
        text = notation.format_poly(warping.warping_polynomial(diagram))
        _emit(args, {"poly": text}, text)
    elif cmd == "label":
        labels = warping.labeling(diagram)
        _emit(args, {"labels": list(labels)}, " ".join(map(str, labels)))
    elif cmd == "span":
        value = warping.diagram_span(diagram)
        _emit(args, {"value": value}, str(value))
    elif cmd == "degree":
        value = warping.warping_degree(diagram)
        _emit(args, {"value": value}, str(value))
    elif cmd == "monotone":
        value = warping.is_monotone(diagram)
        _emit(args, {"value": value}, str(value).lower())
    elif cmd == "alternating":
        value = diagram.is_alternating()
        _emit(args, {"value": value}, str(value).lower())
    elif cmd == "onebridge":
        value = diagram.is_one_bridge()
        _emit(args, {"value": value}, str(value).lower())
    elif cmd == "dalt":
        value = search.dealternating_number(diagram)
        _emit(args, {"value": value}, str(value))
    elif cmd == "mirror":
        _emit_diagram(args, diagram.mirror())
    elif cmd == "reverse":
        _emit_diagram(args, diagram.reverse())
    elif cmd == "cc":
        _emit_diagram(args, diagram.crossing_change(args.crossing))
    elif cmd == "kink":
        insert = (
            moves.insert_kink_over_first
            if args.type == "1a"
            else moves.insert_kink_under_first
        )
        _emit_diagram(args, insert(diagram, args.edge))
    elif cmd == "fg":
        f, g = warping.fg_decomposition(diagram, args.crossing)
        predicted = warping.predict_crossing_change(diagram, args.crossing)
        _emit(
            args,
            {
                "f": notation.format_poly(f),
                "g": notation.format_poly(g),
                "predicted": notation.format_poly(predicted),
            },
            f"f: {f}\ng: {g}\npredicted: {predicted}",
        )
    else:  # pragma: no cover - argparse rejects unknown commands
        raise WarpPolyError(f"unknown command {cmd}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return 0 if exc.code == 0 else 1
    try:
        return _run(args)
    except (WarpPolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
