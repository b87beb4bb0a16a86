#!/usr/bin/env python3
"""Run the exhaustive identity sweep and the almost-alternating scan.

Writes one JSON report per sweep (stdout by default), exits 2 if any
violation was found and 1 on a usage error or a bound outside 0..6, as
``warp verify`` does.  The bound is an ASCII integer, as the ``warp`` CLI
reads it; other text is argparse's usage error (exit 1, nothing swept).
The default bound (5) checks 32,055 codes and takes under a minute.
"""

import argparse
import json
import sys
import time

from warppoly import almost_alternating_scan, run_property_suite
from warppoly.cli import _int_arg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-crossings", type=_int_arg, default=5)
    parser.add_argument("--out", help="write the combined JSON report to a file")
    try:
        args = parser.parse_args()
    except SystemExit as exc:
        # argparse exits 2 on usage errors, the code that means violations here
        return 0 if exc.code == 0 else 1

    started = time.time()
    try:
        suite = run_property_suite(args.max_crossings)
        scan = almost_alternating_scan(args.max_crossings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.time() - started

    blob = json.dumps(
        {
            "identity_suite": suite.as_dict(),
            "almost_alternating_scan": scan.as_dict(),
        },
        indent=2,
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob + "\n")
    else:
        sys.stdout.write(blob + "\n")

    ok = suite.ok and scan.ok
    print(
        f"checked {suite.diagrams_checked} codes and "
        f"{scan.diagrams_checked} alternating codes in {elapsed:.1f}s: "
        + ("all identities hold" if ok else "VIOLATIONS FOUND"),
        file=sys.stderr,
    )
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
