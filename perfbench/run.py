"""warppoly benchmark: one command for every workload, metric and output check.

    python3 perfbench/run.py --workload {sweep,splice,query,construct} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a child process
(``worker.py``) so that its peak RSS and set-up time are its own.  Without
tracing, set-up is timed ``SETUP_RUNS`` times (process start to the first
timed call), before and after the measured run, and its median reported
with the end-to-end metrics.  With
``--trace 1`` the per-layer metrics are reported instead.  The last line of
standard output is the result object; a summary, the input digest and the
sample counts are printed above it and written to ``perfbench/out/``.
Times are in reference-host seconds (see ``clock.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 11  # the measured run's set-up and 10 set-up-only runs around it
RUN_LIMIT_S = 170  # the whole command must end within 180 s


def _worker(argv, deadline):
    """Run the worker to completion; return (stdout, set-up in reference seconds).

    Set-up runs from just before the process starts to the worker's READY
    line.  It is scaled by the time of a bare interpreter start, taken here
    before the worker starts and by the worker right after READY.
    """
    before = clock.bare_start()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    ready = next((line.split() for line in proc.stdout.splitlines()
                  if line.startswith("READY ")), None)
    if ready is None:
        raise RuntimeError("worker never reached its first timed call")
    return proc.stdout, (float(ready[1]) - start) * clock.setup_scale([before, float(ready[2])])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "splice", "query", "construct"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the self-test only")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "warppoly" / "__init__.py").is_file():
        print(f"error: no warppoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--tiny"] if args.tiny else [])
    run = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run += ["--spans-out", str(OUT / f"spans-{tag}.json")]

    # half of the set-up-only runs before the measured run and half after,
    # so that the median spans the host's state over the whole run
    before = 0 if args.trace else (SETUP_RUNS - 1) // 2
    after = 0 if args.trace else SETUP_RUNS - 1 - before
    setups = []
    try:
        for _ in range(before):
            setups.append(_worker(common + ["--setup-only"], deadline)[1])
        stdout, setup = _worker(run, deadline)
        setups.append(setup)
        for _ in range(after):
            setups.append(_worker(common + ["--setup-only"], deadline)[1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = next(json.loads(line[len("RESULT "):]) for line in stdout.splitlines()
                  if line.startswith("RESULT "))

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    extra = dict(result["extra"], setup_samples_s=setups)
    correct = result["failed"] == 0
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(dict(final, extra=extra), indent=1))

    for key in sorted(extra):
        print(f"# {key}: {extra[key]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
