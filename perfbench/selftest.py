"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload traced and untraced.  Checks that every metric named in
``BENCHMARK.json`` is printed with its unit and that the output checks
pass.  Then runs one pass of the tiny sweep against a corrupted copy of the
pinned counts and checks that it fails its gate.  Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            got = result["metrics"]
            assert set(got) == {m["name"] for m in wanted[trace]}, (workload, trace)
            for m in wanted[trace]:
                assert got[m["name"]]["unit"] == m["unit"], (workload, m["name"])
                assert isinstance(got[m["name"]]["value"], (int, float))
            if trace == 0:
                assert all(got[m]["value"] > 0 for m in got), (workload, got)
            print(f"ok {workload} trace={trace}")

    sys.path.insert(0, str(ROOT / "src"))
    import clock
    import worker

    calls = worker.SWEEP_CALLS[True]["sweep"]
    pinned = json.loads((HERE / "pinned.json").read_text())
    pinned[worker.call_key(*calls[0])]["checks_run"]["value-at-one"] += 1
    corrupt = worker.SweepWorkload(calls, pinned, clock.Clock(scaled=False)).run_pass()
    assert corrupt.failed == 1, corrupt.failed
    print("ok corrupted pinned count trips the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
