import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_worked_examples_runs():
    proc = _run(str(ROOT / "scripts" / "worked_examples.py"))
    assert proc.returncode == 0, proc.stderr
    assert "recognition and realization:" in proc.stdout


def test_run_verification_refuses_negative_bound():
    proc = _run(str(ROOT / "scripts" / "run_verification.py"), "--max-crossings", "-1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: max_crossings -1 below 0\n"


def test_cli_exit_codes_reach_the_shell():
    # every other CLI test calls main() in process; this runs the module
    proc = _run("-m", "warppoly.cli", "poly", "O1 U2 O3 U1 O2 U3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3t+3t^2\n", "")
    proc = _run("-m", "warppoly.cli", "poly", "O1 X2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:")
    proc = _run("-m", "warppoly.cli", "witness", "t+t^2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "Reject: SumTooSmall\n", "")
